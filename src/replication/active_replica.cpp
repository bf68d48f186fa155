#include "replication/active_replica.hpp"

#include <utility>

#include "obs/names.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace newtop {

using namespace sim_literals;

namespace {

constexpr SimDuration kStateRetry = 3_s;

std::string transfer_object_name(const std::string& service, EndpointId member) {
    return "state:" + service + ":" + std::to_string(member.value());
}

}  // namespace

/// The servant handed to serve(): forwards to the application servant while
/// synced, buffers and refuses while a joiner awaits its snapshot, and
/// intercepts sync markers travelling in the ordered request stream.
class ActiveReplica::Shim : public GroupServant,
                            public std::enable_shared_from_this<ActiveReplica::Shim> {
public:
    Shim(NewTopService& nso, std::string service, std::shared_ptr<StatefulServant> app,
         bool founding)
        : nso_(&nso), service_(std::move(service)), app_(std::move(app)), synced_(founding) {}

    Bytes handle(std::uint32_t method, const Bytes& args) override {
        if (method == kSyncMarkerMethod) {
            on_marker(args);
            return {};
        }
        if (synced_) {
            ++executed_;
            return app_->handle(method, args);
        }
        buffered_.push_back({method, args});
        throw ServantError("replica state transfer in progress");
    }

    [[nodiscard]] SimDuration execution_cost(std::uint32_t method) const override {
        return method == kSyncMarkerMethod ? SimDuration{1} : app_->execution_cost(method);
    }

    // -- state transfer ---------------------------------------------------------

    void install_snapshot(const Bytes& snapshot) {
        if (synced_) return;
        app_->restore(snapshot);
        // Replay everything ordered after the marker; the snapshot covers
        // the prefix before it.
        for (auto& [method, args] : buffered_) {
            try {
                ++executed_;
                app_->handle(method, args);
            } catch (const ServantError&) {
                // the originating client saw the failure; state-wise a
                // throwing request is a no-op by contract
            }
        }
        buffered_.clear();
        synced_ = true;
        nso_->orb().scheduler().cancel(retry_timer_);
        retry_timer_ = 0;
    }

    /// A joiner asks us (directly) to run a state round for it: multicast a
    /// fresh marker so the snapshot cut is well defined.
    void send_marker_for(std::vector<EndpointId> joiners) {
        const GroupId group = server_group();
        if (!nso_->group_comm().is_member(group)) return;
        ForwardEnv marker;
        // group_origin bypasses the invocation layer's per-client reply
        // cache (markers are not client calls).
        marker.call = CallId{nso_->id().value(), marker_seq_++, true};
        marker.mode = InvocationMode::kOneWay;
        marker.manager = nso_->id();
        marker.method = kSyncMarkerMethod;
        marker.args = encode_to_bytes(SyncMarker{nso_->id(), std::move(joiners)});
        nso_->group_comm().multicast(group, encode_envelope(marker));
    }

    void on_view(const GroupCommEndpoint::ViewChangeEvent& event) {
        if (event.view.group != server_group()) return;
        if (!synced_ && event.view.members.size() == 1 &&
            event.view.members.front() == nso_->id()) {
            // Re-founded lineage after whole-group death: nobody survived to
            // donate state, so the service restarts from this replica's
            // fresh state.  Requests refused while we waited already failed
            // at their clients; they are not part of the new history.
            buffered_.clear();
            install_snapshot(app_->snapshot());
            nso_->metrics().add(obs::metric::kReplicationStateRefounds);
            return;
        }
        // The senior continuing member becomes the snapshot donor for every
        // joiner in the new view.
        std::vector<EndpointId> continuing;
        for (const EndpointId m : event.view.members) {
            if (std::find(event.joined.begin(), event.joined.end(), m) == event.joined.end()) {
                continuing.push_back(m);
            }
        }
        if (continuing.empty() || event.joined.empty()) return;
        if (continuing.front() == nso_->id()) send_marker_for(event.joined);
    }

    void arm_retry() {
        if (synced_ || retry_timer_ != 0) return;
        retry_timer_ = nso_->orb().scheduler().schedule_after(kStateRetry, [self =
                                                                                shared_from_this()] {
            // The retry loop dies with its process: after a node restart a
            // fresh replica (new NSO, new shim) owns the recovery.
            if (self->nso_->orb().process_defunct()) return;
            self->retry_timer_ = 0;
            if (self->synced_) return;
            self->request_state();
            self->arm_retry();
        });
    }

    [[nodiscard]] bool synced() const { return synced_; }
    [[nodiscard]] std::uint64_t executed() const { return executed_; }
    [[nodiscard]] const std::string& service_name() const { return service_; }
    NewTopService& nso() { return *nso_; }

private:
    struct Buffered {
        std::uint32_t method;
        Bytes args;
    };

    [[nodiscard]] GroupId server_group() const {
        const Directory::GroupInfo* info = nullptr;
        // The NSO's directory is reachable through the group-comm endpoint's
        // registration; the facade guarantees the group exists by now.
        info = directory().find_group(service_);
        NEWTOP_ENSURES(info != nullptr, "server group vanished from the directory");
        return info->id;
    }

    [[nodiscard]] const Directory& directory() const { return *directory_; }

    void on_marker(const Bytes& args) {
        SyncMarker marker;
        try {
            marker = decode_from_bytes<SyncMarker>(args);
        } catch (const DecodeError& err) {
            NEWTOP_WARN("active replica: bad sync marker: " << err.what());
            return;
        }
        const auto& [donor, joiners] = marker;
        const bool for_us =
            std::find(joiners.begin(), joiners.end(), nso_->id()) != joiners.end();
        if (!synced_ && for_us) {
            // Everything buffered so far was ordered before the marker and
            // is covered by the incoming snapshot.
            buffered_.clear();
            return;
        }
        if (donor == nso_->id() && synced_) {
            const Bytes snapshot = app_->snapshot();
            for (const EndpointId joiner : joiners) {
                if (joiner == nso_->id()) continue;
                const Ior* target =
                    directory().find_object(transfer_object_name(service_, joiner));
                if (target == nullptr) continue;
                nso_->orb().invoke_oneway(*target, kStateInstallMethod, snapshot);
            }
        }
    }

    void request_state() {
        const View* view = nso_->group_comm().current_view(server_group());
        if (view == nullptr) return;
        for (const EndpointId member : view->members) {
            if (member == nso_->id()) continue;
            const Ior* target = directory().find_object(transfer_object_name(service_, member));
            if (target != nullptr) {
                nso_->orb().invoke_oneway(*target, kStateRequestMethod,
                                          encode_to_bytes(nso_->id()));
                return;
            }
        }
    }

    friend class ActiveReplica;

    NewTopService* nso_;
    const Directory* directory_{nullptr};
    std::string service_;
    std::shared_ptr<StatefulServant> app_;
    bool synced_;
    std::uint64_t executed_{0};
    std::uint64_t marker_seq_{0};
    std::deque<Buffered> buffered_;
    TimerId retry_timer_{0};
};

/// The replica's ORB-visible state-transfer object.
class ActiveReplica::TransferServant : public Servant {
public:
    explicit TransferServant(std::shared_ptr<Shim> shim) : shim_(std::move(shim)) {}

    Bytes dispatch(std::uint32_t method, BytesView args) override {
        switch (method) {
            case kStateInstallMethod:
                // State transfer is cold; materialize the snapshot out of
                // the borrowed wire buffer.
                shim_->install_snapshot(Bytes(args.begin(), args.end()));
                return {};
            case kStateRequestMethod: {
                const auto joiner = decode_from_bytes<EndpointId>(args);
                if (shim_->synced()) shim_->send_marker_for({joiner});
                return {};
            }
            default:
                throw ServantError("unknown state-transfer method");
        }
    }

private:
    std::shared_ptr<Shim> shim_;
};

ActiveReplica::ActiveReplica(NewTopService& nso, std::string service, const GroupConfig& config,
                             std::shared_ptr<StatefulServant> app)
    : nso_(&nso), service_(std::move(service)) {
    NEWTOP_EXPECTS(app != nullptr, "active replica needs an application servant");

    // Reach the directory the same way the facade does.
    Directory* directory = nullptr;
    // NewTopService does not expose the directory directly; register via a
    // back-channel: the group-comm endpoint carries it.  (Friend-free
    // workaround: the facade re-exposes what we need below.)
    directory = &nso_->directory();

    const bool founding = directory->find_group(service_) == nullptr;
    shim_ = std::make_shared<Shim>(*nso_, service_, std::move(app), founding);
    shim_->directory_ = directory;

    // Publish the state-transfer object before joining so a donor can find
    // it the moment the join view installs.
    const Ior transfer_ior = nso_->orb().adapter().activate(
        std::make_shared<TransferServant>(shim_), "ReplicaStateTransfer");
    directory->register_object(transfer_object_name(service_, nso_->id()), transfer_ior);

    nso_->add_view_observer(
        [shim = shim_](const GroupCommEndpoint::ViewChangeEvent& event) { shim->on_view(event); });

    nso_->serve(service_, config, shim_);
    if (!founding) shim_->arm_retry();
}

bool ActiveReplica::synced() const { return shim_->synced(); }

std::uint64_t ActiveReplica::executed() const { return shim_->executed(); }

}  // namespace newtop
