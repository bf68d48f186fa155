#include "newtop/newtop_service.hpp"

#include "util/check.hpp"
#include "util/log.hpp"

namespace newtop {

// -- GroupProxy / PeerGroup ---------------------------------------------------------

void GroupProxy::invoke(std::uint32_t method, Bytes args, InvocationMode mode,
                        GroupReplyHandler handler) {
    NEWTOP_EXPECTS(service_ != nullptr, "empty proxy");
    service_->invoke(id_, method, std::move(args), mode, std::move(handler));
}

void GroupProxy::one_way(std::uint32_t method, Bytes args) {
    NEWTOP_EXPECTS(service_ != nullptr, "empty proxy");
    service_->one_way(id_, method, std::move(args));
}

bool GroupProxy::ready() const { return service_ != nullptr && service_->binding_ready(id_); }

std::optional<EndpointId> GroupProxy::manager() const {
    return service_ == nullptr ? std::nullopt : service_->binding_manager(id_);
}

std::uint64_t GroupProxy::rebinds() const {
    return service_ == nullptr ? 0 : service_->binding_rebinds(id_);
}

void GroupProxy::unbind() {
    if (service_ != nullptr) service_->unbind(id_);
    service_ = nullptr;
}

void PeerGroup::publish(Bytes payload) {
    NEWTOP_EXPECTS(endpoint_ != nullptr, "empty peer group handle");
    endpoint_->multicast(group_, std::move(payload));
}

void PeerGroup::reconfigure(const GroupConfig& next) {
    NEWTOP_EXPECTS(endpoint_ != nullptr, "empty peer group handle");
    endpoint_->reconfigure(group_, next);
}

ConfigEpoch PeerGroup::config_epoch() const {
    return endpoint_ == nullptr ? 0 : endpoint_->config_epoch(group_);
}

const View* PeerGroup::view() const {
    return endpoint_ == nullptr ? nullptr : endpoint_->current_view(group_);
}

bool PeerGroup::joined() const { return endpoint_ != nullptr && endpoint_->is_member(group_); }

// -- NSO management servant ----------------------------------------------------------

/// The NSO's ORB-visible object: join-this-client/server-group invitations
/// (two-way) and closed-mode direct replies (oneway).
class NewTopService::ManagementServant : public Servant {
public:
    explicit ManagementServant(NewTopService* owner) : owner_(owner) {}

    Bytes dispatch(std::uint32_t method, BytesView args) override {
        return owner_->handle_management(method, args);
    }

    [[nodiscard]] SimDuration execution_cost(std::uint32_t) const override {
        return calibration::kProtocolCost;
    }

private:
    NewTopService* owner_;
};

NewTopService::NewTopService(Orb& orb, Directory& directory)
    : orb_(&orb),
      directory_(&directory),
      endpoint_(orb, directory),
      invocation_(orb, endpoint_, directory) {
    management_ior_ =
        orb_->adapter().activate(std::make_shared<ManagementServant>(this), "NewTopNSO");
    directory_->register_nso(endpoint_.id(), management_ior_);

    endpoint_.set_deliver_handler(
        [this](const GroupCommEndpoint::Delivery& d) { route_delivery(d); });
    endpoint_.set_view_handler(
        [this](const GroupCommEndpoint::ViewChangeEvent& e) { route_view_change(e); });
    endpoint_.set_removed_handler([this](GroupId g) { route_removed(g); });
}

Bytes NewTopService::handle_management(std::uint32_t method, BytesView args) {
    switch (method) {
        case kNsoJoinCsMethod:
            if (!invocation_.on_join_cs_request(decode_from_bytes<JoinCsRequest>(args))) {
                throw ServantError("not serving the requested group");
            }
            return {};
        default:
            throw ServantError("unknown NSO method");
    }
}

// -- API --------------------------------------------------------------------------

void NewTopService::serve(const std::string& service, const GroupConfig& config,
                          std::shared_ptr<GroupServant> servant) {
    invocation_.serve(service, config, std::move(servant));
}

GroupProxy NewTopService::bind(const std::string& service, const BindOptions& options) {
    return GroupProxy(&invocation_, invocation_.bind(service, options));
}

GroupProxy NewTopService::bind_group(GroupId client_group, const std::string& service,
                                     const BindOptions& options) {
    return GroupProxy(&invocation_, invocation_.bind_group(client_group, service, options));
}

PeerGroup NewTopService::join_peer_group(const std::string& name, const GroupConfig& config,
                                         PeerHandler handler, PeerViewHandler view_handler) {
    NEWTOP_EXPECTS(handler != nullptr, "peer group needs a message handler");
    GroupId group;
    if (directory_->find_group(name) == nullptr) {
        group = endpoint_.create_group(name, config);
    } else {
        group = endpoint_.join_group(name);
    }
    peers_[group] = Peer{std::move(handler), std::move(view_handler)};
    return PeerGroup(&endpoint_, group);
}

// -- routing ----------------------------------------------------------------------

void NewTopService::route_delivery(const GroupCommEndpoint::Delivery& delivery) {
    if (const auto peer = peers_.find(delivery.group); peer != peers_.end()) {
        peer->second.handler(PeerMessage{delivery.group, delivery.sender, delivery.payload});
        return;
    }
    invocation_.on_deliver(delivery);
}

void NewTopService::add_view_observer(ViewObserver observer) {
    NEWTOP_EXPECTS(observer != nullptr, "null view observer");
    view_observers_.push_back(std::move(observer));
}

void NewTopService::route_view_change(const GroupCommEndpoint::ViewChangeEvent& event) {
    // Re-assert our NSO registration: directory eviction is suspicion-
    // based and advisory, so a falsely evicted (partitioned, lossy-link)
    // NSO heals itself the next time it proves liveness by installing a
    // view.
    directory_->register_nso(endpoint_.id(), management_ior_);
    for (const auto& observer : view_observers_) observer(event);
    if (const auto peer = peers_.find(event.view.group); peer != peers_.end()) {
        if (peer->second.view_handler) peer->second.view_handler(event.view);
        return;
    }
    invocation_.on_view_change(event);
}

void NewTopService::route_removed(GroupId group) {
    if (peers_.erase(group) > 0) return;
    invocation_.on_removed(group);
}

}  // namespace newtop
