// GroupCommEndpoint: construction, wiring, and the message data path.
// Membership agreement lives in endpoint_membership.cpp; the time-silence /
// suspicion / stability machinery in endpoint_liveness.cpp.
#include "gcs/endpoint.hpp"

#include <algorithm>
#include <memory>

#include "net/calibration.hpp"
#include "obs/names.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace newtop {

using namespace sim_literals;

namespace {

/// Initial delay before NACKing a detected gap (lets slightly-reordered
/// traffic settle), and the retry period afterwards.
constexpr SimDuration kNackDelay = 2_ms;
constexpr SimDuration kNackRetry = 10_ms;

/// Creation- and proposal-time configuration sanity.  The one that bites in
/// practice: a view-change round must be allowed strictly more time than
/// the suspicion timeout, or the coordinator gets suspected by followers
/// while its round is still legitimately collecting flushes.
void validate_config(const GroupConfig& config) {
    NEWTOP_EXPECTS(config.suspicion_timeout > 0, "suspicion_timeout must be positive");
    NEWTOP_EXPECTS(config.view_change_timeout > config.suspicion_timeout,
                   "view_change_timeout must exceed suspicion_timeout");
    NEWTOP_EXPECTS(config.phi_floor >= 0, "phi_floor must be non-negative");
    NEWTOP_EXPECTS(config.phi_ceiling >= 0, "phi_ceiling must be non-negative");
}

}  // namespace

/// The endpoint's ORB-visible object; peers invoke its single "deliver"
/// method with an encoded GcsMessage.
class GroupCommEndpoint::GcsServant : public Servant {
public:
    explicit GcsServant(GroupCommEndpoint* owner) : owner_(owner) {}

    Bytes dispatch(std::uint32_t method, BytesView args) override {
        if (method != kGcsDeliverMethod) throw ServantError("unknown GCS method");
        owner_->on_wire(args);
        return {};
    }

    [[nodiscard]] SimDuration execution_cost(std::uint32_t) const override {
        return calibration::kProtocolCost;
    }

private:
    GroupCommEndpoint* owner_;
};

GroupCommEndpoint::GroupCommEndpoint(Orb& orb, Directory& directory)
    : orb_(&orb), directory_(&directory) {
    // Idempotent; gives the world-global directory somewhere to count
    // evictions (one registry per world, owned by the network).
    directory_->attach_metrics(&orb_->network().metrics());
    service_ior_ = orb_->adapter().activate(std::make_shared<GcsServant>(this), "NewTopGCS");
    id_ = directory_->register_endpoint(service_ior_);

    // Flow-control / ordering occupancy gauges, each summing one per-group
    // quantity over this endpoint's groups; sampled on the world's gauge
    // ticks (enable_gauge_sampling).
    gauge_registry_ = &metrics();
    const auto sum_gauge = [this](std::string_view name, auto of) {
        gauges_.push_back(gauge_registry_->register_gauge(name, [this, of](SimTime) {
            std::uint64_t total = 0;
            for (const auto& [id, g] : groups_) total += of(g);
            return total;
        }));
    };
    sum_gauge(obs::metric::kGcsHoldback, [](const Group& g) { return pending_count(g.engine); });
    sum_gauge(obs::metric::kGcsCreditsInFlight, [](const Group& g) { return g.inflight_sends; });
    sum_gauge(obs::metric::kGcsBlockedSends, [](const Group& g) { return g.outbox.size(); });
    sum_gauge(obs::metric::kGcsConfigEpoch, [](const Group& g) { return g.config_epoch; });
}

void GroupCommEndpoint::ensure_phi_gauge(EndpointId peer) {
    if (!phi_gauge_peers_.insert(peer).second) return;
    // Composed at runtime like the per-link counters; one gauge per peer
    // this endpoint has ever heard from, torn down with the other gauges.
    const std::string name =
        std::string(obs::metric::kGcsPhiPrefix) + std::to_string(peer.value());
    gauges_.push_back(gauge_registry_->register_gauge(
        name, [this, peer](SimTime at) { return sample_phi_milli(peer, at); }));
}

GroupCommEndpoint::~GroupCommEndpoint() {
    // The registry outlives every endpoint (it is owned by the network);
    // crash-recovery rebuilds endpoints, so a stale gauge here would read
    // freed group state on the next sampling tick.
    if (gauge_registry_ != nullptr) {
        for (const obs::GaugeHandle handle : gauges_) gauge_registry_->unregister_gauge(handle);
    }
}

// -- small accessors ----------------------------------------------------------

GroupCommEndpoint::Group* GroupCommEndpoint::find_group(GroupId id) {
    const auto it = groups_.find(id);
    return it == groups_.end() ? nullptr : &it->second;
}

const GroupCommEndpoint::Group* GroupCommEndpoint::find_group(GroupId id) const {
    const auto it = groups_.find(id);
    return it == groups_.end() ? nullptr : &it->second;
}

GroupCommEndpoint::Group* GroupCommEndpoint::live_group(GroupId id) {
    return process_crashed() ? nullptr : find_group(id);
}

bool GroupCommEndpoint::is_member(GroupId group) const {
    const Group* g = find_group(group);
    return g != nullptr && g->installed && g->view.contains(id_);
}

const View* GroupCommEndpoint::current_view(GroupId group) const {
    const Group* g = find_group(group);
    return (g != nullptr && g->installed) ? &g->view : nullptr;
}

const GroupConfig* GroupCommEndpoint::group_config(GroupId group) const {
    const Group* g = find_group(group);
    return g == nullptr ? nullptr : &g->config;
}

ConfigEpoch GroupCommEndpoint::config_epoch(GroupId group) const {
    const Group* g = find_group(group);
    return g == nullptr ? 0 : g->config_epoch;
}

GroupCommEndpoint::GroupStats GroupCommEndpoint::group_stats(GroupId group) const {
    const Group* g = find_group(group);
    NEWTOP_EXPECTS(g != nullptr, "unknown group");
    GroupStats stats;
    stats.epoch = g->view.epoch;
    stats.in_view_change = g->state == Group::State::kViewChange;
    stats.unstable = g->unstable.size();
    stats.nulls_sent = g->nulls_sent;
    stats.delivered = g->delivered_count;
    stats.holdback = pending_count(g->engine);
    return stats;
}

std::size_t GroupCommEndpoint::pending_load() const {
    std::size_t load = 0;
    for (const auto& [id, g] : groups_) {
        load += pending_count(g.engine);
        load += g.outbox.size();
        load += g.release_queue.size();
    }
    return load;
}

// -- wiring ---------------------------------------------------------------------

bool GroupCommEndpoint::process_crashed() const {
    // Incarnation-aware: after a node restart the old endpoint's timers are
    // still in the scheduler, but they belong to a process that no longer
    // exists and must stay dead even though the *node* is alive again.
    return orb_->process_defunct();
}

obs::MetricsRegistry& GroupCommEndpoint::metrics() const {
    return orb_->network().metrics();
}

void GroupCommEndpoint::on_wire(BytesView payload) {
    if (process_crashed()) return;
    GcsMessage msg;
    try {
        msg = decode_gcs_message(payload);
    } catch (const DecodeError& err) {
        NEWTOP_WARN("endpoint " << id_ << ": dropping malformed GCS message: " << err.what());
        return;
    }
    std::visit(
        [this, payload](auto&& body) {
            using T = std::decay_t<decltype(body)>;
            if constexpr (std::is_same_v<T, DataMsg>) handle_data(std::move(body), payload);
            else if constexpr (std::is_same_v<T, NackMsg>) handle_nack(body);
            else if constexpr (std::is_same_v<T, OrderMsg>) { /* order records ride DataMsg */ }
            else if constexpr (std::is_same_v<T, JoinReq>) handle_join(body);
            else if constexpr (std::is_same_v<T, LeaveReq>) handle_leave(body);
            else if constexpr (std::is_same_v<T, SuspectMsg>) handle_suspect(body);
            else if constexpr (std::is_same_v<T, ProposeMsg>) handle_propose(body);
            else if constexpr (std::is_same_v<T, FlushMsg>) handle_flush(body);
            else if constexpr (std::is_same_v<T, InstallMsg>) handle_install(body);
        },
        std::move(msg));
}

namespace {
/// GCS traffic travels as *synchronous* ORB invocations (§2.2: "multicasting
/// has been implemented by making synchronous invocations in turn to all the
/// members", with threads for parallelism) — so every protocol leg costs a
/// full ORB round trip, which is exactly why a NewTop call measures ~2.5x a
/// plain CORBA call in §5.1.1.  The reply is empty and ignored; the timeout
/// merely garbage-collects calls to crashed peers.
constexpr SimDuration kGcsCallTimeout = 60_s;
}  // namespace

void GroupCommEndpoint::send_wire(EndpointId to, const Bytes& wire) {
    if (to == id_) {
        // Local short-circuit (e.g. coordinator flushing to itself).
        on_wire(wire);
        return;
    }
    orb_->invoke(directory_->endpoint_ior(to), kGcsDeliverMethod, wire,
                 [](ReplyStatus, const Bytes&) {}, kGcsCallTimeout);
}

void GroupCommEndpoint::multicast_wire(const Group& g, const Bytes& wire) {
    // The paper-era ORB has no multicast: the endpoint issues one synchronous
    // invocation per member (threads give wire-parallelism; the CPU
    // serializes the marshalling) — §2.2.
    for (const EndpointId member : g.view.members) {
        if (member == id_) continue;
        orb_->invoke(directory_->endpoint_ior(member), kGcsDeliverMethod, wire,
                     [](ReplyStatus, const Bytes&) {}, kGcsCallTimeout);
    }
}

// -- group management entry points -------------------------------------------

GroupId GroupCommEndpoint::create_group(const std::string& name, const GroupConfig& config) {
    validate_config(config);
    const GroupId id = directory_->register_group(name, config, id_);
    Group& g = groups_[id];
    g.id = id;
    g.name = name;
    g.config = config;
    install_first_view(g);
    return id;
}

GroupId GroupCommEndpoint::join_group(const std::string& name) {
    const Directory::GroupInfo* info = directory_->find_group(name);
    NEWTOP_EXPECTS(info != nullptr, "no such group");
    if (is_member(info->id)) return info->id;
    if (!pending_joins_.contains(name)) {
        pending_joins_[name] = 0;
        on_join_retry(name);  // first attempt immediately
    }
    return info->id;
}

void GroupCommEndpoint::leave_group(GroupId group) {
    Group* g = find_group(group);
    NEWTOP_EXPECTS(g != nullptr && g->installed, "not a member of this group");
    if (g->view.members.size() == 1) {
        // Last member: the group simply disbands around us.
        const GroupId id = g->id;
        stop_liveness(*g);
        groups_.erase(id);
        if (removed_handler_) removed_handler_(id);
        return;
    }
    g->pending_leavers.insert(id_);
    multicast_wire(*g, encode_gcs_message(LeaveReq{g->id, id_}));
    maybe_start_view_change(*g);
}

void GroupCommEndpoint::multicast(GroupId group, Bytes payload, obs::SpanContext span) {
    Group* g = find_group(group);
    NEWTOP_EXPECTS(g != nullptr, "unknown group");
    // Bare GCS traffic (no invocation above it): synthesize a root so the
    // profiler can still chain submit → ship → arrive → deliver.
    if (span.trace == 0) span = synthetic_root_span();
    metrics().add(obs::metric::kGcsMulticasts);
    metrics().trace(obs::TraceKind::kMulticastSent, orb_->scheduler().now(), id_.value(), span,
                    0, group.value(), payload.size());
    submit_send(*g, PendingSend{std::move(payload), span});
}

void GroupCommEndpoint::reconfigure(GroupId group, const GroupConfig& next) {
    validate_config(next);
    Group* g = find_group(group);
    NEWTOP_EXPECTS(g != nullptr, "unknown group");
    ConfigChangeMsg change;
    change.group = group;
    change.next = next;
    // Proposer-unique: endpoint id in the high half, local counter in the
    // low one, so an install can name exactly which proposal it honoured.
    change.nonce = (static_cast<std::uint64_t>(id_.value()) << 32) | ++reconfig_seq_;
    // Synthetic root span, as for bare multicasts: the proposal is ordinary
    // ordered traffic as far as the trace is concerned.
    submit_send(*g,
                PendingSend{encode_to_bytes(change), synthetic_root_span(), DataKind::kConfig});
}

obs::SpanContext GroupCommEndpoint::synthetic_root_span() {
    obs::SpanContext span;
    span.trace = obs::multicast_trace_id(id_.value(), ++multicast_seq_);
    span.span = obs::span_id(span.trace, id_.value(), obs::SpanRole::kSender);
    return span;
}

// -- data path ------------------------------------------------------------------

void GroupCommEndpoint::submit_send(Group& g, PendingSend send) {
    NEWTOP_EXPECTS(g.installed || g.state == Group::State::kViewChange, "group not yet joined");
    // During a view change nothing is sent: the payload has no seqno yet,
    // so no flush covers it, and the install resubmits the outbox in order.
    const bool held = g.state == Group::State::kViewChange || !g.installed;
    const bool app = send.kind == DataKind::kApplication;
    const std::size_t window = g.config.order_window;
    // Config proposals bypass both coalescing (they must not merge into an
    // application batch) and the credit window (a proposal submitted at a
    // full window would queue behind traffic whose delivery the group may
    // be throttling — the switch must not wait on it).  FIFO: once
    // anything is queued, later sends queue behind it even if a credit is
    // momentarily free.
    const bool throttled =
        app && window != 0 && (g.inflight_sends >= window || !g.outbox.empty());
    if (!held && !throttled) {
        if (app && window != 0) ++g.inflight_sends;
        send_data(g, send.kind, std::move(send.payload), send.span);
        return;
    }
    if (app) {
        metrics().trace(obs::TraceKind::kSendQueued, orb_->scheduler().now(), id_.value(),
                        send.span, 0, g.id.value(), g.outbox.size() + 1);
    }
    g.outbox.push_back(std::move(send));
    if (held) return;
    metrics().add(obs::metric::kGcsSendsCoalesced);
    drain_coalesced(g);  // a credit may be free when the queue is fresh
}

void GroupCommEndpoint::drain_coalesced(Group& g) {
    if (g.draining || g.state != Group::State::kNormal || !g.installed) return;
    const std::size_t window = g.config.order_window;
    if (window == 0) return;
    g.draining = true;
    while (!g.outbox.empty() && g.inflight_sends < window) {
        PendingSend head = std::move(g.outbox.front());
        g.outbox.pop_front();
        std::vector<Bytes> batch;
        std::vector<obs::SpanContext> batch_spans;
        const std::size_t max_batch = std::max<std::size_t>(g.config.order_max_batch, 1);
        while (!g.outbox.empty() && batch.size() + 1 < max_batch) {
            batch.push_back(std::move(g.outbox.front().payload));
            batch_spans.push_back(g.outbox.front().span);
            g.outbox.pop_front();
        }
        metrics().observe(obs::metric::kGcsSendBatchPayloads,
                          static_cast<SimDuration>(1 + batch.size()));
        ++g.inflight_sends;
        send_data(g, DataKind::kApplication, std::move(head.payload), head.span,
                  std::move(batch), std::move(batch_spans));
    }
    g.draining = false;
}

void GroupCommEndpoint::send_data(Group& g, DataKind kind, Bytes payload, obs::SpanContext span,
                                  std::vector<Bytes> batch,
                                  std::vector<obs::SpanContext> batch_spans) {
    const SimTime now = orb_->scheduler().now();
    DataMsg msg;
    msg.group = g.id;
    msg.epoch = g.view.epoch;
    msg.sender = id_;
    msg.ts = ++clock_;
    msg.kind = kind;
    msg.sent_at = now;
    msg.payload = std::move(payload);
    msg.batch = std::move(batch);
    msg.span = span;
    msg.batch_spans = std::move(batch_spans);
    if (kind == DataKind::kNull) {
        msg.seq = 0;  // nulls are ephemeral: no stream seqno, no retransmit
        msg.received_counts = received_counts(g);
        ++g.nulls_sent;
        metrics().add(obs::metric::kGcsNullsSent);
        metrics().trace(obs::TraceKind::kNullOnWire, now, id_.value(), g.id.value());
    } else {
        msg.seq = g.next_send_seq++;
        if (kind == DataKind::kOrder) {
            metrics().add(obs::metric::kGcsOrderSent);
            metrics().trace(obs::TraceKind::kOrderOnWire, now, id_.value(), g.id.value(),
                            msg.seq);
        } else {
            metrics().add(obs::metric::kGcsDataSent);
            metrics().trace(obs::TraceKind::kDataOnWire, now, id_.value(), g.id.value(),
                            msg.seq);
            // Phase boundary: each payload leaves the endpoint now, and the
            // ref lets the profiler pair ship ↔ arrival per member.  A config
            // proposal rides the data stream but carries no application
            // payload, so it has no payload phases to reconcile.
            if (kind == DataKind::kApplication) {
                trace_payloads(obs::TraceKind::kPayloadShipped, msg);
            }
        }
    }
    if (orders_like_app(kind)) {
        // Only what changed since our previous send in this view: every
        // receiver delivers that send first (per-sender FIFO), so it has
        // already checked and merged the rest.
        msg.knowledge = knowledge_.snapshot(g.id, g.knowledge_sent_at);
        g.knowledge_sent_at = knowledge_.version();
        if (const auto* causal = std::get_if<CausalOrder>(&g.engine)) {
            msg.causal_vc = causal->delivered_vector();
        }
        knowledge_.note(g.id, msg.epoch, id_, msg.seq + 1);
    }
    g.last_send_time = orb_->scheduler().now();
    g.ever_sent = true;
    g.received_since_send = false;
    g.last_sent_ts = msg.ts;

    if (kind == DataKind::kNull) {
        multicast_wire(g, encode_gcs_message(msg));
    } else {
        // Kept exactly as sent, barriers included: a NACK retransmission
        // and our flush contribution resend this very frame.
        const auto stored = g.unstable.emplace(
            MsgRef{id_, msg.seq}, UnstableMsg{encode_gcs_message(msg), msg.span});
        multicast_wire(g, stored.first->second.frame);
    }

    // Local self-ingest: feed our own message straight to the engine.
    if (kind == DataKind::kApplication) note_payload_arrival(msg);
    // Only a sequencer sends order records, and their assignments are
    // already in its engine.
    if (kind != DataKind::kOrder) on_data(g.engine, std::move(msg));
    pump(g);
    kick_liveness(g);
}

void GroupCommEndpoint::handle_data(DataMsg msg, BytesView frame) {
    clock_ = std::max(clock_, msg.ts);
    Group* gp = find_group(msg.group);
    if (gp == nullptr) return;  // never knew this group (or already removed)
    Group& g = *gp;
    if (!g.installed) return;  // joiner skeleton: the install cut covers us

    if (msg.epoch != g.view.epoch) return;  // stale epoch, or a future one:
    // future-epoch senders keep it in their unstable store, and the NACK
    // triggered by their next message (or the install cut) recovers it.

    if (!g.view.contains(msg.sender)) return;  // ejected member's straggler

    auto& stream = g.inbound[msg.sender];
    const SimTime heard_at = orb_->scheduler().now();
    // Feed the φ-accrual history: one inter-arrival gap per arrival, but
    // only gaps at heartbeat scale.  Sub-heartbeat gaps (ack nulls, the
    // several messages of one protocol exchange) describe burst structure,
    // not the peer's *pauses* — and pauses are what the silence model must
    // predict.  Letting them in makes a healthy history bimodal (mean
    // halves, σ explodes), which pushes the φ deadline past the fixed
    // floor and delays crash detection for perfectly prompt peers.  The
    // accrual literature samples heartbeat inter-arrivals for the same
    // reason; time_silence is this group's heartbeat period.
    const SimDuration min_gap = g.config.time_silence / 4;
    if (stream.last_heard != 0 && heard_at > stream.last_heard + min_gap) {
        if (stream.intervals.size() < kPhiWindow) {
            stream.intervals.push_back(heard_at - stream.last_heard);
        } else {
            stream.intervals[stream.interval_next] = heard_at - stream.last_heard;
            stream.interval_next = (stream.interval_next + 1) % kPhiWindow;
        }
    }
    stream.last_heard = heard_at;
    g.received_since_send = true;
    ensure_phi_gauge(msg.sender);
    // A message from a peer we suspect refutes the suspicion: it was slow,
    // not dead.  Classification only — the membership protocol still runs
    // its course, so agreement never depends on this bookkeeping.
    if (const auto sit = g.suspected_at.find(msg.sender); sit != g.suspected_at.end()) {
        metrics().add(obs::metric::kGcsSuspicionFalse);
        g.suspected_at.erase(sit);
    }

    if (msg.kind == DataKind::kNull) {
        // The null advertises the sender's own send count; if we hold its
        // full stream we may let the null's timestamp advance the symmetric
        // order (the other engines ignore nulls).  Otherwise a lost message
        // with a lower timestamp could still be in flight (retransmission),
        // and advancing would break the total order — so we NACK and wait.
        Seqno sender_count = 0;
        for (const auto& [member, count] : msg.received_counts) {
            if (member == msg.sender) sender_count = count;
        }
        const bool stream_complete = sender_count <= stream.next_expected;
        apply_stability_report(g, msg.sender, msg.received_counts);
        if (stream_complete) on_data(g.engine, std::move(msg));
        if (!stream_complete && stream.out_of_order.empty()) {
            schedule_nack(g, msg.sender);
        }
        pump(g);
        kick_liveness(g);
        return;
    }

    // Reliable stream path (application data and order records).
    if (msg.seq < stream.next_expected || stream.out_of_order.contains(msg.seq)) {
        return;  // duplicate (retransmission we no longer need)
    }
    if (msg.seq != stream.next_expected) {
        stream.out_of_order.emplace(msg.seq, Bytes(frame.begin(), frame.end()));
        schedule_nack(g, msg.sender);
        kick_liveness(g);
        return;
    }

    const EndpointId sender = msg.sender;
    ingest_in_order(g, std::move(msg), Bytes(frame.begin(), frame.end()));
    ++stream.next_expected;
    // Drain any buffered continuation.
    auto it = stream.out_of_order.begin();
    while (it != stream.out_of_order.end() && it->first == stream.next_expected) {
        DataMsg buffered = decode_data_frame(it->second);
        ingest_in_order(g, std::move(buffered), std::move(it->second));
        it = stream.out_of_order.erase(it);
        ++stream.next_expected;
    }
    if (stream.out_of_order.empty() && stream.nack_timer != 0) {
        orb_->scheduler().cancel(stream.nack_timer);
        stream.nack_timer = 0;
    } else if (!stream.out_of_order.empty()) {
        schedule_nack(g, sender);
    }

    pump(g);
    kick_liveness(g);
}

void GroupCommEndpoint::note_payload_arrival(const DataMsg& msg) {
    // Phase boundary: the payload has reached this member (self-ingest or
    // in-order wire arrival) and now waits in the ordering layer.  One event
    // per carried payload span so every invocation's chain sees its own.
    if (msg.kind == DataKind::kApplication) trace_payloads(obs::TraceKind::kDataArrived, msg);
}

void GroupCommEndpoint::trace_payloads(obs::TraceKind kind, const DataMsg& msg) {
    const SimTime now = orb_->scheduler().now();
    const std::uint64_t ref = obs::pack_delivered_ref(msg.epoch, msg.sender.value(), msg.seq);
    metrics().trace(kind, now, id_.value(), msg.span, 0, msg.group.value(), ref);
    for (const obs::SpanContext& extra : msg.batch_spans) {
        metrics().trace(kind, now, id_.value(), extra, 0, msg.group.value(), ref);
    }
}

void GroupCommEndpoint::ingest_in_order(Group& g, DataMsg msg, Bytes frame) {
    note_payload_arrival(msg);
    g.unstable.emplace(MsgRef{msg.sender, msg.seq}, UnstableMsg{std::move(frame), msg.span});
    auto* sequencer = std::get_if<SequencerOrder>(&g.engine);
    if (sequencer == nullptr || msg.kind != DataKind::kOrder) {
        on_data(g.engine, std::move(msg));
        return;
    }
    try {
        sequencer->on_order(decode_from_bytes<OrderRecord>(msg.payload));
    } catch (const DecodeError& err) {
        NEWTOP_WARN("endpoint " << id_ << ": bad order payload: " << err.what());
    }
}

void GroupCommEndpoint::pump(Group& g) {
    if (g.state != Group::State::kNormal) return;
    // Sequencer: fresh assignments are not broadcast inline — the flush runs
    // at the end of the current event step, so every data ref assigned at
    // this instant shares one multi-assignment ORDER broadcast instead of
    // costing one broadcast each.
    schedule_order_flush(g);
    std::vector<DataMsg> ordered = take_deliverable(g.engine);
    metrics().observe(obs::metric::kGcsHoldbackDepth,
                      static_cast<SimDuration>(pending_count(g.engine)));
    for (auto& msg : ordered) g.release_queue.push_back(std::move(msg));
    try_release_all();
}

void GroupCommEndpoint::schedule_order_flush(Group& g) {
    const auto* sequencer = std::get_if<SequencerOrder>(&g.engine);
    if (sequencer == nullptr || !sequencer->is_sequencer() || sequencer->fresh_count() == 0) {
        return;
    }
    if (g.order_flush_timer != 0) return;
    const GroupId id = g.id;
    // Zero delay: the scheduler's FIFO tie-break at equal timestamps runs
    // this after every already-queued delivery at the current instant, so
    // the flush sees the whole event step's assignments.
    g.order_flush_timer = orb_->scheduler().schedule_after(0, [this, id] { on_order_flush(id); });
}

void GroupCommEndpoint::flush_order(Group& g) {
    const SimTime now = orb_->scheduler().now();
    // Looked up afresh each pass: send_data can deliver synchronously, and a
    // delivered reconfiguration can install a view that replaces the engine.
    while (auto* sequencer = std::get_if<SequencerOrder>(&g.engine)) {
        auto order = sequencer->take_order_to_send();
        if (!order.has_value()) break;
        metrics().observe(obs::metric::kGcsOrderBatchRefs,
                          static_cast<SimDuration>(order->refs.size()));
        // Sequencer-turnaround boundary: each ref now has an agreed position
        // and the assignment goes on the wire.  The span is recovered from
        // the unstable store (the sequencer holds every unassigned message).
        for (const MsgRef& ref : order->refs) {
            const auto it = g.unstable.find(ref);
            const obs::SpanContext span = it == g.unstable.end() ? obs::SpanContext{}
                                                                 : it->second.span;
            metrics().trace(obs::TraceKind::kOrderAssigned, now, id_.value(), span, 0,
                            g.id.value(),
                            obs::pack_delivered_ref(g.view.epoch, ref.sender.value(), ref.seq));
        }
        send_data(g, DataKind::kOrder, encode_to_bytes(*order));
    }
}

void GroupCommEndpoint::on_order_flush(GroupId id) {
    Group* g = live_group(id);
    if (g == nullptr) return;
    g->order_flush_timer = 0;
    // During a view change order records are never sent; the unsent
    // assignments are deliberately invisible to the flush (assignment_log)
    // and the cut's (ts, sender) fallback orders those refs instead.
    if (g->state != Group::State::kNormal || !g->installed) return;
    flush_order(*g);
    pump(*g);
    kick_liveness(*g);
}

void GroupCommEndpoint::try_release(Group& g) {
    while (!g.release_queue.empty() && barrier_satisfied(g, g.release_queue.front())) {
        DataMsg msg = std::move(g.release_queue.front());
        g.release_queue.pop_front();
        hold_joining_barriers(g, msg);
        deliver_to_app(g, std::move(msg));
    }
}

void GroupCommEndpoint::try_release_all() {
    // Delivering in one group can unblock barriers in another; iterate to a
    // fixpoint.  The barrier graph follows causality, so this terminates.
    bool progressed = true;
    while (progressed) {
        progressed = false;
        for (auto& [id, g] : groups_) {
            const std::uint64_t before = g.delivered_count;
            try_release(g);
            progressed |= g.delivered_count != before;
        }
    }
}

GroupCommEndpoint::Barrier GroupCommEndpoint::barrier_state(GroupId carrier,
                                                            const KnowledgeEntry& entry) const {
    if (entry.group == carrier) return Barrier::kMet;  // in-group order handles it
    if (entry.sender == id_) return Barrier::kMet;     // our own sends
    const Group* g = find_group(entry.group);
    if (g == nullptr || !g->installed || !g->view.contains(id_)) {
        // Not ours yet.  An entry we are joining the group of may name the
        // very view that admits us, so it must bind once we install it.
        return joining(entry.group) ? Barrier::kJoining : Barrier::kMet;
    }
    if (entry.epoch < g->view.epoch) return Barrier::kMet;      // flushed by a view change
    if (entry.epoch > g->view.epoch) return Barrier::kBlocked;  // our install is behind
    if (!g->view.contains(entry.sender)) return Barrier::kMet;  // departed member
    return delivered_prefix(*g, entry.sender) < entry.count ? Barrier::kBlocked : Barrier::kMet;
}

bool GroupCommEndpoint::joining(GroupId group) const {
    if (pending_joins_.empty()) return false;
    const Directory::GroupInfo* info = directory_->find_group(group);
    return info != nullptr && pending_joins_.contains(info->name);
}

bool GroupCommEndpoint::barrier_satisfied(const Group& g, const DataMsg& msg) const {
    const auto blocked = [&](const KnowledgeEntry& entry) {
        return barrier_state(g.id, entry) == Barrier::kBlocked;
    };
    if (std::any_of(msg.knowledge.begin(), msg.knowledge.end(), blocked)) return false;
    const auto held = g.joining_barriers.find(msg.sender);
    return held == g.joining_barriers.end() ||
           std::none_of(held->second.begin(), held->second.end(), blocked);
}

void GroupCommEndpoint::hold_joining_barriers(Group& g, const DataMsg& msg) {
    // Every other entry is met for good: a delivered prefix only grows, and
    // a view change makes the entry's epoch an older one.
    const auto held = g.joining_barriers.find(msg.sender);
    std::vector<KnowledgeEntry> still;
    if (!pending_joins_.empty()) {
        const auto keep = [&](const KnowledgeEntry& entry) {
            if (barrier_state(g.id, entry) == Barrier::kJoining) still.push_back(entry);
        };
        if (held != g.joining_barriers.end()) {
            std::for_each(held->second.begin(), held->second.end(), keep);
        }
        std::for_each(msg.knowledge.begin(), msg.knowledge.end(), keep);
    }
    if (!still.empty()) {
        g.joining_barriers[msg.sender] = std::move(still);
    } else if (held != g.joining_barriers.end()) {
        g.joining_barriers.erase(held);
    }
}

void GroupCommEndpoint::deliver_to_app(Group& g, DataMsg msg) {
    if (msg.kind == DataKind::kConfig) {
        // The agreed delivery slot of a reconfiguration proposal: it never
        // reaches the application, but it consumed a stream position, so it
        // goes through the same ordered-delivery accounting.
        apply_config_delivery(g, msg);
        return;
    }
    NEWTOP_ENSURES(msg.kind == DataKind::kApplication, "only application data is delivered");
    const std::uint64_t payloads = 1 + msg.batch.size();
    g.delivered_count += payloads;
    const SimTime now = orb_->scheduler().now();
    const std::uint64_t ref = obs::pack_delivered_ref(msg.epoch, msg.sender.value(), msg.seq);
    metrics().add(obs::metric::kGcsDelivered, payloads);
    metrics().observe(obs::metric::kGcsDeliveryLatencyUs, now - msg.sent_at);
    // subject = group, detail = the delivered {epoch, sender, seq} ref: the
    // raw material for the oracle's total-order / virtual-synchrony checks.
    // A coalesced batch shares one ref, so it stays one oracle event.
    metrics().trace(obs::TraceKind::kDataDelivered, now, id_.value(), msg.span, 0, g.id.value(),
                    ref);
    // Phase boundary: ordering (and any cross-group barrier) released the
    // payload(s); what follows is CPU-queue wait at the application object.
    trace_payloads(obs::TraceKind::kPayloadDelivered, msg);
    advance_delivered_prefix(g, msg);
    knowledge_.note(g.id, msg.epoch, msg.sender, msg.seq + 1);
    knowledge_.merge(msg.knowledge);

    const bool own = msg.sender == id_;
    if (deliver_handler_) {
        // Hand each payload to the application object over the colocated ORB
        // boundary (message m3 of fig. 9): costs CPU but no wire traffic.
        // Coalesced payloads unpack here, in their submission order.
        auto hand_off = [&](Bytes payload) {
            Delivery delivery{g.id, msg.sender, msg.ts, std::move(payload)};
            orb_->network().node(orb_->node_id()).cpu().execute(
                calibration::kLocalHandoffCost,
                [handler = deliver_handler_, delivery = std::move(delivery)] {
                    handler(delivery);
                });
        };
        hand_off(std::move(msg.payload));
        for (Bytes& extra : msg.batch) hand_off(std::move(extra));
    }

    // Self-delivery returns a window credit; drain *after* the handler
    // hand-offs above are queued so a synchronously-delivered drained send
    // cannot jump ahead of this message at the application.
    if (own && g.config.order_window != 0) {
        if (g.inflight_sends > 0) --g.inflight_sends;
        drain_coalesced(g);
    }
}

void GroupCommEndpoint::apply_config_delivery(Group& g, const DataMsg& msg) {
    // Stream accounting first: the proposal occupied a seqno and an agreed
    // order slot, so it must count as delivered for the virtual-synchrony
    // cut (the sender's delivered prefix) and appear in the oracle's
    // total-order event stream (kDataDelivered) — the switch point is itself
    // an ordered event every member sees in the same position.
    ++g.delivered_count;
    const SimTime now = orb_->scheduler().now();
    const std::uint64_t ref = obs::pack_delivered_ref(msg.epoch, msg.sender.value(), msg.seq);
    metrics().trace(obs::TraceKind::kDataDelivered, now, id_.value(), msg.span, 0, g.id.value(),
                    ref);
    advance_delivered_prefix(g, msg);
    knowledge_.note(g.id, msg.epoch, msg.sender, msg.seq + 1);
    knowledge_.merge(msg.knowledge);

    ConfigChangeMsg change;
    try {
        change = decode_from_bytes<ConfigChangeMsg>(msg.payload);
    } catch (const DecodeError& err) {
        NEWTOP_WARN("endpoint " << id_ << ": bad config payload: " << err.what());
        return;
    }

    // Last-wins across concurrent proposals: total order delivers them in
    // the same sequence everywhere, so every member's pending value agrees.
    g.pending_config = Group::PendingConfig{change.next, change.nonce, now};
    metrics().trace(obs::TraceKind::kConfigProposed, now, id_.value(), msg.span, 0, g.id.value(),
                    obs::pack_config_detail(g.config_epoch + 1, g.view.epoch));

    // Arm the flush-delimited switch.  Deferred one event step: this runs
    // deep inside the delivery path (possibly inside a cut drain), and
    // starting a round here would re-enter the view-change machinery.
    const GroupId id = g.id;
    orb_->scheduler().schedule_after(0, [this, id] {
        if (Group* gp = live_group(id)) maybe_start_view_change(*gp);
    });
}

Seqno GroupCommEndpoint::delivered_prefix(const Group& g, EndpointId sender) const {
    if (sender == id_) return g.own_delivered_count;
    const auto it = g.inbound.find(sender);
    return it == g.inbound.end() ? 0 : it->second.delivered_app_count;
}

void GroupCommEndpoint::advance_delivered_prefix(Group& g, const DataMsg& msg) {
    Seqno& prefix =
        msg.sender == id_ ? g.own_delivered_count : g.inbound[msg.sender].delivered_app_count;
    // Every engine and the cut deliver each sender's messages in seq order
    // (order records fill the gaps in a sequencer's stream), which is what
    // lets a count stand in for the set of delivered refs.
    NEWTOP_ENSURES(msg.seq >= prefix, "per-sender delivery must advance in seq order");
    prefix = msg.seq + 1;
}

// -- NACK-based retransmission ------------------------------------------------------

void GroupCommEndpoint::schedule_nack(Group& g, EndpointId sender) {
    auto& stream = g.inbound[sender];
    if (stream.nack_timer != 0) return;
    const GroupId group_id = g.id;
    stream.nack_timer = orb_->scheduler().schedule_after(
        kNackDelay, [this, group_id, sender] { send_nack(group_id, sender); });
}

void GroupCommEndpoint::send_nack(GroupId group_id, EndpointId sender) {
    Group* g = live_group(group_id);
    if (g == nullptr || g->state != Group::State::kNormal) return;
    auto& stream = g->inbound[sender];
    stream.nack_timer = 0;

    NackMsg nack{g->id, g->view.epoch, id_, {}};
    const Seqno gap_end = stream.out_of_order.empty()
                              ? stream.next_expected + 1
                              : stream.out_of_order.begin()->first;
    for (Seqno s = stream.next_expected; s < gap_end; ++s) nack.missing.push_back(s);
    if (nack.missing.empty()) return;
    metrics().add(obs::metric::kGcsNacksSent);
    send_wire(sender, encode_gcs_message(nack));

    // Retry until the gap closes (or a view change supersedes everything).
    stream.nack_timer = orb_->scheduler().schedule_after(
        kNackRetry, [this, group_id, sender] { send_nack(group_id, sender); });
}

void GroupCommEndpoint::handle_nack(const NackMsg& msg) {
    Group* g = find_group(msg.group);
    if (g == nullptr || msg.epoch != g->view.epoch) return;
    for (const Seqno seq : msg.missing) {
        const auto it = g->unstable.find(MsgRef{id_, seq});
        if (it != g->unstable.end()) {
            metrics().add(obs::metric::kGcsRetransmits);
            send_wire(msg.requester, it->second.frame);
        }
        // Absent => the message went stable, meaning the requester had
        // already received it; the NACK raced a delivery.
    }
}

}  // namespace newtop
