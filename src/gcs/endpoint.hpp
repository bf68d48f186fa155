// GroupCommEndpoint: one process's group-communication runtime — the lower
// half of a NewTop service object (NSO).
//
// One endpoint per NSO, regardless of how many groups the NSO's client
// participates in (§3).  The endpoint provides:
//
//  * group create / join / leave with a consistent membership (view)
//    service driven by a failure suspector,
//  * atomic multicast with causal + total order delivery (symmetric or
//    asymmetric per group), virtual synchrony across view changes,
//  * overlapping groups: one Lamport clock and one causal-knowledge store
//    span all of the endpoint's groups, so causally-related messages in
//    different groups are delivered in causal order (the fig. 7 property),
//  * the time-silence mechanism in lively and event-driven flavours.
//
// All protocol traffic travels as oneway ORB invocations between endpoint
// servants, mirroring the paper's architecture.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "gcs/directory.hpp"
#include "gcs/knowledge.hpp"
#include "gcs/messages.hpp"
#include "obs/metrics.hpp"
#include "gcs/ordering.hpp"
#include "gcs/types.hpp"
#include "gcs/view.hpp"
#include "orb/orb.hpp"

namespace newtop {

/// ORB method id of the GCS servant's single "deliver" operation.
inline constexpr std::uint32_t kGcsDeliverMethod = 100;

class GroupCommEndpoint {
public:
    /// An application message delivered in agreed order.
    struct Delivery {
        GroupId group;
        EndpointId sender;
        Lamport ts{0};
        Bytes payload;
    };
    using DeliverHandler = std::function<void(const Delivery&)>;

    /// A new view was installed at this member.
    struct ViewChangeEvent {
        View view;
        std::vector<EndpointId> joined;
        std::vector<EndpointId> departed;
    };
    using ViewHandler = std::function<void(const ViewChangeEvent&)>;

    /// This member is no longer part of the group (it left, was ejected,
    /// or the group disbanded around it).
    using RemovedHandler = std::function<void(GroupId)>;

    GroupCommEndpoint(Orb& orb, Directory& directory);
    ~GroupCommEndpoint();

    GroupCommEndpoint(const GroupCommEndpoint&) = delete;
    GroupCommEndpoint& operator=(const GroupCommEndpoint&) = delete;

    [[nodiscard]] EndpointId id() const { return id_; }
    [[nodiscard]] const Ior& service_ior() const { return service_ior_; }
    Orb& orb() { return *orb_; }

    // -- Group management ----------------------------------------------------

    /// Create a group with this endpoint as sole member.  The first view
    /// installs immediately.
    GroupId create_group(const std::string& name, const GroupConfig& config);

    /// Join an existing group (asynchronous: membership is effective when
    /// the view including this endpoint is installed — watch the view
    /// handler).  Returns the group id.
    GroupId join_group(const std::string& name);

    /// Leave a group (asynchronous; the removed handler fires once the
    /// view excluding this endpoint installs).
    void leave_group(GroupId group);

    /// Atomic multicast to the group with the group's configured ordering.
    /// During a view change the message is queued and sent in the next view.
    /// `span` ties the payload to the invocation it belongs to for latency
    /// attribution; a zero span gets a deterministic per-endpoint synthetic
    /// trace so bare GCS traffic is profilable too.
    void multicast(GroupId group, Bytes payload, obs::SpanContext span = {});

    /// Propose a runtime configuration change for the group (must be a
    /// member).  The proposal rides the group's own ordered stream as a
    /// DataKind::kConfig message; its agreed delivery arms a
    /// flush-delimited view change whose install applies `next` at every
    /// member simultaneously.  View-synchronous: everything ordered before
    /// the cut is delivered under the old config (old OrderMode, old
    /// policies), everything after runs the new one, and in-flight sends —
    /// including coalesced batches and credit-blocked payloads — survive
    /// the switch.  Asynchronous; watch the view handler or config_epoch()
    /// for completion.
    void reconfigure(GroupId group, const GroupConfig& next);

    /// Monotonic count of configurations this member has installed for the
    /// group (0 = still on the creation-time config).
    [[nodiscard]] ConfigEpoch config_epoch(GroupId group) const;

    [[nodiscard]] bool knows_group(GroupId group) const { return groups_.contains(group); }
    [[nodiscard]] bool is_member(GroupId group) const;

    /// The current installed view ("groupdetails"), or nullptr before the
    /// first install / after removal.
    [[nodiscard]] const View* current_view(GroupId group) const;
    [[nodiscard]] const GroupConfig* group_config(GroupId group) const;

    void set_deliver_handler(DeliverHandler h) { deliver_handler_ = std::move(h); }
    void set_view_handler(ViewHandler h) { view_handler_ = std::move(h); }
    void set_removed_handler(RemovedHandler h) { removed_handler_ = std::move(h); }

    // -- Diagnostics (tests, benches) -----------------------------------------

    struct GroupStats {
        ViewEpoch epoch{0};
        bool in_view_change{false};
        std::size_t holdback{0};
        std::size_t unstable{0};
        std::uint64_t nulls_sent{0};
        std::uint64_t delivered{0};
    };
    [[nodiscard]] GroupStats group_stats(GroupId group) const;

    /// Total queued work across all of this endpoint's groups: ordering
    /// holdback plus payloads parked behind view changes or window credits.
    /// The invocation layer reads it as an overload signal when deciding
    /// whether to admit new client/server-group bindings.
    [[nodiscard]] std::size_t pending_load() const;

private:
    /// A payload not yet on the wire, in its group's outbox, with the span
    /// it keeps carrying.  It waits there for a send credit or for a view
    /// change to finish.  `kind` is kApplication for ordinary multicasts
    /// and kConfig for a reconfiguration proposal, which waits only for a
    /// view change: it bypasses the credit window and never coalesces.
    struct PendingSend {
        Bytes payload;
        obs::SpanContext span;
        DataKind kind{DataKind::kApplication};
    };

    /// A stream message kept until it is stable, as its GcsMessage wire
    /// frame: the bytes it was sent or received as, so a retransmission
    /// resends them unchanged and a view-change flush decodes them.  The
    /// span stays decoded for the sequencer's turnaround trace.
    struct UnstableMsg {
        Bytes frame;
        obs::SpanContext span;
    };

    struct InboundStream {
        Seqno next_expected{0};
        /// Frames that arrived ahead of a gap, by seq.
        std::map<Seqno, Bytes> out_of_order;
        SimTime last_heard{0};
        /// Delivered prefix of this sender's stream this epoch: last
        /// delivered application (or config) message's seq + 1.  Delivery
        /// per sender is FIFO, so it answers both the cross-group knowledge
        /// barriers and "was (sender, seq) delivered" for the view-change cut.
        Seqno delivered_app_count{0};
        TimerId nack_timer{0};
        /// φ-accrual inter-arrival history: the most recent positive gaps
        /// between this sender's messages (bounded ring, microseconds).
        /// Cleared with the rest of the stream at each view install, so φ
        /// always describes the current view's traffic pattern.
        std::vector<SimDuration> intervals;
        std::size_t interval_next{0};
    };

    /// φ-accrual history bounds: how many inter-arrival gaps the detector
    /// remembers per peer, and how many it needs before trusting the model
    /// (below the minimum it falls back to the fixed suspicion_timeout).
    static constexpr std::size_t kPhiWindow = 32;
    static constexpr std::size_t kPhiMinSamples = 3;

    struct Group {
        GroupId id;
        std::string name;
        GroupConfig config;

        View view;  // installed view; empty members + epoch 0 => skeleton
        bool installed{false};
        SimTime view_installed_at{0};
        enum class State : std::uint8_t { kNormal, kViewChange } state{State::kNormal};

        /// How many reconfigurations this member has installed (0 = the
        /// creation-time config).  Advances only at view installs, never at
        /// proposal delivery — the install *is* the switch point.
        ConfigEpoch config_epoch{0};
        /// A totally-ordered ConfigChangeMsg delivered but not yet honoured
        /// by a view install.  Virtual synchrony makes this agree across
        /// surviving members: all of them delivered the same proposals in
        /// the same order, so all hold the same pending value (last wins)
        /// and the coordinator's copy speaks for everyone.
        struct PendingConfig {
            GroupConfig next;
            std::uint64_t nonce{0};
            SimTime delivered_at{0};  // for the flush-stall histogram
        };
        std::optional<PendingConfig> pending_config;

        // send side
        Seqno next_send_seq{0};
        SimTime last_send_time{0};
        bool ever_sent{false};
        /// Self-clocking for progress nulls: we only null when we have new
        /// information (something arrived since our last send), so two
        /// members waiting on a dead peer ping-pong at network pace instead
        /// of flooding their CPUs.
        bool received_since_send{false};
        /// Timestamp of our latest send in this group.  A progress null is
        /// useful only while this lags the ordering head — once we have
        /// spoken past the head, further nulls cannot unblock anyone.
        Lamport last_sent_ts{0};
        /// knowledge_.version() as of our previous application or config
        /// send in this view: the next one carries only entries changed
        /// since.  0 at every install, so a view's first send carries all.
        KnowledgeStore::Version knowledge_sent_at{0};
        /// Flow control: own application DataMsgs in flight (sent but not
        /// yet self-delivered).  Credit-based — bounded by
        /// config.order_window; each send consumes a credit, each
        /// self-delivery returns one.
        std::size_t inflight_sends{0};
        /// Every payload of this group not yet on the wire, in submission
        /// order: sends awaiting a window credit, drained (coalesced up to
        /// config.order_max_batch per DataMsg) as credits return, and
        /// everything submitted or resubmitted during a view change, which
        /// the install feeds back through submit_send in the new view.
        std::deque<PendingSend> outbox;
        /// Re-entrancy guard for drain_coalesced: a drained send can
        /// deliver synchronously (single-member group), returning a credit
        /// and re-triggering this group's drain mid-loop.  Per group: a
        /// drain here can release our own barrier-held message in another
        /// group, whose returned credit must still drain that group.
        bool draining{false};

        // receive side
        std::map<EndpointId, InboundStream> inbound;
        /// delivered_app_count of our own stream (which has no InboundStream).
        Seqno own_delivered_count{0};
        std::deque<DataMsg> release_queue;  // ordered, awaiting cross-group barrier
        /// Barrier entries about groups we were still joining, by the
        /// sender whose delivered messages carried them.  That sender's
        /// later messages in this view leave them out (it sent them
        /// already), yet they bind those messages once our join installs.
        std::map<EndpointId, std::vector<KnowledgeEntry>> joining_barriers;
        std::map<MsgRef, UnstableMsg> unstable;  // own + received, this epoch

        /// The ordering engine for config.order, rebuilt at every install.
        OrderEngine engine;

        // stability
        std::map<EndpointId, std::map<EndpointId, Seqno>> stability_reports;

        /// Pending end-of-event-step ORDER flush (sequencer only): all data
        /// refs assigned while this is armed ride one multi-assignment ORDER
        /// broadcast instead of one broadcast each.
        TimerId order_flush_timer{0};

        // liveness timers
        TimerId silence_timer{0};
        TimerId progress_timer{0};
        TimerId suspicion_timer{0};
        TimerId stability_timer{0};
        /// Event-driven groups shut the mechanisms down while idle; when
        /// they wake up, suspicion must not look at silence accumulated
        /// while they were off.
        bool liveness_active{false};
        SimTime active_since{0};

        // membership
        std::set<EndpointId> suspects;
        std::set<EndpointId> pending_joiners;
        std::set<EndpointId> pending_leavers;
        /// Ground truth for the detector's scoreboard: when each live
        /// suspicion was raised.  A later message from the suspect refutes
        /// it (gcs.suspicion_false); a view removing a suspect still listed
        /// here confirms it (gcs.suspicion_true).
        std::map<EndpointId, SimTime> suspected_at;

        // view-change round
        ViewEpoch vc_epoch{0};
        EndpointId vc_coordinator;
        bool leading{false};
        std::vector<EndpointId> vc_members;      // proposed membership
        std::set<EndpointId> vc_expected_flush;  // old members we await
        std::set<EndpointId> vc_flushed;
        std::map<MsgRef, DataMsg> vc_cut;
        std::map<std::uint64_t, MsgRef> vc_orders;
        TimerId vc_timer{0};

        // counters
        std::uint64_t nulls_sent{0};
        std::uint64_t delivered_count{0};
    };

    class GcsServant;

    // -- wiring (endpoint.cpp) -------------------------------------------------
    /// Crash-stop: a dead process executes nothing.  Timer callbacks and
    /// message handlers bail out through this so a crashed node can never
    /// mutate shared state (e.g. the directory) again.  Incarnation-aware:
    /// stays true for this endpoint after its node restarts, because the
    /// reborn process is a fresh endpoint and this one is gone for good.
    [[nodiscard]] bool process_crashed() const;
    /// The world's metrics registry (owned by the Network).
    [[nodiscard]] obs::MetricsRegistry& metrics() const;
    void on_wire(BytesView payload);
    /// Ship one encoded GcsMessage (encode_gcs_message) to `to`, or to
    /// every other member of g's view.
    void send_wire(EndpointId to, const Bytes& wire);
    void multicast_wire(const Group& g, const Bytes& wire);
    Group* find_group(GroupId id);
    const Group* find_group(GroupId id) const;
    /// The group a timer or deferred step fires for, or nullptr once this
    /// process has crashed or the group is gone.
    Group* live_group(GroupId id);
    Group& ensure_skeleton(GroupId id);

    // -- data path (endpoint.cpp) -----------------------------------------------
    /// The one "send now, or queue" decision: a payload waits in g.outbox
    /// during a view change (or before our first install) and, for
    /// application payloads, while the credit window is full.
    void submit_send(Group& g, PendingSend send);
    void drain_coalesced(Group& g);
    /// A fresh synthetic root span for traffic no invocation started.
    obs::SpanContext synthetic_root_span();
    void send_data(Group& g, DataKind kind, Bytes payload, obs::SpanContext span = {},
                   std::vector<Bytes> batch = {}, std::vector<obs::SpanContext> batch_spans = {});
    /// `frame` is the GcsMessage wire frame `msg` was decoded from.
    void handle_data(DataMsg msg, BytesView frame);
    void handle_nack(const NackMsg& msg);
    void note_payload_arrival(const DataMsg& msg);
    /// One `kind` trace event per payload msg carries (the head, then each
    /// coalesced follower), all naming msg's {epoch, sender, seq} ref.
    void trace_payloads(obs::TraceKind kind, const DataMsg& msg);
    void ingest_in_order(Group& g, DataMsg msg, Bytes frame);
    void pump(Group& g);
    void schedule_order_flush(Group& g);
    void flush_order(Group& g);
    void on_order_flush(GroupId id);
    void try_release(Group& g);
    void try_release_all();
    /// Where one cross-group barrier entry of a message in `carrier` stands.
    enum class Barrier : std::uint8_t {
        kMet,      // satisfied, or about nothing this member waits for
        kBlocked,  // waits for a delivery or an install here
        kJoining,  // about a group we are joining: binds once we are in
    };
    [[nodiscard]] Barrier barrier_state(GroupId carrier, const KnowledgeEntry& entry) const;
    /// Whether we have a join in flight for `group`.
    [[nodiscard]] bool joining(GroupId group) const;
    /// Whether msg's own entries, and those its sender carried earlier
    /// while we were joining their group (g.joining_barriers), are met.
    [[nodiscard]] bool barrier_satisfied(const Group& g, const DataMsg& msg) const;
    /// After msg's barrier passed: keep, for its sender, the entries that
    /// are about a group we are still joining.
    void hold_joining_barriers(Group& g, const DataMsg& msg);
    void deliver_to_app(Group& g, DataMsg msg);
    /// Agreed delivery of a DataKind::kConfig message: decode the proposal,
    /// arm pending_config (last-wins across the totally-ordered stream) and
    /// trigger the flush-delimited view change that will honour it.
    void apply_config_delivery(Group& g, const DataMsg& msg);
    void schedule_nack(Group& g, EndpointId sender);
    void send_nack(GroupId group_id, EndpointId sender);

    // -- liveness (endpoint_liveness.cpp) ----------------------------------------
    [[nodiscard]] bool mechanisms_active(const Group& g) const;
    void kick_liveness(Group& g);
    void stop_liveness(Group& g);
    void send_null(Group& g);
    void on_silence_timer(GroupId id);
    void on_progress_timer(GroupId id);
    void on_suspicion_scan(GroupId id);
    void on_stability_tick(GroupId id);
    void apply_stability_report(Group& g, EndpointId reporter,
                                const std::vector<std::pair<EndpointId, Seqno>>& counts);
    void recompute_stability(Group& g);
    [[nodiscard]] std::vector<std::pair<EndpointId, Seqno>> received_counts(const Group& g) const;
    /// How far we hold `sender`'s stream contiguously (our own: all we sent).
    [[nodiscard]] Seqno received_count(const Group& g, EndpointId sender) const;
    /// φ-accrual suspicion level of `silence` against the stream's history
    /// (0 when the history is too thin to model).
    [[nodiscard]] static double phi_of(const InboundStream& stream, SimDuration silence);
    /// The detector's verdict for one peer: fixed-timeout when accrual is
    /// disabled or the history too thin, otherwise the φ rule bounded by
    /// the floor (= suspicion_timeout by default) and ceiling.
    [[nodiscard]] static bool suspicion_due(const GroupConfig& config,
                                            const InboundStream* stream, SimDuration silence);
    /// Lazily register the sampled "gcs.phi.<peer>" gauge for a peer.
    void ensure_phi_gauge(EndpointId peer);
    /// Max milli-φ for `peer` across this endpoint's groups at time `at`.
    [[nodiscard]] std::uint64_t sample_phi_milli(EndpointId peer, SimTime at) const;

    // -- membership (endpoint_membership.cpp) -------------------------------------
    void install_first_view(Group& g);
    void handle_join(const JoinReq& msg);
    void handle_leave(const LeaveReq& msg);
    void handle_suspect(const SuspectMsg& msg);
    void handle_propose(const ProposeMsg& msg);
    void handle_flush(const FlushMsg& msg);
    void handle_install(const InstallMsg& msg);
    void note_suspect(Group& g, EndpointId suspect, bool broadcast);
    void maybe_start_view_change(Group& g);
    void begin_round(Group& g);
    void enter_view_change(Group& g, ViewEpoch new_epoch, EndpointId coordinator);
    /// Deterministic coordinator: the lowest-ranked member we do not suspect.
    [[nodiscard]] EndpointId first_unsuspected(const Group& g) const;
    /// Our flush contribution: every unstable frame decoded, plus the
    /// sequencer's assignment log.
    [[nodiscard]] FlushMsg make_flush(const Group& g, ViewEpoch new_epoch,
                                      EndpointId coordinator) const;
    void add_flush(Group& g, EndpointId sender, std::vector<DataMsg> unstable,
                   const std::vector<std::pair<std::uint64_t, MsgRef>>& orders);
    void finish_if_flushes_complete(Group& g);
    void deliver_cut(Group& g, const InstallMsg& msg);
    void install_view(Group& g, const InstallMsg& msg);
    void resubmit_undelivered(Group& g, Seqno own_delivered);
    /// Delivered prefix of `sender`'s stream in g's current epoch.
    [[nodiscard]] Seqno delivered_prefix(const Group& g, EndpointId sender) const;
    /// Record the delivery of `msg` in its sender's delivered prefix.
    void advance_delivered_prefix(Group& g, const DataMsg& msg);
    /// Adaptive ordering policy: after an install, the leader of a group
    /// with adaptive_asym_threshold > 0 proposes a switch to the sequencer
    /// protocol when membership reaches the threshold (and back to the
    /// symmetric protocol below it).  No-op for causal groups, non-leaders,
    /// or when a proposal is already pending.
    void maybe_adapt_order(Group& g);
    void on_adapt_order(GroupId id);
    /// The order mode the adaptive policy wants g switched to, if any.
    [[nodiscard]] std::optional<OrderMode> adaptive_order_target(const Group& g) const;
    void on_vc_timeout(GroupId id);
    void on_join_retry(const std::string& name);

    Orb* orb_;
    Directory* directory_;
    EndpointId id_;
    Ior service_ior_;
    Lamport clock_{0};
    /// Counts bare multicasts (no caller span) for synthetic trace ids.
    std::uint64_t multicast_seq_{0};
    /// Per-proposer reconfiguration counter; combined with the endpoint id
    /// it makes every ConfigChangeMsg nonce unique group-wide, so members
    /// can tell exactly which pending proposal an install honoured.
    std::uint64_t reconfig_seq_{0};
    /// Registry the gauges below registered with, cached so the destructor
    /// can unregister without reaching through the orb (the registry, owned
    /// by the network, outlives every endpoint generation).
    obs::MetricsRegistry* gauge_registry_{nullptr};
    std::vector<obs::GaugeHandle> gauges_;
    /// Peers whose "gcs.phi.<peer>" gauge is already registered (handles
    /// live in gauges_ and unregister with the rest).
    std::set<EndpointId> phi_gauge_peers_;

    std::map<GroupId, Group> groups_;
    /// Cross-group causal knowledge, shared by all of this endpoint's groups.
    KnowledgeStore knowledge_;
    /// Joins awaiting completion: group name -> retry timer.
    std::map<std::string, TimerId> pending_joins_;

    DeliverHandler deliver_handler_;
    ViewHandler view_handler_;
    RemovedHandler removed_handler_;
};

}  // namespace newtop
