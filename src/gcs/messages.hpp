// Wire messages of the group communication protocol.
//
// Every message is serialized and shipped as a oneway ORB invocation to the
// peer endpoint's GCS servant, reproducing the paper's architecture where
// NewTop-internal traffic itself travels as CORBA invocations (fig. 2).
// Each struct's `wire` function is its one field list, driven by both the
// encoder and the decoder (serial/encoder.hpp).
#pragma once

#include <cstdint>
#include <variant>
#include <vector>

#include "gcs/types.hpp"
#include "gcs/view.hpp"
#include "obs/trace.hpp"
#include "serial/serial.hpp"

namespace newtop {

/// A (group, sender, seqno) coordinate naming one data message.
struct MsgRef {
    EndpointId sender;
    Seqno seq{0};

    friend auto operator<=>(const MsgRef&, const MsgRef&) = default;
};

void wire(auto& io, WireOf<MsgRef> auto& v) { io(v.sender, v.seq); }

void wire(auto& io, WireOf<obs::SpanContext> auto& v) { io(v.trace, v.span); }

/// One entry of a causal-knowledge vector: "I know (directly or
/// transitively) that in epoch `epoch` of `group`, `sender` has sent at
/// least `count` stream messages, the last of which was an application
/// message".  Receivers that are members of `group` must not deliver a
/// message carrying this entry before having delivered that prefix — this
/// is what preserves causality *across* overlapping groups (the fig. 7
/// guarantee).
struct KnowledgeEntry {
    GroupId group;
    ViewEpoch epoch{0};
    EndpointId sender;
    Seqno count{0};

    friend auto operator<=>(const KnowledgeEntry&, const KnowledgeEntry&) = default;
};

void wire(auto& io, WireOf<KnowledgeEntry> auto& v) { io(v.group, v.epoch, v.sender, v.count); }

enum class DataKind : std::uint8_t {
    kApplication = 0,
    /// Time-silence "I am alive" null; carries the sender's stability
    /// vector instead of an application payload.  Nulls are ephemeral:
    /// they consume no stream seqno and are never retransmitted (their
    /// information is monotone, so losing one is harmless).
    kNull = 1,
    /// An asymmetric-order record from the sequencer (an encoded OrderMsg
    /// as payload).  Rides the sequencer's reliable stream so order records
    /// inherit FIFO delivery and NACK-based recovery.
    kOrder = 2,
    /// A reconfiguration proposal (an encoded ConfigChangeMsg as payload).
    /// Ordered exactly like application data — it consumes a stream seqno,
    /// is retransmitted, held back and cut-delivered — so every member
    /// agrees on its position in the total order; its delivery arms the
    /// flush-delimited configuration view change.
    kConfig = 3,
};
constexpr DataKind wire_max(DataKind) { return DataKind::kConfig; }

/// Returns true for kinds the ordering engines hold back and deliver in
/// the agreed total order (application payloads and in-stream config
/// proposals); false for nulls and sequencer order records, which are
/// consumed by the protocol itself at ingest.
[[nodiscard]] constexpr bool orders_like_app(DataKind kind) {
    return kind == DataKind::kApplication || kind == DataKind::kConfig;
}

/// An application multicast or a time-silence null.
struct DataMsg {
    GroupId group;
    ViewEpoch epoch{0};
    EndpointId sender;
    Seqno seq{0};
    Lamport ts{0};
    DataKind kind{DataKind::kApplication};
    /// Cross-group causal barriers (only entries for groups other than
    /// `group`; in-group causality is covered by FIFO channels + ts).
    std::vector<KnowledgeEntry> knowledge;
    /// Application payload (kApplication) — empty for nulls.
    Bytes payload;
    /// Additional application payloads coalesced under this message's one
    /// stream slot while the sender's flow-control window was full.  Each
    /// is delivered as its own application message, in order, immediately
    /// after `payload`; the batch shares the message's (sender, seq) ref,
    /// so ordering, stability and view-change cuts treat it atomically.
    std::vector<Bytes> batch;
    /// Stability piggyback: per member of the current view, how many of
    /// that member's stream messages this sender has received contiguously
    /// from 0.  Carried on nulls; empty on application data.
    std::vector<std::pair<EndpointId, Seqno>> received_counts;
    /// Causal dependency vector (kCausal groups only): per member, how many
    /// of that member's application messages the sender had delivered when
    /// it sent this one.
    std::vector<std::pair<EndpointId, Seqno>> causal_vc;
    /// Simulated send time, stamped by the sender; the receiver's delivery
    /// latency histogram (gcs.delivery_latency_us) is deliver-time minus
    /// this.  Sim time is global, so no clock-skew correction is needed.
    SimTime sent_at{0};
    /// Causal span of `payload` (zero trace outside any profiled chain).
    /// Riding the wire lets receivers tie arrival/delivery phase events to
    /// the originating invocation — the backbone of latency attribution.
    obs::SpanContext span;
    /// Span of each coalesced payload in `batch` (same length, or empty
    /// when no batch entry carries a span).
    std::vector<obs::SpanContext> batch_spans;
};

void wire(auto& io, WireOf<DataMsg> auto& v) {
    io(v.group, v.epoch, v.sender, v.seq, v.ts, v.kind, v.knowledge, v.payload, v.batch,
       v.received_counts, v.causal_vc, v.sent_at, v.span, v.batch_spans);
}

void wire(auto& io, WireOf<GroupConfig> auto& v) {
    io(v.order, v.liveness, v.time_silence, v.ack_delay, v.suspicion_timeout,
       v.view_change_timeout, v.stability_period, v.order_window, v.order_max_batch,
       v.adaptive_asym_threshold, v.phi_threshold_milli, v.phi_floor, v.phi_ceiling);
}

/// A runtime reconfiguration proposal, shipped as the payload of a
/// DataKind::kConfig stream message so it is totally ordered against the
/// application traffic it delimits.  Delivery does not switch anything by
/// itself: it records the proposal and triggers a flush-delimited view
/// change whose InstallMsg carries the agreed config — the switch point is
/// the view cut, never the proposal's own delivery.
struct ConfigChangeMsg {
    GroupId group;
    /// The complete requested configuration (absolute, not a delta).
    GroupConfig next;
    /// Proposer-unique token; the InstallMsg that applies this proposal
    /// echoes it so members can retire exactly the pending proposal that
    /// was honoured (a proposal delivered inside the cut of an unrelated
    /// view change stays pending and re-arms a follow-up round).
    std::uint64_t nonce{0};

    friend bool operator==(const ConfigChangeMsg&, const ConfigChangeMsg&) = default;
};

void wire(auto& io, WireOf<ConfigChangeMsg> auto& v) { io(v.group, v.next, v.nonce); }

/// Retransmission request: "resend your messages with these seqnos".
struct NackMsg {
    GroupId group;
    ViewEpoch epoch{0};
    EndpointId requester;
    std::vector<Seqno> missing;
};

void wire(auto& io, WireOf<NackMsg> auto& v) { io(v.group, v.epoch, v.requester, v.missing); }

/// Asymmetric-order record from the sequencer: refs[i] is the message with
/// global order number `first_order + i`.  Travels as the payload of a
/// DataKind::kOrder message on the sequencer's stream.
struct OrderRecord {
    std::uint64_t first_order{0};
    std::vector<MsgRef> refs;
};

void wire(auto& io, WireOf<OrderRecord> auto& v) { io(v.first_order, v.refs); }

/// An order record as a GCS message of its own.  Endpoints ignore it: order
/// records ride the sequencer's stream (see OrderRecord).
struct OrderMsg {
    GroupId group;
    ViewEpoch epoch{0};
    OrderRecord record;
};

void wire(auto& io, WireOf<OrderMsg> auto& v) { io(v.group, v.epoch, v.record); }

/// Ask a current member to bring `joiner` into the group.
struct JoinReq {
    GroupId group;
    EndpointId joiner;
};

void wire(auto& io, WireOf<JoinReq> auto& v) { io(v.group, v.joiner); }

/// Ask the group to let `leaver` go.
struct LeaveReq {
    GroupId group;
    EndpointId leaver;
};

void wire(auto& io, WireOf<LeaveReq> auto& v) { io(v.group, v.leaver); }

/// Gossip that `suspects` are believed failed (drives everyone's suspicion
/// state toward agreement so the same coordinator is chosen).
struct SuspectMsg {
    GroupId group;
    ViewEpoch epoch{0};
    EndpointId reporter;
    std::vector<EndpointId> suspects;
};

void wire(auto& io, WireOf<SuspectMsg> auto& v) { io(v.group, v.epoch, v.reporter, v.suspects); }

/// A view-change round is identified by (new_epoch, coordinator); higher
/// pairs supersede lower ones.
struct ProposeMsg {
    GroupId group;
    ViewEpoch old_epoch{0};
    ViewEpoch new_epoch{0};
    EndpointId coordinator;
    std::vector<EndpointId> proposed_members;
};

void wire(auto& io, WireOf<ProposeMsg> auto& v) {
    io(v.group, v.old_epoch, v.new_epoch, v.coordinator, v.proposed_members);
}

/// Flush reply: everything the member has received in the old epoch that
/// is not yet known stable, so the coordinator can compute a common cut.
/// `orders` reports the member's known sequencer assignments (asymmetric
/// groups) so the cut can be delivered in the agreed total order.
struct FlushMsg {
    GroupId group;
    ViewEpoch new_epoch{0};
    EndpointId coordinator;  // round this flush answers
    EndpointId sender;
    std::vector<DataMsg> unstable;
    std::vector<std::pair<std::uint64_t, MsgRef>> orders;
};

void wire(auto& io, WireOf<FlushMsg> auto& v) {
    io(v.group, v.new_epoch, v.coordinator, v.sender, v.unstable, v.orders);
}

/// Install the new view.  `cut` is the union of unstable messages; members
/// of the old view deliver any of them not yet delivered — first those with
/// sequencer assignments in `orders` (in assignment order), then the rest
/// in (ts, sender) order — before switching to the new view.
struct InstallMsg {
    GroupId group;
    View view;
    EndpointId coordinator;
    std::vector<DataMsg> cut;
    std::vector<std::pair<std::uint64_t, MsgRef>> orders;
    /// The configuration every member of `view` runs from the instant the
    /// view is installed (pre-cut traffic is still delivered under the old
    /// one).  Carrying the full config in the install keeps joiners and
    /// recovering members correct even when their directory copy is stale.
    GroupConfig config;
    /// Monotonic configuration number matching `config`; bumps only when a
    /// pending ConfigChangeMsg is honoured by this install.
    ConfigEpoch config_epoch{0};
    /// Nonce of the ConfigChangeMsg this install applies (0 when the view
    /// change carried the old config forward unchanged).
    std::uint64_t applied_nonce{0};
};

void wire(auto& io, WireOf<InstallMsg> auto& v) {
    io(v.group, v.view, v.coordinator, v.cut, v.orders, v.config, v.config_epoch,
       v.applied_nonce);
}

/// On the wire the variant's tag is the alternative's index + 1, so the
/// order of this list is part of the wire format.
using GcsMessage = std::variant<DataMsg, NackMsg, OrderMsg, JoinReq, LeaveReq, SuspectMsg,
                                ProposeMsg, FlushMsg, InstallMsg>;

inline Bytes encode_gcs_message(const GcsMessage& msg) { return encode_to_bytes(msg); }
/// One message encoded exactly as the GcsMessage holding it, without
/// building (and copying it into) a GcsMessage.
template <typename T>
    requires std::is_constructible_v<GcsMessage, std::in_place_type_t<T>, const T&>
Bytes encode_gcs_message(const T& body) {
    return encode_to_bytes(AsAlternative<GcsMessage, T>{body});
}
inline GcsMessage decode_gcs_message(BytesView wire) {
    return decode_from_bytes<GcsMessage>(wire);
}
/// The DataMsg in a frame that encode_gcs_message(DataMsg) wrote.
inline DataMsg decode_data_frame(BytesView wire) {
    return std::get<DataMsg>(decode_gcs_message(wire));
}

}  // namespace newtop
