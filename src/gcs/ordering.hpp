// Message-ordering engines.
//
// Each group holds one engine (§3 of the paper), rebuilt by make_order_engine()
// from the installed config at every view install:
//
//  * SymmetricOrder — causality-preserving total order by (Lamport ts,
//    sender id).  A message is deliverable once every other member has been
//    heard from with a later timestamp; idle members keep the order
//    advancing with time-silence nulls.
//  * SequencerOrder — the asymmetric protocol: the lowest-ranked view
//    member assigns global order numbers and multicasts them.
//  * CausalOrder — causal delivery only, via per-group dependency vectors.
//
// Engines are pure ordering state machines: they are fed FIFO-contiguous
// messages (gap recovery happens upstream) and emit batches of deliverable
// messages.  Keeping them free of I/O makes them directly unit-testable.
#pragma once

#include <algorithm>
#include <map>
#include <optional>
#include <variant>
#include <vector>

#include "gcs/messages.hpp"
#include "gcs/types.hpp"

namespace newtop {

/// Symmetric total order.  Deterministic rule shared by all members:
/// deliver pending messages in (ts, sender) order, releasing the head once
/// no member can still produce an earlier-ordered message.
class SymmetricOrder {
public:
    /// Fresh ordering state for one view's membership.  The memberless
    /// default is the placeholder a group holds before its first install.
    explicit SymmetricOrder(const std::vector<EndpointId>& members = {});

    /// Feed one FIFO-contiguous message (application or null) from a
    /// current member; the engine keeps what it holds back.  Nulls advance
    /// the order but are not delivered.
    void on_data(DataMsg msg);

    /// Messages now deliverable, in delivery order.
    std::vector<DataMsg> take_deliverable();

    /// True if application messages are still waiting to be ordered —
    /// drives the event-driven time-silence mechanism: while someone's
    /// message is held back, everyone must keep nulling.
    [[nodiscard]] bool has_pending() const { return !holdback_.empty(); }

    /// Number of application messages currently held back (diagnostics).
    [[nodiscard]] std::size_t pending_count() const { return holdback_.size(); }

    /// Lowest timestamp this engine still considers undeliverable (for
    /// diagnostics/tests).
    [[nodiscard]] std::optional<Lamport> head_ts() const;

    /// Remove and return everything still held back (view-change flush).
    std::vector<DataMsg> drain_pending();

private:
    struct Key {
        Lamport ts;
        EndpointId sender;
        friend auto operator<=>(const Key&, const Key&) = default;
    };

    [[nodiscard]] bool deliverable(const Key& key) const;

    std::map<Key, DataMsg> holdback_;
    std::map<EndpointId, Lamport> latest_ts_;
};

/// Asymmetric total order.  The sequencer assigns consecutive order
/// numbers to application messages as it receives them; everyone delivers
/// in order-number sequence once both the data and its order record are
/// present.  The sequencer's own messages are ordered with zero extra hops
/// — the property the restricted-group optimisation (§4.2) exploits.
class SequencerOrder {
public:
    /// Fresh ordering state for one view's membership (non-empty, sorted);
    /// `self` determines the sequencer role.
    SequencerOrder(const std::vector<EndpointId>& members, EndpointId self);

    [[nodiscard]] bool is_sequencer() const { return self_ == sequencer_; }
    [[nodiscard]] EndpointId sequencer() const { return sequencer_; }

    /// Feed one FIFO-contiguous message; the engine keeps what it holds
    /// back.  Nulls bypass ordering.
    void on_data(DataMsg msg);

    /// Feed an order record from the sequencer.
    void on_order(const OrderRecord& order);

    /// If this member is the sequencer and new assignments were made,
    /// returns the order record to multicast, covering at most `max_refs`
    /// fresh assignments (0 = all of them).  Call repeatedly to drain.
    std::optional<OrderRecord> take_order_to_send(std::size_t max_refs = 0);

    /// Assignments made but not yet handed out for broadcast — the batch an
    /// ORDER flush would cover.
    [[nodiscard]] std::size_t fresh_count() const { return fresh_assignments_.size(); }

    /// Messages now deliverable, in global order.
    std::vector<DataMsg> take_deliverable();

    [[nodiscard]] bool has_pending() const {
        return !data_store_.empty() || !assignment_.empty();
    }

    /// Number of distinct application messages awaiting order or data
    /// (diagnostics).  The two pending sets can be disjoint — data waiting
    /// for its order record, and assigned order numbers whose data has not
    /// arrived — so this counts their union, not the larger of the two.
    [[nodiscard]] std::size_t pending_count() const {
        std::size_t n = data_store_.size();
        for (const auto& [order, ref] : assignment_) {
            if (!data_store_.contains(ref)) ++n;
        }
        return n;
    }

    /// All *broadcast* assignments learned this epoch (including delivered
    /// ones) — the view-change flush reports these so the cut preserves
    /// sequencer order.  Assignments whose order record was never taken for
    /// sending are deliberately absent: no other member can have delivered
    /// by them, and the cut's (ts, sender) fallback must win instead.
    [[nodiscard]] const std::map<std::uint64_t, MsgRef>& assignment_log() const { return log_; }

    /// Remove and return everything still held back (view-change flush).
    std::vector<DataMsg> drain_pending();

private:
    /// Sequencer: how many assignments take_order_to_send has handed out
    /// (orders [0, handed_out()) are in log_).
    [[nodiscard]] std::uint64_t handed_out() const {
        return next_assign_ - fresh_assignments_.size();
    }

    EndpointId self_;
    EndpointId sequencer_;
    std::uint64_t next_assign_{0};   // sequencer: next order number to hand out
    std::uint64_t next_deliver_{0};  // everyone: next order number to deliver
    std::vector<MsgRef> fresh_assignments_;
    std::map<std::uint64_t, MsgRef> assignment_;  // order number -> undelivered message
    std::map<std::uint64_t, MsgRef> log_;         // order number -> message (whole epoch)
    std::map<MsgRef, DataMsg> data_store_;        // undelivered data
    /// Per sender, the highest seq fed to on_data this epoch.  The feed is
    /// FIFO, so a message at it is a repeat (a redundant retransmission)
    /// and one below it breaks the engine contract.  A repeat must not
    /// reach the assignment path: a second order slot for the same ref can
    /// never be satisfied once the first delivery consumed the data,
    /// wedging delivery forever.
    std::map<EndpointId, Seqno> highest_seen_;
};

/// Causal order via dependency vectors: message m carries, per member, how
/// many of that member's messages the sender had delivered; m is delivered
/// once the local count matches.
class CausalOrder {
public:
    /// Fresh ordering state for one view's membership.
    explicit CausalOrder(const std::vector<EndpointId>& members);

    /// Feed one message; the engine keeps what it holds back.
    void on_data(DataMsg msg);

    std::vector<DataMsg> take_deliverable();

    /// Snapshot of delivered counts, to stamp onto outgoing messages.
    [[nodiscard]] std::vector<std::pair<EndpointId, Seqno>> delivered_vector() const;

    [[nodiscard]] bool has_pending() const { return !pending_.empty(); }

    /// Number of messages whose causal dependencies are unmet (diagnostics).
    [[nodiscard]] std::size_t pending_count() const { return pending_.size(); }

    /// Remove and return everything still held back (view-change flush).
    std::vector<DataMsg> drain_pending();

private:
    [[nodiscard]] bool satisfied(const DataMsg& msg) const;

    std::map<EndpointId, Seqno> delivered_count_;
    std::vector<DataMsg> pending_;
};

/// A group's one ordering engine; only make_order_engine() picks the
/// alternative.  Mode-specific calls go through std::get_if, the operations
/// every engine has through the helpers below.
using OrderEngine = std::variant<SymmetricOrder, SequencerOrder, CausalOrder>;

/// The engine `mode` selects, with fresh state for a view of `members`.
[[nodiscard]] OrderEngine make_order_engine(OrderMode mode, const std::vector<EndpointId>& members,
                                            EndpointId self);

/// Feed one message, moved into the engine that holds it back.
inline void on_data(OrderEngine& engine, DataMsg msg) {
    std::visit([&](auto& e) { e.on_data(std::move(msg)); }, engine);
}
inline std::vector<DataMsg> take_deliverable(OrderEngine& engine) {
    return std::visit([](auto& e) { return e.take_deliverable(); }, engine);
}
[[nodiscard]] inline bool has_pending(const OrderEngine& engine) {
    return std::visit([](const auto& e) { return e.has_pending(); }, engine);
}
/// The group's holdback: application messages the engine still withholds.
[[nodiscard]] inline std::size_t pending_count(const OrderEngine& engine) {
    return std::visit([](const auto& e) { return e.pending_count(); }, engine);
}
inline std::vector<DataMsg> drain_pending(OrderEngine& engine) {
    return std::visit([](auto& e) { return e.drain_pending(); }, engine);
}

}  // namespace newtop
