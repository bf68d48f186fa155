#include <gtest/gtest.h>

#include <string>
#include <variant>
#include <vector>

#include "gcs/ordering.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace newtop {
namespace {

DataMsg data(EndpointId sender, Seqno seq, Lamport ts,
             DataKind kind = DataKind::kApplication) {
    DataMsg m;
    m.group = GroupId(1);
    m.epoch = 1;
    m.sender = sender;
    m.seq = seq;
    m.ts = ts;
    m.kind = kind;
    m.payload = Bytes{static_cast<std::uint8_t>(ts)};
    return m;
}

std::vector<std::pair<Lamport, EndpointId>> keys(const std::vector<DataMsg>& msgs) {
    std::vector<std::pair<Lamport, EndpointId>> out;
    for (const auto& m : msgs) out.emplace_back(m.ts, m.sender);
    return out;
}

const EndpointId kA{1}, kB{2}, kC{3};

// -- SymmetricOrder ------------------------------------------------------------

TEST(SymmetricOrder, HoldsUntilAllMembersHeardFrom) {
    SymmetricOrder order({kA, kB, kC});
    order.on_data(data(kA, 0, 5));
    EXPECT_TRUE(order.take_deliverable().empty());  // B and C silent
    order.on_data(data(kB, 0, 7));
    EXPECT_TRUE(order.take_deliverable().empty());  // C still silent
    order.on_data(data(kC, 0, 6, DataKind::kNull));
    // Now everyone has spoken past ts 5: A's message releases; B's (ts 7)
    // still waits on C (only heard ts 6) and A.
    const auto batch = order.take_deliverable();
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(batch[0].sender, kA);
}

TEST(SymmetricOrder, DeliversInTimestampOrderRegardlessOfArrival) {
    SymmetricOrder order({kA, kB, kC});
    order.on_data(data(kB, 0, 9));
    order.on_data(data(kA, 0, 3));
    order.on_data(data(kC, 0, 12));
    order.on_data(data(kA, 1, 13, DataKind::kNull));
    order.on_data(data(kB, 1, 14, DataKind::kNull));
    const auto batch = order.take_deliverable();
    EXPECT_EQ(keys(batch), (std::vector<std::pair<Lamport, EndpointId>>{{3, kA}, {9, kB}, {12, kC}}));
}

TEST(SymmetricOrder, TimestampTieBrokenBySenderId) {
    SymmetricOrder order({kA, kB});
    order.on_data(data(kB, 0, 5));
    order.on_data(data(kA, 0, 5));
    const auto batch = order.take_deliverable();
    EXPECT_EQ(keys(batch), (std::vector<std::pair<Lamport, EndpointId>>{{5, kA}, {5, kB}}));
}

TEST(SymmetricOrder, NullsAdvanceOrderButAreNotDelivered) {
    SymmetricOrder order({kA, kB});
    order.on_data(data(kA, 0, 1));
    order.on_data(data(kB, 0, 2, DataKind::kNull));
    const auto batch = order.take_deliverable();
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(batch[0].sender, kA);
    EXPECT_FALSE(order.has_pending());
}

TEST(SymmetricOrder, SingleMemberDeliversImmediately) {
    SymmetricOrder order({kA});
    order.on_data(data(kA, 0, 1));
    EXPECT_EQ(order.take_deliverable().size(), 1u);
}

TEST(SymmetricOrder, RejectsNonMember) {
    SymmetricOrder order({kA, kB});
    EXPECT_THROW(order.on_data(data(kC, 0, 1)), PreconditionError);
}

TEST(SymmetricOrder, DrainPendingEmptiesHoldback) {
    SymmetricOrder order({kA, kB});
    order.on_data(data(kA, 0, 5));
    const auto drained = order.drain_pending();
    ASSERT_EQ(drained.size(), 1u);
    EXPECT_FALSE(order.has_pending());
}

TEST(SymmetricOrder, AgreementProperty) {
    // Two replicas of the engine fed the same messages in different arrival
    // orders deliver identical sequences.
    Rng rng(77);
    for (int iter = 0; iter < 50; ++iter) {
        std::vector<DataMsg> msgs;
        Lamport ts = 1;
        for (EndpointId m : {kA, kB, kC}) {
            const Seqno n = rng.next_in(1, 4);
            for (Seqno s = 0; s < n; ++s) msgs.push_back(data(m, s, ts++));
        }
        // Close the round so everything can deliver.
        msgs.push_back(data(kA, 99, ts + 1, DataKind::kNull));
        msgs.push_back(data(kB, 99, ts + 2, DataKind::kNull));
        msgs.push_back(data(kC, 99, ts + 3, DataKind::kNull));

        auto run = [&](std::uint64_t seed) {
            // Shuffle preserving per-sender FIFO order (the engine contract).
            std::vector<std::vector<DataMsg>> by_sender(4);
            for (const auto& m : msgs) by_sender[m.sender.value()].push_back(m);
            SymmetricOrder order({kA, kB, kC});
            Rng pick(seed);
            std::vector<std::size_t> cursor(4, 0);
            std::vector<std::pair<Lamport, EndpointId>> delivered;
            while (true) {
                std::vector<std::size_t> ready;
                for (std::size_t i = 1; i <= 3; ++i) {
                    if (cursor[i] < by_sender[i].size()) ready.push_back(i);
                }
                if (ready.empty()) break;
                const auto i = ready[pick.next_in(0, ready.size() - 1)];
                order.on_data(by_sender[i][cursor[i]++]);
                for (const auto& d : order.take_deliverable()) {
                    delivered.emplace_back(d.ts, d.sender);
                }
            }
            return delivered;
        };
        const auto a = run(iter * 2 + 1);
        const auto b = run(iter * 2 + 2);
        EXPECT_EQ(a, b);
        EXPECT_EQ(a.size(), msgs.size() - 3);  // all app messages delivered
        EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
    }
}

// -- SequencerOrder ------------------------------------------------------------

TEST(SequencerOrder, LowestMemberIsSequencer) {
    SequencerOrder order({kA, kB, kC}, kB);
    EXPECT_EQ(order.sequencer(), kA);
    EXPECT_FALSE(order.is_sequencer());
    order = SequencerOrder({kA, kB, kC}, kA);
    EXPECT_TRUE(order.is_sequencer());
}

TEST(SequencerOrder, SequencerAssignsAndDeliversImmediately) {
    SequencerOrder order({kA, kB}, kA);
    order.on_data(data(kB, 0, 1));
    const auto to_send = order.take_order_to_send();
    ASSERT_TRUE(to_send.has_value());
    EXPECT_EQ(to_send->first_order, 0u);
    ASSERT_EQ(to_send->refs.size(), 1u);
    EXPECT_EQ(to_send->refs[0], (MsgRef{kB, 0}));
    EXPECT_EQ(order.take_deliverable().size(), 1u);
}

TEST(SequencerOrder, NonSequencerWaitsForOrderRecord) {
    SequencerOrder order({kA, kB}, kB);
    order.on_data(data(kB, 0, 1));
    EXPECT_TRUE(order.take_deliverable().empty());
    EXPECT_FALSE(order.take_order_to_send().has_value());
    order.on_order(OrderRecord{0, {MsgRef{kB, 0}}});
    EXPECT_EQ(order.take_deliverable().size(), 1u);
}

TEST(SequencerOrder, DeliveryFollowsAssignmentNotArrival) {
    SequencerOrder order({kA, kB, kC}, kC);
    order.on_data(data(kC, 0, 10));  // arrives first locally
    order.on_data(data(kB, 0, 5));
    order.on_order(OrderRecord{0, {MsgRef{kB, 0}, MsgRef{kC, 0}}});  // sequencer saw B first
    const auto batch = order.take_deliverable();
    ASSERT_EQ(batch.size(), 2u);
    EXPECT_EQ(batch[0].sender, kB);
    EXPECT_EQ(batch[1].sender, kC);
}

TEST(SequencerOrder, OrderRecordBeforeDataHolds) {
    SequencerOrder order({kA, kB}, kB);
    order.on_order(OrderRecord{0, {MsgRef{kA, 0}}});
    EXPECT_TRUE(order.take_deliverable().empty());
    order.on_data(data(kA, 0, 3));
    EXPECT_EQ(order.take_deliverable().size(), 1u);
}

TEST(SequencerOrder, NullsBypassOrdering) {
    SequencerOrder order({kA, kB}, kA);
    order.on_data(data(kB, 0, 1, DataKind::kNull));
    EXPECT_FALSE(order.take_order_to_send().has_value());
    EXPECT_TRUE(order.take_deliverable().empty());
    EXPECT_FALSE(order.has_pending());
}

TEST(SequencerOrder, RetransmittedDataDoesNotGetASecondOrderSlot) {
    // Regression: a retransmitted data message (NACK recovery re-delivers
    // the same {sender, seq}) used to be assigned a *second* order slot by
    // the sequencer.  take_deliverable() erases the data at the first slot,
    // so the duplicate slot could never be satisfied and delivery stalled
    // permanently for the whole group.
    SequencerOrder order({kA, kB}, kA);  // self = kA = sequencer
    order.on_data(data(kB, 0, 1));
    order.on_data(data(kB, 0, 1));  // retransmission of the same message
    const auto first = order.take_order_to_send();
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->refs.size(), 1u);
    EXPECT_EQ(order.take_deliverable().size(), 1u);

    // The next message must deliver; with the duplicate slot it stalls.
    order.on_data(data(kB, 1, 2));
    EXPECT_TRUE(order.take_order_to_send().has_value());
    ASSERT_EQ(order.take_deliverable().size(), 1u);
    EXPECT_FALSE(order.has_pending());
}

TEST(SequencerOrder, DuplicateOfDeliveredDataIsIgnored) {
    SequencerOrder order({kA, kB}, kA);
    order.on_data(data(kB, 0, 1));
    order.take_order_to_send();
    EXPECT_EQ(order.take_deliverable().size(), 1u);
    // The duplicate arrives after delivery (late retransmission).
    order.on_data(data(kB, 0, 1));
    EXPECT_FALSE(order.take_order_to_send().has_value());
    EXPECT_TRUE(order.take_deliverable().empty());
    EXPECT_FALSE(order.has_pending());
}

TEST(SequencerOrder, FeedGoingBackwardsIsAnInvariantViolation) {
    SequencerOrder order({kA, kB}, kA);
    order.on_data(data(kB, 0, 1));
    order.on_data(data(kB, 1, 2));
    EXPECT_THROW(order.on_data(data(kB, 0, 1)), InvariantError);
}

TEST(SequencerOrder, AssignmentLogKeepsDeliveredEntries) {
    SequencerOrder order({kA, kB}, kA);
    order.on_data(data(kB, 0, 1));
    order.take_order_to_send();
    EXPECT_EQ(order.take_deliverable().size(), 1u);
    EXPECT_EQ(order.assignment_log().size(), 1u);
}

// The sequencer must not deliver — nor expose through the flushed
// assignment log — an order it has not yet handed out for broadcast.  A
// private arrival order influenced nobody; if a view change strikes first,
// every fragment's cut must fall back to the same (ts, sender) rule.
// Regression for a divergence found by the chaos campaign: the sequencer
// assigned orders mid-view-change (when order records are never sent),
// flushed them, and delivered a cut contradicting the other fragment's.
TEST(SequencerOrder, UnsentAssignmentsNeitherDeliverNorReachTheLog) {
    SequencerOrder order({kA, kB}, kA);
    order.on_data(data(kB, 0, 1));
    EXPECT_TRUE(order.take_deliverable().empty());
    EXPECT_TRUE(order.assignment_log().empty());
    order.take_order_to_send();
    EXPECT_EQ(order.take_deliverable().size(), 1u);
    EXPECT_EQ(order.assignment_log().size(), 1u);
}

TEST(SequencerOrder, BatchedOrderRecord) {
    SequencerOrder order({kA, kB}, kA);
    order.on_data(data(kB, 0, 1));
    order.on_data(data(kB, 1, 2));
    const auto to_send = order.take_order_to_send();
    ASSERT_TRUE(to_send.has_value());
    EXPECT_EQ(to_send->refs.size(), 2u);
    EXPECT_FALSE(order.take_order_to_send().has_value());  // drained
}

TEST(SequencerOrder, PartialDrainRespectsMaxRefs) {
    SequencerOrder order({kA, kB}, kA);
    order.on_data(data(kB, 0, 1));
    order.on_data(data(kB, 1, 2));
    order.on_data(data(kB, 2, 3));
    EXPECT_EQ(order.fresh_count(), 3u);
    const auto first = order.take_order_to_send(2);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->first_order, 0u);
    EXPECT_EQ(first->refs.size(), 2u);
    EXPECT_EQ(order.fresh_count(), 1u);
    const auto second = order.take_order_to_send(2);
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->first_order, 2u);
    EXPECT_EQ(second->refs.size(), 1u);
    EXPECT_FALSE(order.take_order_to_send(2).has_value());
}

// Regression: pending_count() used to report max(|data|, |assignments|),
// undercounting when the two sets are disjoint (data held without an order
// record *and* order records held without their data are both pending).
TEST(SequencerOrder, PendingCountCoversDisjointSets) {
    SequencerOrder order({kA, kB, kC}, kB);  // kA is the sequencer; we are kB
    // Data with no assignment yet.
    order.on_data(data(kC, 0, 1));
    EXPECT_EQ(order.pending_count(), 1u);
    // Assignment for a *different* message whose data has not arrived.
    order.on_order(OrderRecord{0, {MsgRef{kB, 7}}});
    EXPECT_EQ(order.pending_count(), 2u);  // disjoint: 1 data + 1 assignment
    // Once the assignment's data arrives and delivers, only the unordered
    // data message remains pending.
    order.on_data(data(kB, 7, 2));
    EXPECT_EQ(order.take_deliverable().size(), 1u);
    EXPECT_EQ(order.pending_count(), 1u);
}

// -- CausalOrder ---------------------------------------------------------------

DataMsg causal_data(EndpointId sender, Seqno seq,
                    std::vector<std::pair<EndpointId, Seqno>> vc) {
    DataMsg m = data(sender, seq, 1);
    m.causal_vc = std::move(vc);
    return m;
}

TEST(CausalOrder, IndependentMessagesDeliverOnArrival) {
    CausalOrder order({kA, kB});
    order.on_data(causal_data(kA, 0, {{kA, 0}, {kB, 0}}));
    EXPECT_EQ(order.take_deliverable().size(), 1u);
    order.on_data(causal_data(kB, 0, {{kA, 0}, {kB, 0}}));
    EXPECT_EQ(order.take_deliverable().size(), 1u);
}

TEST(CausalOrder, DependentMessageWaitsForItsCause) {
    CausalOrder order({kA, kB, kC});
    // B's message depends on having delivered one message from A.
    order.on_data(causal_data(kB, 0, {{kA, 1}, {kB, 0}, {kC, 0}}));
    EXPECT_TRUE(order.take_deliverable().empty());
    order.on_data(causal_data(kA, 0, {{kA, 0}, {kB, 0}, {kC, 0}}));
    const auto batch = order.take_deliverable();
    ASSERT_EQ(batch.size(), 2u);
    EXPECT_EQ(batch[0].sender, kA);
    EXPECT_EQ(batch[1].sender, kB);
}

TEST(CausalOrder, ChainUnblocksTransitively) {
    CausalOrder order({kA, kB, kC});
    order.on_data(causal_data(kC, 0, {{kA, 1}, {kB, 1}, {kC, 0}}));
    order.on_data(causal_data(kB, 0, {{kA, 1}, {kB, 0}, {kC, 0}}));
    EXPECT_TRUE(order.take_deliverable().empty());
    order.on_data(causal_data(kA, 0, {{kA, 0}, {kB, 0}, {kC, 0}}));
    EXPECT_EQ(order.take_deliverable().size(), 3u);
}

TEST(CausalOrder, DeliveredVectorTracksCounts) {
    CausalOrder order({kA, kB});
    order.on_data(causal_data(kA, 0, {{kA, 0}, {kB, 0}}));
    order.take_deliverable();
    const auto vc = order.delivered_vector();
    ASSERT_EQ(vc.size(), 2u);
    EXPECT_EQ(vc[0], (std::pair{kA, Seqno{1}}));
    EXPECT_EQ(vc[1], (std::pair{kB, Seqno{0}}));
}

TEST(CausalOrder, DependencyOnDepartedMemberIgnored) {
    CausalOrder order({kA, kB});  // kC not a member
    order.on_data(causal_data(kA, 0, {{kA, 0}, {kC, 5}}));
    EXPECT_EQ(order.take_deliverable().size(), 1u);
}

// -- make_order_engine ---------------------------------------------------------

OrderMode mode_of(const OrderEngine& engine) {
    if (std::holds_alternative<SymmetricOrder>(engine)) return OrderMode::kTotalSymmetric;
    if (std::holds_alternative<SequencerOrder>(engine)) return OrderMode::kTotalAsymmetric;
    return OrderMode::kCausal;
}

struct OrderEngineFactory : ::testing::TestWithParam<OrderMode> {};

TEST_P(OrderEngineFactory, BuildsTheEngineForTheMode) {
    EXPECT_EQ(mode_of(make_order_engine(GetParam(), {kA, kB}, kB)), GetParam());
}

// One message every engine withholds at kB: the symmetric engine has not
// heard from kB, kB is not the sequencer and has no order record, and the
// causal dependency on kB's first message is unmet.
TEST_P(OrderEngineFactory, HeldBackMessageIsCountedAndDrained) {
    OrderEngine engine = make_order_engine(GetParam(), {kA, kB}, kB);
    on_data(engine, causal_data(kA, 0, {{kA, 0}, {kB, 1}}));
    EXPECT_TRUE(take_deliverable(engine).empty());
    EXPECT_TRUE(has_pending(engine));
    EXPECT_EQ(pending_count(engine), 1u);

    const auto drained = drain_pending(engine);
    ASSERT_EQ(drained.size(), 1u);
    EXPECT_EQ(drained[0].sender, kA);
    EXPECT_FALSE(has_pending(engine));
    EXPECT_EQ(pending_count(engine), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllModes, OrderEngineFactory,
                         ::testing::Values(OrderMode::kTotalSymmetric,
                                           OrderMode::kTotalAsymmetric, OrderMode::kCausal));

}  // namespace
}  // namespace newtop
