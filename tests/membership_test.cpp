// Adversarial membership tests: coordinator failure mid-round, cascading
// crashes, joins racing failures, partitions during traffic, and the
// virtual-synchrony guarantees under all of it.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "endpoint_world.hpp"
#include "gcs/endpoint.hpp"
#include "net/calibration.hpp"
#include "util/check.hpp"

namespace newtop {
namespace {

using namespace sim_literals;

using test::EndpointWorld;
using test::lively;
using test::payload_of;

struct MembershipFixture : ::testing::TestWithParam<OrderMode> {
    MembershipFixture() : world(calibration::make_lan_topology(), 5) {}

    GroupId make_group(std::size_t n) { return world.make_group(n, lively(GetParam())); }

    EndpointWorld world;
};

TEST_P(MembershipFixture, CoordinatorCrashDuringViewChangeIsRecovered) {
    // 4 members; crash the last member to trigger a view change, and crash
    // the coordinator (lowest id) the moment it would be collecting flushes.
    const GroupId g = make_group(4);
    world.net.crash(world.node_of(3));
    // Give suspicion a moment to fire, then kill the coordinator mid-round.
    world.scheduler.schedule_after(250_ms, [&] { world.net.crash(world.node_of(0)); });
    world.run_for(10_s);
    for (std::size_t i : {1ul, 2ul}) {
        ASSERT_TRUE(world.ep(i).is_member(g)) << "endpoint " << i;
        EXPECT_EQ(world.ep(i).current_view(g)->members.size(), 2u) << "endpoint " << i;
    }
    // The survivors can still multicast and agree on order.
    world.ep(1).multicast(g, payload_of("a"));
    world.ep(2).multicast(g, payload_of("b"));
    world.run_for(2_s);
    EXPECT_EQ(world.delivered[1], world.delivered[2]);
    EXPECT_EQ(world.delivered[1].size(), 2u);
}

TEST_P(MembershipFixture, CascadingCrashesLeaveASingleton) {
    const GroupId g = make_group(4);
    world.net.crash(world.node_of(1));
    world.run_for(3_s);
    world.net.crash(world.node_of(2));
    world.run_for(3_s);
    world.net.crash(world.node_of(3));
    world.run_for(5_s);
    ASSERT_TRUE(world.ep(0).is_member(g));
    EXPECT_EQ(world.ep(0).current_view(g)->members.size(), 1u);
    // A singleton group still delivers its own multicasts.
    world.ep(0).multicast(g, payload_of("alone"));
    world.run_for(1_s);
    EXPECT_EQ(world.delivered[0].back(), "alone");
}

TEST_P(MembershipFixture, JoinDuringFailureRecoveryConverges) {
    const GroupId g = make_group(3);
    world.net.crash(world.node_of(2));
    const auto joiner = world.add_endpoint();
    world.ep(joiner).join_group("g");
    world.run_for(15_s);
    ASSERT_TRUE(world.ep(joiner).is_member(g));
    const View* v0 = world.ep(0).current_view(g);
    const View* vj = world.ep(joiner).current_view(g);
    ASSERT_NE(v0, nullptr);
    ASSERT_NE(vj, nullptr);
    EXPECT_EQ(*v0, *vj);
    EXPECT_EQ(v0->members.size(), 3u);  // 0, 1 and the joiner
}

TEST_P(MembershipFixture, TrafficDuringJoinIsNotLost) {
    const GroupId g = make_group(2);
    const auto joiner = world.add_endpoint();
    world.ep(joiner).join_group("g");
    // Blast messages while the join round runs.
    for (int k = 0; k < 10; ++k) {
        world.ep(0).multicast(g, payload_of(test::label("m", k)));
    }
    world.run_for(5_s);
    ASSERT_TRUE(world.ep(joiner).is_member(g));
    // The original members delivered everything, in identical order.
    EXPECT_EQ(world.delivered[0].size(), 10u);
    EXPECT_EQ(world.delivered[0], world.delivered[1]);
    // The joiner's deliveries (if any) are a suffix of the members' order.
    const auto& full = world.delivered[0];
    const auto& tail = world.delivered[joiner];
    ASSERT_LE(tail.size(), full.size());
    EXPECT_TRUE(std::equal(tail.rbegin(), tail.rend(), full.rbegin()));
}

TEST_P(MembershipFixture, SimultaneousLeaveAndCrashResolve) {
    const GroupId g = make_group(4);
    world.ep(3).leave_group(g);
    world.net.crash(world.node_of(2));
    world.run_for(10_s);
    for (std::size_t i : {0ul, 1ul}) {
        ASSERT_TRUE(world.ep(i).is_member(g)) << "endpoint " << i;
        EXPECT_EQ(world.ep(i).current_view(g)->members.size(), 2u);
    }
    EXPECT_FALSE(world.ep(3).knows_group(g));
}

TEST_P(MembershipFixture, EpochsStrictlyIncrease) {
    const GroupId g = make_group(3);
    const ViewEpoch before = world.ep(0).current_view(g)->epoch;
    world.net.crash(world.node_of(2));
    world.run_for(5_s);
    const ViewEpoch after = world.ep(0).current_view(g)->epoch;
    EXPECT_GT(after, before);
}

TEST_P(MembershipFixture, MessagesSentDuringViewChangeArriveInTheNextView) {
    const GroupId g = make_group(3);
    world.net.crash(world.node_of(2));
    // Send during the (not yet detected) failure window and during the
    // change itself; atomicity + resubmission must deliver them.
    world.ep(0).multicast(g, payload_of("x"));
    world.scheduler.schedule_after(300_ms, [&] { world.ep(1).multicast(g, payload_of("y")); });
    world.run_for(10_s);
    EXPECT_EQ(world.delivered[0], world.delivered[1]);
    ASSERT_EQ(world.delivered[0].size(), 2u);
}

INSTANTIATE_TEST_SUITE_P(Protocols, MembershipFixture,
                         ::testing::Values(OrderMode::kTotalSymmetric,
                                           OrderMode::kTotalAsymmetric),
                         [](const auto& info) {
                             return info.param == OrderMode::kTotalSymmetric ? "Symmetric"
                                                                             : "Asymmetric";
                         });

// -- partitions ---------------------------------------------------------------------

TEST(MembershipPartition, PartitionDuringTrafficPreservesPrefixAgreement) {
    auto sites = calibration::make_paper_topology();
    EndpointWorld world(std::move(sites.topology), 9);
    const auto a0 = world.add_endpoint(sites.newcastle);
    const auto a1 = world.add_endpoint(sites.newcastle);
    const auto b0 = world.add_endpoint(sites.london);
    GroupId g;
    g = world.ep(a0).create_group("g", lively(OrderMode::kTotalSymmetric));
    world.ep(a1).join_group("g");
    world.run_for(300_ms);
    world.ep(b0).join_group("g");
    world.run_for(300_ms);

    for (int k = 0; k < 5; ++k) {
        world.ep(a0).multicast(g, payload_of("pre" + std::to_string(k)));
    }
    world.run_for(1_s);
    world.net.partition_site(sites.london, 1);
    world.run_for(5_s);

    // Majority side continues; each side's deliveries share the pre-split
    // prefix.
    ASSERT_TRUE(world.ep(a0).is_member(g));
    EXPECT_EQ(world.ep(a0).current_view(g)->members.size(), 2u);
    ASSERT_TRUE(world.ep(b0).is_member(g));
    EXPECT_EQ(world.ep(b0).current_view(g)->members.size(), 1u);
    ASSERT_GE(world.delivered[a0].size(), 5u);
    for (int k = 0; k < 5; ++k) {
        EXPECT_EQ(world.delivered[a0][static_cast<std::size_t>(k)], "pre" + std::to_string(k));
        EXPECT_EQ(world.delivered[b0][static_cast<std::size_t>(k)], "pre" + std::to_string(k));
    }
}

TEST(MembershipPartition, MinoritySideKeepsItsOwnOrder) {
    auto sites = calibration::make_paper_topology();
    EndpointWorld world(std::move(sites.topology), 11);
    const auto a0 = world.add_endpoint(sites.newcastle);
    const auto b0 = world.add_endpoint(sites.london);
    const auto b1 = world.add_endpoint(sites.london);
    const GroupId g = world.ep(a0).create_group("g", lively(OrderMode::kTotalAsymmetric));
    world.ep(b0).join_group("g");
    world.run_for(300_ms);
    world.ep(b1).join_group("g");
    world.run_for(300_ms);

    world.net.partition_site(sites.london, 1);
    world.run_for(5_s);
    // London pair reforms with a new sequencer and keeps total order.
    ASSERT_TRUE(world.ep(b0).is_member(g));
    ASSERT_TRUE(world.ep(b1).is_member(g));
    EXPECT_EQ(world.ep(b0).current_view(g)->members.size(), 2u);
    world.ep(b0).multicast(g, payload_of("p"));
    world.ep(b1).multicast(g, payload_of("q"));
    world.run_for(2_s);
    EXPECT_EQ(world.delivered[b0], world.delivered[b1]);
    EXPECT_EQ(world.delivered[b0].size(), 2u);
}

}  // namespace
}  // namespace newtop
