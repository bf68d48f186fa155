#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "endpoint_world.hpp"
#include "net/calibration.hpp"
#include "replication/active_replica.hpp"
#include "replication/passive_replica.hpp"
#include "util/check.hpp"

namespace newtop {
namespace {

using namespace sim_literals;
using test::call;
using test::kAppend;
using test::kGet;
using test::RegisterServant;

struct ReplWorld : World {
    ReplWorld() : World(calibration::make_lan_topology(), 17) {}
};

GroupConfig active_config() {
    GroupConfig cfg;
    cfg.order = OrderMode::kTotalAsymmetric;
    return cfg;
}

// -- active replication ----------------------------------------------------------------

TEST(ActiveReplication, FoundingMembersAreSyncedImmediately) {
    ReplWorld world;
    NewTopService& s0 = world.add_nso();
    auto app = std::make_shared<RegisterServant>();
    ActiveReplica replica(s0, "reg", active_config(), app);
    EXPECT_TRUE(replica.synced());
}

TEST(ActiveReplication, JoinerReceivesStateBeforeServing) {
    ReplWorld world;
    NewTopService& s0 = world.add_nso();
    auto app0 = std::make_shared<RegisterServant>();
    ActiveReplica r0(s0, "reg", active_config(), app0);

    // Put some state in before anyone else joins.
    NewTopService& c = world.add_nso();
    GroupProxy proxy = c.bind("reg", {.mode = BindMode::kOpen});
    call(world, proxy, kAppend, encode_to_bytes(std::string("abc")), InvocationMode::kWaitAll);
    ASSERT_EQ(app0->contents(), "abc");

    // A second replica joins mid-life and must catch up.
    NewTopService& s1 = world.add_nso();
    auto app1 = std::make_shared<RegisterServant>();
    ActiveReplica r1(s1, "reg", active_config(), app1);
    EXPECT_FALSE(r1.synced());
    world.run_for(2_s);
    ASSERT_TRUE(r1.synced());
    EXPECT_EQ(app1->contents(), "abc");
    EXPECT_EQ(app1->executions, 0);  // state came as a snapshot, not re-execution
}

TEST(ActiveReplication, JoinerAppliesRequestsOrderedAfterTheMarkerExactlyOnce) {
    ReplWorld world;
    NewTopService& s0 = world.add_nso();
    auto app0 = std::make_shared<RegisterServant>();
    ActiveReplica r0(s0, "reg", active_config(), app0);

    NewTopService& c = world.add_nso();
    GroupProxy proxy = c.bind("reg", {.mode = BindMode::kOpen});
    call(world, proxy, kAppend, encode_to_bytes(std::string("a")), InvocationMode::kWaitAll);

    NewTopService& s1 = world.add_nso();
    auto app1 = std::make_shared<RegisterServant>();
    ActiveReplica r1(s1, "reg", active_config(), app1);

    // Keep writing while the joiner synchronises.
    for (const char* piece : {"b", "c", "d"}) {
        proxy.invoke(kAppend, encode_to_bytes(std::string(piece)), InvocationMode::kWaitFirst,
                     [](const GroupReply&) {});
    }
    world.run_for(5_s);
    ASSERT_TRUE(r1.synced());
    EXPECT_EQ(app1->contents(), "abcd");
    EXPECT_EQ(app0->contents(), "abcd");
    // The joiner executed only what the snapshot did not cover.
    EXPECT_LE(app1->executions, 3);
}

TEST(ActiveReplication, GrownGroupServesWaitAllFromAllReplicas) {
    ReplWorld world;
    NewTopService& s0 = world.add_nso();
    auto app0 = std::make_shared<RegisterServant>();
    ActiveReplica r0(s0, "reg", active_config(), app0);

    NewTopService& s1 = world.add_nso();
    auto app1 = std::make_shared<RegisterServant>();
    ActiveReplica r1(s1, "reg", active_config(), app1);
    world.run_for(2_s);
    ASSERT_TRUE(r1.synced());

    NewTopService& c = world.add_nso();
    GroupProxy proxy = c.bind("reg", {.mode = BindMode::kOpen});
    const GroupReply reply = call(world, proxy, kAppend, encode_to_bytes(std::string("x")),
                                  InvocationMode::kWaitAll);
    ASSERT_TRUE(reply.complete);
    EXPECT_EQ(reply.replies.size(), 2u);
    EXPECT_EQ(app0->contents(), "x");
    EXPECT_EQ(app1->contents(), "x");
}

// -- passive replication ---------------------------------------------------------------

struct PassiveFixture : ::testing::Test {
    PassiveFixture() {
        // Lively server group: replicas heartbeat each other so a dead
        // primary is noticed even when no client traffic is flowing.
        GroupConfig cfg = active_config();
        cfg.liveness = LivenessMode::kLively;
        for (int i = 0; i < 3; ++i) {
            apps.push_back(std::make_shared<RegisterServant>());
            replicas.push_back(std::make_unique<PassiveReplica>(
                world.add_nso(), "preg", cfg, apps.back(), PassiveOptions{.checkpoint_every = 2}));
            world.run_for(300_ms);
        }
        proxy = world.add_nso().bind(
            "preg",
            {.mode = BindMode::kOpen, .restricted = true, .async_forwarding = true});
        world.run_for(500_ms);
    }

    ReplWorld world;
    std::vector<std::shared_ptr<RegisterServant>> apps;
    std::vector<std::unique_ptr<PassiveReplica>> replicas;
    GroupProxy proxy;
};

TEST_F(PassiveFixture, OnlyThePrimaryExecutes) {
    const GroupReply reply = call(world, proxy, kAppend, encode_to_bytes(std::string("p")),
                                  InvocationMode::kWaitFirst);
    ASSERT_TRUE(reply.complete);
    EXPECT_TRUE(replicas[0]->is_primary());
    EXPECT_FALSE(replicas[1]->is_primary());
    EXPECT_EQ(apps[0]->executions, 1);
    EXPECT_EQ(apps[1]->executions, 0);
    EXPECT_EQ(apps[2]->executions, 0);
}

TEST_F(PassiveFixture, CheckpointsPropagateStateToBackups) {
    for (const char* piece : {"a", "b", "c", "d"}) {
        const GroupReply reply = call(world, proxy, kAppend, encode_to_bytes(std::string(piece)),
                                      InvocationMode::kWaitFirst);
        ASSERT_TRUE(reply.complete);
    }
    world.run_for(2_s);
    // checkpoint_every = 2: after 4 requests both backups hold "abcd" via
    // snapshots, without executing anything.
    EXPECT_EQ(apps[1]->contents(), "abcd");
    EXPECT_EQ(apps[2]->contents(), "abcd");
    EXPECT_EQ(apps[1]->executions, 0);
    EXPECT_EQ(apps[0]->contents(), "abcd");
    EXPECT_LE(replicas[1]->log_size(), 1u);
}

TEST_F(PassiveFixture, FailoverReplaysTheLoggedSuffix) {
    // Three writes: checkpoint after 2, the third lives only in the logs.
    for (const char* piece : {"a", "b", "c"}) {
        const GroupReply reply = call(world, proxy, kAppend, encode_to_bytes(std::string(piece)),
                                      InvocationMode::kWaitFirst);
        ASSERT_TRUE(reply.complete);
    }
    world.run_for(1_s);
    ASSERT_EQ(apps[0]->contents(), "abc");

    world.net.crash(world.orbs[0]->node_id());  // the primary
    world.run_for(5_s);
    ASSERT_TRUE(replicas[1]->is_primary());
    // The new primary replayed "c" on top of its "ab" checkpoint.
    EXPECT_EQ(apps[1]->contents(), "abc");

    // And it keeps serving: the proxy rebinds to it.
    const GroupReply reply = call(world, proxy, kAppend, encode_to_bytes(std::string("d")),
                                  InvocationMode::kWaitFirst, 10_s);
    ASSERT_TRUE(reply.complete);
    EXPECT_EQ(apps[1]->contents(), "abcd");
    world.run_for(2_s);
    EXPECT_EQ(apps[2]->contents(), "abcd");
}

TEST_F(PassiveFixture, BackupsRemainConsistentAfterManyWrites) {
    std::string expected;
    for (int k = 0; k < 10; ++k) {
        const std::string piece(1, static_cast<char>('a' + k));
        expected += piece;
        const GroupReply reply =
            call(world, proxy, kAppend, encode_to_bytes(piece), InvocationMode::kWaitFirst);
        ASSERT_TRUE(reply.complete);
    }
    world.run_for(2_s);
    EXPECT_EQ(apps[0]->contents(), expected);
    EXPECT_EQ(apps[1]->contents(), expected);
    EXPECT_EQ(apps[2]->contents(), expected);
    EXPECT_EQ(apps[0]->executions, 10);
    EXPECT_EQ(apps[1]->executions, 0);
}

}  // namespace
}  // namespace newtop
