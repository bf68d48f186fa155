// Tier-1 tests for the crash-recovery subsystem: restartable nodes with
// incarnation-stamped delivery, double-fault guards, directory eviction of
// suspected endpoints, tunable invite timeouts, the RecoveryManager's
// end-to-end restart -> re-register -> rejoin -> resync pipeline, and
// client bindings healing through backoff after whole-group death.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "endpoint_world.hpp"
#include "net/calibration.hpp"
#include "newtop/recovery_manager.hpp"
#include "replication/recoverable.hpp"
#include "util/check.hpp"

namespace newtop {
namespace {

using namespace sim_literals;
using test::call;
using test::kAppend;
using test::kGet;
using test::RegisterServant;

class EchoGroupServant : public GroupServant {
public:
    Bytes handle(std::uint32_t, const Bytes& args) override { return args; }
};

struct RecWorld : World {
    RecWorld() : World(calibration::make_lan_topology(), 99) {}
};

GroupConfig lively_config(OrderMode order = OrderMode::kTotalAsymmetric) {
    GroupConfig cfg;
    cfg.order = order;
    cfg.liveness = LivenessMode::kLively;
    return cfg;
}

/// A RecoveryManager generation factory for an actively-replicated register
/// that records every servant it creates (one per life of the process).
RecoveryManager::GenerationFactory recorded_active_factory(
    std::string service, GroupConfig config,
    std::shared_ptr<std::vector<std::shared_ptr<RegisterServant>>> lives) {
    return make_active_generation(std::move(service), config, [lives] {
        auto servant = std::make_shared<RegisterServant>();
        lives->push_back(servant);
        return servant;
    });
}

// -- node restart / incarnations -----------------------------------------------------

TEST(NodeRestart, BumpsIncarnationAndRevivesTheCpu) {
    RecWorld world;
    const NodeId n = world.net.add_node(SiteId(0));
    Node& node = world.net.node(n);

    int ran = 0;
    node.cpu().execute(10, [&] { ++ran; });
    world.run_for(1_ms);
    ASSERT_EQ(ran, 1);
    EXPECT_EQ(node.incarnation(), 0u);

    // Work queued at crash time is suppressed; a dead CPU runs nothing.
    node.cpu().execute(10, [&] { ++ran; });
    world.net.crash(n);
    EXPECT_TRUE(node.crashed());
    node.cpu().execute(10, [&] { ++ran; });
    world.run_for(1_ms);
    EXPECT_EQ(ran, 1);

    world.net.restart(n, 100_ms);
    world.run_for(200_ms);
    EXPECT_FALSE(node.crashed());
    EXPECT_EQ(node.incarnation(), 1u);
    node.cpu().execute(10, [&] { ++ran; });
    world.run_for(1_ms);
    EXPECT_EQ(ran, 2);
}

TEST(NodeRestart, InFlightDeliveryToTheOldIncarnationIsDropped) {
    RecWorld world;
    const NodeId a = world.net.add_node(SiteId(0));
    const NodeId b = world.net.add_node(SiteId(0));
    int delivered = 0;
    world.net.node(b).set_receiver([&](NodeId, const Bytes&) { ++delivered; });

    // The message is stamped with b's incarnation at send time.  b dies and
    // is reborn before it arrives; the delivery addressed to the old life
    // must be dropped, not handed to the new process.
    world.net.send(a, b, Bytes{1, 2, 3});
    world.net.crash(b);
    world.net.restart(b, 0);
    world.run_for(10_ms);

    EXPECT_EQ(delivered, 0);
    EXPECT_EQ(world.net.metrics().counter("net.stale_incarnation_drops"), 1u);
    EXPECT_EQ(world.net.node(b).incarnation(), 1u);
}

TEST(NodeRestart, DoubleFaultsAreDeterministicNoOps) {
    RecWorld world;
    const NodeId n = world.net.add_node(SiteId(0));

    // Restarting a live node: the timer fires, finds the node up, no-ops.
    world.net.restart(n, 1_ms);
    world.run_for(10_ms);
    EXPECT_FALSE(world.net.node(n).crashed());
    EXPECT_EQ(world.net.metrics().counter("net.restart_ignored"), 1u);
    EXPECT_EQ(world.net.node(n).incarnation(), 0u);

    // Crashing a crashed node.
    world.net.crash(n);
    world.net.crash(n);
    EXPECT_EQ(world.net.metrics().counter("net.crash_ignored"), 1u);

    world.net.restart(n, 1_ms);
    world.run_for(10_ms);
    EXPECT_EQ(world.net.node(n).incarnation(), 1u);
}

// -- directory eviction (regression: stale registrations on suspicion) -----------------

TEST(Directory, ViewChangeEvictsSuspectedMembersRegistrations) {
    RecWorld world;
    NewTopService& s0 = world.add_nso();
    NewTopService& s1 = world.add_nso();
    s0.serve("reg", lively_config(), std::make_shared<EchoGroupServant>());
    s1.serve("reg", lively_config(), std::make_shared<EchoGroupServant>());
    world.run_for(1_s);
    const EndpointId dead = s1.id();
    ASSERT_FALSE(world.directory.known_defunct(dead));

    // s1 dies; the survivor's failure detector must remove it from the view
    // AND tombstone its directory registrations, so rebinding clients stop
    // selecting a dead request manager.
    world.net.crash(s1.orb().node_id());
    world.run_for(3_s);
    EXPECT_TRUE(world.directory.known_defunct(dead));
    EXPECT_GE(world.net.metrics().counter("directory.evictions"), 1u);
}

// -- invite timeout is tunable (was a hardcoded 3 s constant) --------------------------

TEST(BindOptions, InviteTimeoutControlsDeadManagerFailover) {
    // The server group is event-driven and quiet, so nobody suspects the
    // dead leader and the directory keeps listing it: the client's invite
    // timeout is the only thing that unsticks the bind.  A short timeout
    // must fail over to the live replica much sooner than the 3 s default.
    // Completion beats the respective invite timeout budget: with 400 ms the
    // failover happens inside 2 s; with the 3 s default it cannot.
    auto completes_within = [](SimDuration invite_timeout, SimDuration budget) {
        RecWorld world;
        NewTopService& s0 = world.add_nso();
        NewTopService& s1 = world.add_nso();
        GroupConfig cfg;
        cfg.order = OrderMode::kTotalAsymmetric;
        s0.serve("svc", cfg, std::make_shared<EchoGroupServant>());
        s1.serve("svc", cfg, std::make_shared<EchoGroupServant>());
        world.run_for(1_s);
        world.net.crash(s0.orb().node_id());
        world.run_for(10_ms);

        NewTopService& c = world.add_nso();
        BindOptions options;
        options.mode = BindMode::kOpen;
        options.invite_timeout = invite_timeout;
        GroupProxy proxy = c.bind("svc", options);
        bool done = false;
        proxy.invoke(kGet, {}, InvocationMode::kWaitFirst,
                     [&](const GroupReply& r) { done = r.complete; });
        world.run_for(budget);
        return done;
    };
    EXPECT_TRUE(completes_within(400_ms, 2_s));
    EXPECT_FALSE(completes_within(BindOptions{}.invite_timeout, 2_s));
    EXPECT_TRUE(completes_within(BindOptions{}.invite_timeout, 10_s));
}

// -- RecoveryManager end-to-end --------------------------------------------------------

TEST(RecoveryManager, RestartedReplicaResyncsAndServesAgain) {
    RecWorld world;
    auto lives0 = std::make_shared<std::vector<std::shared_ptr<RegisterServant>>>();
    auto lives1 = std::make_shared<std::vector<std::shared_ptr<RegisterServant>>>();
    RecoveryManager mgr0(world.net, world.directory, SiteId(0),
                         recorded_active_factory("reg", lively_config(), lives0));
    RecoveryManager mgr1(world.net, world.directory, SiteId(0),
                         recorded_active_factory("reg", lively_config(), lives1));
    world.run_for(1_s);
    ASSERT_TRUE(mgr0.recovered());
    ASSERT_TRUE(mgr1.recovered());

    NewTopService& c = world.add_nso();
    GroupProxy proxy = c.bind("reg", {.mode = BindMode::kOpen});
    auto r = call(world, proxy, kAppend, encode_to_bytes(std::string("a")),
                  InvocationMode::kWaitAll);
    ASSERT_TRUE(r.complete);
    ASSERT_EQ(lives0->back()->contents(), "a");
    ASSERT_EQ(lives1->back()->contents(), "a");

    const EndpointId old_endpoint = mgr0.endpoint();
    mgr0.crash();
    EXPECT_FALSE(mgr0.recovered());
    mgr0.restart_after(200_ms);
    world.run_for(5_s);

    // The new life: fresh endpoint, stale one evicted, replica resynced.
    EXPECT_EQ(mgr0.generation(), 1u);
    EXPECT_NE(mgr0.endpoint(), old_endpoint);
    EXPECT_TRUE(world.directory.known_defunct(old_endpoint));
    EXPECT_GE(world.net.metrics().counter("directory.evictions"), 1u);
    ASSERT_TRUE(mgr0.recovered());
    ASSERT_EQ(lives0->size(), 2u);
    EXPECT_EQ(lives0->back()->contents(), "a");   // state came from the survivor
    EXPECT_EQ(lives0->back()->executions, 0);     // ... as a snapshot

    // First post-recovery execution fires the MTTR probe, once.
    ASSERT_EQ(world.net.metrics().histogram("recovery.mttr"), nullptr);
    r = call(world, proxy, kAppend, encode_to_bytes(std::string("b")),
             InvocationMode::kWaitAll);
    ASSERT_TRUE(r.complete);
    EXPECT_EQ(lives0->back()->contents(), "ab");
    EXPECT_EQ(lives0->back()->executions, 1);
    EXPECT_EQ(lives1->back()->contents(), "ab");
    const auto* mttr = world.net.metrics().histogram("recovery.mttr");
    ASSERT_NE(mttr, nullptr);
    EXPECT_EQ(mttr->count(), 1u);
}

TEST(RecoveryManager, ClientBindingHealsThroughBackoffAfterWholeGroupDeath) {
    RecWorld world;
    auto lives = std::make_shared<std::vector<std::shared_ptr<RegisterServant>>>();
    RecoveryManager mgr(world.net, world.directory, SiteId(0),
                        recorded_active_factory("solo", lively_config(), lives));
    world.run_for(500_ms);

    NewTopService& c = world.add_nso();
    GroupProxy proxy = c.bind("solo", {.mode = BindMode::kOpen});
    auto r = call(world, proxy, kAppend, encode_to_bytes(std::string("a")),
                  InvocationMode::kWaitFirst);
    ASSERT_TRUE(r.complete);

    // The only replica dies.  The next call makes the client/server group
    // notice (suspicion needs traffic): the manager is removed from the
    // view, the rebind finds no live candidate, and the binding backs off —
    // failing the call fast instead of hanging it.
    mgr.crash();
    bool failed = false;
    proxy.invoke(kGet, {}, InvocationMode::kWaitFirst,
                 [&](const GroupReply& reply) { failed = !reply.complete; });
    world.run_for(8_s);
    EXPECT_TRUE(failed);
    EXPECT_GE(world.net.metrics().counter("invocation.backoffs"), 1u);

    // The replica comes back (fresh endpoint, re-registered under the same
    // name); a backoff retry re-resolves the name and the binding heals.
    mgr.restart_after(0);
    world.run_for(15_s);
    ASSERT_TRUE(mgr.recovered());
    r = call(world, proxy, kAppend, encode_to_bytes(std::string("b")),
             InvocationMode::kWaitFirst, 10_s);
    EXPECT_TRUE(r.complete);
    EXPECT_GE(world.net.metrics().counter("invocation.backoff_rebinds"), 1u);
    // Whole-group death loses the state (there is no durable store): the
    // re-founded lineage serves from fresh state.
    EXPECT_EQ(world.net.metrics().counter("replication.state_refounds"), 1u);
    EXPECT_EQ(lives->back()->contents(), "b");
}

TEST(RecoveryManager, BindingSurvivesConsecutiveRebindsWithExactlyOnceCalls) {
    RecWorld world;
    auto lives0 = std::make_shared<std::vector<std::shared_ptr<RegisterServant>>>();
    auto lives1 = std::make_shared<std::vector<std::shared_ptr<RegisterServant>>>();
    RecoveryManager mgr0(world.net, world.directory, SiteId(0),
                         recorded_active_factory("reg", lively_config(), lives0));
    RecoveryManager mgr1(world.net, world.directory, SiteId(0),
                         recorded_active_factory("reg", lively_config(), lives1));
    world.run_for(1_s);

    NewTopService& c = world.add_nso();
    GroupProxy proxy = c.bind("reg", {.mode = BindMode::kOpen});

    // Each round: fire a call and kill one replica in the same instant —
    // alternating, so the bound request manager keeps dying under in-flight
    // traffic and the binding must rebind to the survivor.  The restarted
    // replica rejoins (new endpoint) before the next round.
    const std::string expected = "abcdef";
    int completions = 0;
    for (std::size_t i = 0; i < expected.size(); ++i) {
        proxy.invoke(kAppend, encode_to_bytes(std::string(1, expected[i])),
                     InvocationMode::kWaitFirst, [&](const GroupReply& reply) {
                         EXPECT_TRUE(reply.complete) << "call " << i << " failed";
                         completions += reply.complete;
                     });
        RecoveryManager& victim = (i % 2 == 0) ? mgr0 : mgr1;
        victim.crash();
        victim.restart_after(300_ms);
        world.run_for(6_s);
        ASSERT_TRUE(victim.recovered()) << "round " << i;
    }
    world.run_for(5_s);

    // Every call completed back to the client exactly once, the binding
    // really did rebind along the way, and the servers' retry caches kept
    // the re-sent calls idempotent: each append executed exactly once.
    EXPECT_EQ(completions, static_cast<int>(expected.size()));
    EXPECT_GE(world.net.metrics().counter("invocation.rebinds"), 2u);
    EXPECT_EQ(lives0->back()->contents(), expected);
    EXPECT_EQ(lives1->back()->contents(), expected);
}

}  // namespace
}  // namespace newtop
