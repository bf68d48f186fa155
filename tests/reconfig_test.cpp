// View-synchronous runtime reconfiguration: a ConfigChangeMsg proposed
// through the group's own total order, applied at a flush-delimited view
// install.  These tests drive switches under load, across membership
// churn, through the adaptive-policy hook and through the fuzz runner,
// and lean on the OracleScope so every scenario is also checked for
// total order, virtual synchrony, duplicates and config-torn deliveries.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "fuzz/runner.hpp"
#include "fuzz/scenario.hpp"
#include "endpoint_world.hpp"
#include "gcs/endpoint.hpp"
#include "invocation/group_servant.hpp"
#include "net/calibration.hpp"
#include "obs/names.hpp"
#include "trace_oracle.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace newtop {
namespace {

using namespace sim_literals;

using test::lively;
using test::payload_of;

struct ReconfigWorld : test::EndpointWorld {
    ReconfigWorld() : EndpointWorld(calibration::make_lan_topology(), 11) {}
};

std::size_t count_switched(const test::OracleScope& oracle) {
    std::size_t n = 0;
    for (const obs::TraceEvent& e : oracle.sink().events()) {
        n += e.kind == obs::TraceKind::kConfigSwitched;
    }
    return n;
}

struct SwitchCase {
    OrderMode from;
    OrderMode to;
};

struct SwitchUnderLoad : ::testing::TestWithParam<SwitchCase> {};

// The headline property: a protocol switch right in the middle of a
// multicast burst loses, duplicates and reorders nothing.  Pre-switch
// messages are ordered by the old engine, the cut delivers them before the
// install, and post-switch traffic (including sends parked while the view
// change ran) flows under the new engine.
TEST_P(SwitchUnderLoad, LosesNoMessagesAndKeepsTotalOrder) {
    ReconfigWorld world;
    const GroupId g = world.make_group(3, lively(GetParam().from));

    constexpr int kPerMember = 12;
    for (int k = 0; k < kPerMember; ++k) {
        const SimDuration at = static_cast<SimDuration>(k) * 120'000;
        for (std::size_t i = 0; i < 3; ++i) {
            world.scheduler.schedule_after(at, [&world, i, k, g] {
                world.ep(i).multicast(g, payload_of(test::label("m", i, ".", k)));
            });
        }
    }
    // Fire the reconfiguration from a non-creator member mid-burst.
    const OrderMode target = GetParam().to;
    world.scheduler.schedule_after(500_ms, [&world, g, target] {
        GroupConfig next = *world.ep(1).group_config(g);
        next.order = target;
        world.ep(1).reconfigure(g, next);
    });
    world.run_for(20_s);

    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(world.ep(i).config_epoch(g), 1u) << "endpoint " << i;
        EXPECT_EQ(world.ep(i).group_config(g)->order, GetParam().to) << "endpoint " << i;
        EXPECT_EQ(world.delivered[i].size(), 3u * kPerMember) << "endpoint " << i;
        EXPECT_EQ(world.delivered[i], world.delivered[0]) << "endpoint " << i;
    }
    // Exactly one switch per member, visible in the trace and the counter.
    EXPECT_EQ(count_switched(world.oracle), 3u);
    EXPECT_EQ(world.net.metrics().counter(obs::metric::kGcsReconfigs), 3u);
}

INSTANTIATE_TEST_SUITE_P(
    Directions, SwitchUnderLoad,
    ::testing::Values(SwitchCase{OrderMode::kTotalSymmetric, OrderMode::kTotalAsymmetric},
                      SwitchCase{OrderMode::kTotalAsymmetric, OrderMode::kTotalSymmetric}));

// group_stats().holdback reads the engine the switch installed: a multicast
// from the non-sequencer member is held back by the symmetric and sequencer
// engines (no peer timestamp, no order record yet) but delivered at once by
// the causal one.
struct HoldbackAfterSwitch : ::testing::TestWithParam<SwitchCase> {};

TEST_P(HoldbackAfterSwitch, GroupStatsReadTheNewEngine) {
    ReconfigWorld world;
    const GroupId g = world.make_group(2, lively(GetParam().from));
    GroupConfig next = *world.ep(0).group_config(g);
    next.order = GetParam().to;
    world.ep(0).reconfigure(g, next);
    world.run_for(5_s);
    ASSERT_EQ(world.ep(1).config_epoch(g), 1u);

    world.ep(1).multicast(g, payload_of("held"));
    EXPECT_EQ(world.ep(1).group_stats(g).holdback, GetParam().to == OrderMode::kCausal ? 0u : 1u);
    world.run_for(2_s);
    EXPECT_EQ(world.ep(1).group_stats(g).holdback, 0u);
    EXPECT_EQ(world.delivered[1], std::vector<std::string>{"held"});
}

INSTANTIATE_TEST_SUITE_P(
    IntoEachMode, HoldbackAfterSwitch,
    ::testing::Values(SwitchCase{OrderMode::kCausal, OrderMode::kTotalSymmetric},
                      SwitchCase{OrderMode::kTotalSymmetric, OrderMode::kTotalAsymmetric},
                      SwitchCase{OrderMode::kTotalAsymmetric, OrderMode::kCausal}));

/// Replies with a seeded random number, like the reconfiguration bench.
class RandomServant : public GroupServant {
public:
    explicit RandomServant(std::uint64_t seed) : rng_(seed) {}
    Bytes handle(std::uint32_t, const Bytes&) override { return encode_to_bytes(rng_.next_u64()); }

private:
    Rng rng_;
};

TEST(Reconfigure, CallsAfterASwitchBackWaitForNoSilenceNull) {
    // The first two switches of bench_reconfig: a wait-all call every 10 ms
    // into a 3-replica lively group, switched to the sequencer at call 100
    // and back at call 160.  After the second install a member whose last
    // send of the old view carried the new head's timestamp must still null
    // for the new engine; otherwise the head waits for the 100 ms
    // time-silence null and every call behind it stalls.
    World world(calibration::make_lan_topology(), 1);
    GroupConfig cfg = lively(OrderMode::kTotalSymmetric);
    for (int i = 0; i < 3; ++i) {
        world.add_nso().serve("svc", cfg, std::make_shared<RandomServant>(2 + i));
        world.run_for(300_ms);
    }
    GroupProxy proxy =
        world.add_nso().bind("svc", {.mode = BindMode::kOpen, .restricted = true});
    world.run_for(2_s);
    const GroupId group = world.directory.find_group("svc")->id;

    constexpr int kCalls = 180;
    std::vector<SimDuration> latency(kCalls, -1);
    for (int k = 0; k < kCalls; ++k) {
        const SimTime issued = world.scheduler.now();
        proxy.invoke(1, encode_to_bytes(static_cast<std::uint64_t>(k)), InvocationMode::kWaitAll,
                     [&, k, issued](const GroupReply&) {
                         latency[static_cast<std::size_t>(k)] = world.scheduler.now() - issued;
                     });
        if (k == 100 || k == 160) {
            GroupConfig next = cfg;
            next.order = k == 100 ? OrderMode::kTotalAsymmetric : OrderMode::kTotalSymmetric;
            world.nsos[0]->reconfigure(group, next);
        }
        world.run_for(10_ms);
    }
    world.run_for(1_s);
    ASSERT_EQ(world.nsos[0]->config_epoch(group), 2u);
    for (int k = 0; k < kCalls; ++k) {
        EXPECT_GE(latency[static_cast<std::size_t>(k)], 0) << "call " << k << " never completed";
        EXPECT_LT(latency[static_cast<std::size_t>(k)], 50_ms) << "call " << k;
    }
}

// Round trip sym -> asym -> sym with traffic in every regime: the
// sequencer must be torn down and rebuilt cleanly both ways, and config
// epochs advance monotonically through 2.
TEST(Reconfigure, SequencerSurvivesRoundTripToggle) {
    ReconfigWorld world;
    const GroupId g = world.make_group(3, lively(OrderMode::kTotalSymmetric));

    auto burst = [&](const std::string& tag) {
        for (std::size_t i = 0; i < 3; ++i) {
            world.ep(i).multicast(g, payload_of(tag + std::to_string(i)));
        }
        world.run_for(3_s);
    };
    auto switch_to = [&](OrderMode order) {
        GroupConfig next = *world.ep(0).group_config(g);
        next.order = order;
        world.ep(0).reconfigure(g, next);
        world.run_for(5_s);
    };

    burst("a");
    switch_to(OrderMode::kTotalAsymmetric);
    burst("b");
    switch_to(OrderMode::kTotalSymmetric);
    burst("c");

    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(world.ep(i).config_epoch(g), 2u) << "endpoint " << i;
        EXPECT_EQ(world.ep(i).group_config(g)->order, OrderMode::kTotalSymmetric);
        EXPECT_EQ(world.delivered[i].size(), 9u) << "endpoint " << i;
        EXPECT_EQ(world.delivered[i], world.delivered[0]) << "endpoint " << i;
    }
}

// A switch proposed while a member crash is being handled: the proposal
// either rides the cut (staying pending, re-arming a follow-up round) or
// lands after the crash view — both ways the survivors converge on the new
// configuration with no torn deliveries (the OracleScope checks that).
TEST(Reconfigure, SwitchRacingMemberCrashConverges) {
    ReconfigWorld world;
    const GroupId g = world.make_group(4, lively(OrderMode::kTotalSymmetric));
    for (int k = 0; k < 6; ++k) {
        for (std::size_t i = 0; i < 4; ++i) {
            world.scheduler.schedule_after(static_cast<SimDuration>(k) * 200'000,
                                           [&world, i, k, g] {
                                               world.ep(i).multicast(
                                                   g, payload_of(test::label("x", i, k)));
                                           });
        }
    }
    world.scheduler.schedule_after(300_ms, [&world, g] {
        GroupConfig next = *world.ep(1).group_config(g);
        next.order = OrderMode::kTotalAsymmetric;
        world.ep(1).reconfigure(g, next);
    });
    world.scheduler.schedule_after(320_ms, [&world] { world.net.crash(world.node_of(3)); });
    world.run_for(25_s);

    for (std::size_t i = 0; i < 3; ++i) {
        ASSERT_TRUE(world.ep(i).is_member(g)) << "endpoint " << i;
        EXPECT_EQ(world.ep(i).config_epoch(g), 1u) << "endpoint " << i;
        EXPECT_EQ(world.ep(i).group_config(g)->order, OrderMode::kTotalAsymmetric);
    }
    // Survivors agree on their common delivery stream.
    EXPECT_EQ(world.delivered[0], world.delivered[1]);
    EXPECT_EQ(world.delivered[0], world.delivered[2]);
}

// Concurrent proposals from two members: both ride the same total order,
// last-delivered wins, and every member settles on the same final
// configuration (epochs may advance once or twice, but identically
// everywhere).
TEST(Reconfigure, ConcurrentProposalsConvergeLastWins) {
    ReconfigWorld world;
    const GroupId g = world.make_group(3, lively(OrderMode::kTotalSymmetric));
    world.scheduler.schedule_after(100_ms, [&world, g] {
        GroupConfig next = *world.ep(1).group_config(g);
        next.order = OrderMode::kTotalAsymmetric;
        world.ep(1).reconfigure(g, next);
    });
    world.scheduler.schedule_after(100_ms, [&world, g] {
        GroupConfig next = *world.ep(2).group_config(g);
        next.order = OrderMode::kTotalAsymmetric;
        next.liveness = LivenessMode::kEventDriven;
        world.ep(2).reconfigure(g, next);
    });
    world.run_for(15_s);

    const ConfigEpoch epoch = world.ep(0).config_epoch(g);
    EXPECT_GE(epoch, 1u);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(world.ep(i).config_epoch(g), epoch) << "endpoint " << i;
        EXPECT_EQ(world.ep(i).group_config(g)->order,
                  world.ep(0).group_config(g)->order)
            << "endpoint " << i;
        EXPECT_EQ(world.ep(i).group_config(g)->liveness,
                  world.ep(0).group_config(g)->liveness)
            << "endpoint " << i;
    }
}

// A joiner arriving after a switch must come up under the *current*
// configuration and epoch, not the creation-time one: the authoritative
// config travels in the install, and the directory copy is refreshed.
TEST(Reconfigure, LateJoinerInheritsCurrentConfig) {
    ReconfigWorld world;
    const GroupId g = world.make_group(2, lively(OrderMode::kTotalSymmetric));
    GroupConfig next = *world.ep(0).group_config(g);
    next.order = OrderMode::kTotalAsymmetric;
    world.ep(0).reconfigure(g, next);
    world.run_for(5_s);
    ASSERT_EQ(world.ep(0).config_epoch(g), 1u);

    const auto joiner = world.add_endpoint();
    world.ep(joiner).join_group("g");
    world.run_for(10_s);

    ASSERT_TRUE(world.ep(joiner).is_member(g));
    EXPECT_EQ(world.ep(joiner).config_epoch(g), 1u);
    EXPECT_EQ(world.ep(joiner).group_config(g)->order, OrderMode::kTotalAsymmetric);
    // And the directory's advisory copy tracked the switch too.
    const auto* info = world.directory.find_group("g");
    ASSERT_NE(info, nullptr);
    EXPECT_EQ(info->config.order, OrderMode::kTotalAsymmetric);
    // The group keeps working with the joiner under the new protocol.
    world.ep(joiner).multicast(g, payload_of("post-join"));
    world.run_for(3_s);
    for (std::size_t i = 0; i < 3; ++i) {
        ASSERT_FALSE(world.delivered[i].empty()) << "endpoint " << i;
        EXPECT_EQ(world.delivered[i].back(), "post-join") << "endpoint " << i;
    }
}

// The adaptive-policy hook: with adaptive_asym_threshold set, the leader
// switches the group to the asymmetric (sequencer) protocol when
// membership reaches the threshold, and back to symmetric when it shrinks
// below — no operator in the loop.
TEST(Reconfigure, AdaptiveThresholdTogglesProtocolWithGroupSize) {
    ReconfigWorld world;
    GroupConfig config = lively(OrderMode::kTotalSymmetric);
    config.adaptive_asym_threshold = 3;
    const GroupId g = world.make_group(2, config);
    world.run_for(2_s);
    // Two members: below threshold, still symmetric.
    EXPECT_EQ(world.ep(0).group_config(g)->order, OrderMode::kTotalSymmetric);

    const auto third = world.add_endpoint();
    world.ep(third).join_group("g");
    world.run_for(10_s);
    for (std::size_t i = 0; i < 3; ++i) {
        ASSERT_TRUE(world.ep(i).is_member(g)) << "endpoint " << i;
        EXPECT_EQ(world.ep(i).group_config(g)->order, OrderMode::kTotalAsymmetric)
            << "endpoint " << i;
    }
    const ConfigEpoch grown = world.ep(0).config_epoch(g);
    EXPECT_GE(grown, 1u);

    // Shrink below the threshold: the leader adapts back to symmetric.
    world.net.crash(world.node_of(third));
    world.run_for(15_s);
    for (std::size_t i = 0; i < 2; ++i) {
        ASSERT_TRUE(world.ep(i).is_member(g)) << "endpoint " << i;
        EXPECT_EQ(world.ep(i).group_config(g)->order, OrderMode::kTotalSymmetric)
            << "endpoint " << i;
        EXPECT_GT(world.ep(i).config_epoch(g), grown) << "endpoint " << i;
    }
    // Traffic still flows and agrees after both adaptive switches.
    world.ep(0).multicast(g, payload_of("adapted"));
    world.run_for(2_s);
    EXPECT_EQ(world.delivered[0].back(), "adapted");
    EXPECT_EQ(world.delivered[1].back(), "adapted");
}

// The fuzz-runner integration: a handcrafted scenario with a kReconfigure
// fault runs clean end-to-end (clients invoking through the switch) and
// the trace proves the switch actually happened on every replica.
TEST(Reconfigure, FuzzRunnerScenarioSwitchesUnderClientLoad) {
    fuzz::Scenario s;
    s.seed = 424242;
    s.sites = 1;
    fuzz::ServiceSpec svc;
    svc.order = OrderMode::kTotalSymmetric;
    svc.liveness = LivenessMode::kLively;
    svc.server_sites = {0, 0, 0};
    s.services.push_back(svc);
    fuzz::ClientSpec client;
    client.site = 0;
    client.service = 0;
    client.mode = InvocationMode::kWaitAll;
    client.calls = 8;
    s.clients.push_back(client);
    fuzz::FaultSpec fault;
    fault.kind = fuzz::FaultSpec::Kind::kReconfigure;
    fault.at_us = 1'500'000;
    fault.a = 0;
    fault.b = 0;  // -> kTotalAsymmetric
    s.faults.push_back(fault);
    s.run_us = 6'000'000;

    fuzz::RunOptions options;
    options.keep_trace = true;
    const fuzz::RunResult result = fuzz::run_scenario(s, options);
    EXPECT_TRUE(result.ok()) << result.report();
    std::size_t switched = 0;
    for (const obs::TraceEvent& e : result.trace) {
        switched += e.kind == obs::TraceKind::kConfigSwitched;
    }
    EXPECT_EQ(switched, 3u) << "every replica should trace exactly one switch";
}

}  // namespace
}  // namespace newtop
