// Gray-failure resilience: degraded-mode fault injection (slow hosts, sick
// links, flapping sites), the φ-accrual failure detector's behaviour under
// slow-but-alive members, deadline shedding, and the client rebind backoff.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "gcs/endpoint.hpp"
#include "net/calibration.hpp"
#include "net/network.hpp"
#include "newtop/world.hpp"
#include "obs/names.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace newtop {
namespace {

using namespace sim_literals;

Topology two_site_topology() {
    Topology t;
    const SiteId a = t.add_site("A", LinkParams{.latency = 100});
    const SiteId b = t.add_site("B", LinkParams{.latency = 100});
    t.set_link(a, b, LinkParams{.latency = 1000});
    return t;
}

// -- fault injection at the network layer --------------------------------------

struct GrayNet : ::testing::Test {
    Scheduler scheduler;
};

TEST_F(GrayNet, CpuSlowdownScalesSubsequentWork) {
    Network net(scheduler, two_site_topology(), 1);
    const NodeId n = net.add_node(SiteId(0));
    net.set_cpu_slowdown(n, 4.0);
    SimTime done = -1;
    scheduler.schedule_at(1000, [&] {
        net.node(n).cpu().execute(10'000, [&] { done = scheduler.now(); });
    });
    scheduler.run();
    EXPECT_EQ(done, 1000 + 40'000);
}

TEST_F(GrayNet, CpuSlowdownSurvivesRestart) {
    Network net(scheduler, two_site_topology(), 1);
    const NodeId n = net.add_node(SiteId(0));
    net.set_cpu_slowdown(n, 4.0);
    scheduler.schedule_at(10'000, [&] { net.crash(n); });
    scheduler.schedule_at(20'000, [&] { net.restart(n, 80'000); });
    SimTime done = -1;
    scheduler.schedule_at(200'000, [&] {
        net.node(n).cpu().execute(10'000, [&] { done = scheduler.now(); });
    });
    scheduler.run();
    // Slowness is a property of the host, not the process: the restarted
    // node still runs 4x slow.
    EXPECT_EQ(done, 200'000 + 40'000);
}

TEST_F(GrayNet, LinkDegradeAddsLatencyAndClears) {
    Network net(scheduler, two_site_topology(), 1);
    const NodeId a = net.add_node(SiteId(0));
    const NodeId b = net.add_node(SiteId(1));
    std::vector<SimTime> arrivals;
    net.node(b).set_receiver([&](NodeId, const Bytes&) { arrivals.push_back(scheduler.now()); });

    net.set_link_degrade(SiteId(0), SiteId(1), LinkDegrade{.extra_latency = 2000});
    scheduler.schedule_at(0, [&] { net.send(a, b, Bytes{1}); });
    scheduler.schedule_at(10'000, [&] { net.clear_link_degrade(SiteId(0), SiteId(1)); });
    scheduler.schedule_at(10'000, [&] { net.send(a, b, Bytes{2}); });
    scheduler.run();
    ASSERT_EQ(arrivals.size(), 2u);
    EXPECT_EQ(arrivals[0], 3000);    // 1000 wan + 2000 degrade
    EXPECT_EQ(arrivals[1], 11'000);  // back to nominal
}

TEST_F(GrayNet, LinkDegradeExtraLossDropsTraffic) {
    Network net(scheduler, two_site_topology(), 1);
    const NodeId a = net.add_node(SiteId(0));
    const NodeId b = net.add_node(SiteId(1));
    int delivered = 0;
    net.node(b).set_receiver([&](NodeId, const Bytes&) { ++delivered; });
    net.set_link_degrade(SiteId(0), SiteId(1), LinkDegrade{.extra_loss = 1.0});
    for (int i = 0; i < 10; ++i) net.send(a, b, Bytes{1});
    scheduler.run();
    EXPECT_EQ(delivered, 0);
}

TEST_F(GrayNet, LinkDegradeBandwidthFactorStretchesSerialization) {
    Topology t;
    t.add_site("A", LinkParams{.latency = 100, .bytes_per_us = 2.0});
    Network net(scheduler, std::move(t), 1);
    const NodeId a = net.add_node(SiteId(0));
    const NodeId b = net.add_node(SiteId(0));
    SimTime arrived = -1;
    net.node(b).set_receiver([&](NodeId, const Bytes&) { arrived = scheduler.now(); });
    // a == b degrades the intra-site LAN; half bandwidth doubles the
    // 1000-byte serialization delay from 500us to 1000us.
    net.set_link_degrade(SiteId(0), SiteId(0), LinkDegrade{.bandwidth_factor = 0.5});
    net.send(a, b, Bytes(1000, 0));
    scheduler.run();
    EXPECT_EQ(arrived, 100 + 1000);
}

TEST_F(GrayNet, PerLinkExtraLossIsScopedToTheLink) {
    Network net(scheduler, two_site_topology(), 1);
    const NodeId a = net.add_node(SiteId(0));
    const NodeId b = net.add_node(SiteId(1));
    const NodeId c = net.add_node(SiteId(0));
    int cross = 0;
    int local = 0;
    net.node(b).set_receiver([&](NodeId, const Bytes&) { ++cross; });
    net.node(c).set_receiver([&](NodeId, const Bytes&) { ++local; });
    net.set_extra_loss(SiteId(0), SiteId(1), 1.0);
    for (int i = 0; i < 5; ++i) {
        net.send(a, b, Bytes{1});
        net.send(a, c, Bytes{1});
    }
    scheduler.run();
    EXPECT_EQ(cross, 0);  // degraded link drops everything
    EXPECT_EQ(local, 5);  // intra-site link untouched
    net.set_extra_loss(SiteId(0), SiteId(1), 0.0);
    net.send(a, b, Bytes{1});
    scheduler.run();
    EXPECT_EQ(cross, 1);  // zero loss clears the overlay
}

TEST_F(GrayNet, FlapScheduleTogglesAndEndsConnected) {
    Network net(scheduler, two_site_topology(), 1);
    const NodeId a = net.add_node(SiteId(0));
    const NodeId b = net.add_node(SiteId(1));
    std::vector<SimTime> arrivals;
    net.node(b).set_receiver([&](NodeId, const Bytes&) { arrivals.push_back(scheduler.now()); });
    // Isolated [1s, 1.5s) and [2s, 2.5s); joined in between and after.
    net.schedule_flap(SiteId(1), 1'000'000, /*cycles=*/2, /*isolated_for=*/500'000,
                      /*joined_for=*/500'000, /*cell=*/3);
    for (const SimTime at : {1'200'000, 1'700'000, 2'200'000, 2'700'000, 3'500'000}) {
        scheduler.schedule_at(at, [&net, a, b] { net.send(a, b, Bytes{1}); });
    }
    scheduler.run();
    ASSERT_EQ(arrivals.size(), 3u);
    EXPECT_EQ(arrivals[0], 1'701'000);
    EXPECT_EQ(arrivals[1], 2'701'000);
    EXPECT_EQ(arrivals[2], 3'501'000);
}

// -- the φ-accrual detector under gray conditions ------------------------------

/// A small GCS world with a trace sink, for detector observations.
struct DetectorWorld : World {
    explicit DetectorWorld(std::uint64_t seed = 7)
        : World(calibration::make_lan_topology(), seed) {
        net.metrics().set_trace_sink(&sink);
    }

    std::size_t add() {
        endpoints.push_back(std::make_unique<GroupCommEndpoint>(add_orb(), directory));
        return endpoints.size() - 1;
    }

    GroupCommEndpoint& ep(std::size_t i) { return *endpoints[i]; }
    NodeId node_of(std::size_t i) { return orbs[i]->node_id(); }

    [[nodiscard]] std::size_t suspicions_of(EndpointId suspect) const {
        std::size_t n = 0;
        for (const obs::TraceEvent& e : sink.events()) {
            if (e.kind == obs::TraceKind::kSuspected && e.detail == suspect.value()) ++n;
        }
        return n;
    }

    obs::VectorTraceSink sink;
    std::vector<std::unique_ptr<GroupCommEndpoint>> endpoints;
};

GroupConfig lively_config(std::uint64_t phi_threshold_milli) {
    GroupConfig cfg;
    cfg.order = OrderMode::kTotalSymmetric;
    cfg.liveness = LivenessMode::kLively;
    cfg.phi_threshold_milli = phi_threshold_milli;
    return cfg;
}

/// Build a settled 3-member lively group, then run a ramp of CPU bursts on
/// member c's host with the host slowed 2x, so single busy periods grow
/// from 80ms to 480ms — past the 200ms fixed suspicion timeout but along a
/// history an accrual detector tracks.  Returns suspicions of c.
std::size_t slow_member_suspicions(std::uint64_t phi_threshold_milli, bool* c_in_view) {
    DetectorWorld world;
    const auto a = world.add();
    const auto b = world.add();
    const auto c = world.add();
    const GroupId g = world.ep(a).create_group("g", lively_config(phi_threshold_milli));
    world.ep(b).join_group("g");
    world.ep(c).join_group("g");
    world.run_for(1_s);

    world.net.set_cpu_slowdown(world.node_of(c), 2.0);
    const SimTime base = world.scheduler.now();
    for (int k = 0; k < 11; ++k) {
        const SimDuration nominal = 40_ms + static_cast<SimDuration>(k) * 20_ms;
        world.scheduler.schedule_at(base + static_cast<SimTime>(k) * 600_ms, [&world, c,
                                                                              nominal] {
            world.net.node(world.node_of(c)).cpu().execute(nominal, [] {});
        });
    }
    world.run_for(11 * 600_ms + 2_s);

    const View* view = world.ep(a).current_view(g);
    *c_in_view = view != nullptr && view->contains(world.ep(c).id());
    return world.suspicions_of(world.ep(c).id());
}

TEST(GrayDetector, SlowButAliveMemberNotSuspectedUnderPhi) {
    bool c_in_view = false;
    EXPECT_EQ(slow_member_suspicions(8000, &c_in_view), 0u);
    EXPECT_TRUE(c_in_view);
}

TEST(GrayDetector, FixedTimeoutFalselySuspectsTheSameSlowMember) {
    // The identical workload under the paper's fixed-timeout detector
    // (phi_threshold_milli = 0): the 2x-slowed bursts exceed the 200ms
    // suspicion timeout and the alive member is suspected.
    bool c_in_view = false;
    EXPECT_GT(slow_member_suspicions(0, &c_in_view), 0u);
}

/// Crash a healthy member of a settled group and measure the silence until
/// the first survivor suspicion.
SimDuration crash_detection_latency(std::uint64_t phi_threshold_milli) {
    DetectorWorld world;
    const auto a = world.add();
    const auto b = world.add();
    const auto c = world.add();
    world.ep(a).create_group("g", lively_config(phi_threshold_milli));
    world.ep(b).join_group("g");
    world.ep(c).join_group("g");
    world.run_for(2500_ms);

    const SimTime crash_at = world.scheduler.now();
    world.net.crash(world.node_of(c));
    world.run_for(3_s);

    for (const obs::TraceEvent& e : world.sink.events()) {
        if (e.kind == obs::TraceKind::kSuspected && e.detail == world.ep(c).id().value() &&
            e.at >= crash_at) {
            return e.at - crash_at;
        }
    }
    return -1;
}

TEST(GrayDetector, CrashDetectionNoSlowerThanFixedTimeout) {
    // The fixed suspicion_timeout is the accrual detector's *floor*: a
    // genuinely crashed member must not be detected any later than the
    // paper's original detector would.
    const SimDuration with_phi = crash_detection_latency(8000);
    const SimDuration fixed = crash_detection_latency(0);
    ASSERT_GE(with_phi, 0);
    ASSERT_GE(fixed, 0);
    EXPECT_LE(with_phi, fixed);
}

TEST(GrayDetector, ConfigValidationRejectsTimeoutInversion) {
    DetectorWorld world;
    const auto a = world.add();
    GroupConfig bad;
    bad.view_change_timeout = bad.suspicion_timeout;  // must be strictly greater
    EXPECT_THROW(world.ep(a).create_group("bad", bad), PreconditionError);

    const GroupId g = world.ep(a).create_group("good", lively_config(8000));
    world.run_for(100_ms);
    EXPECT_THROW(world.ep(a).reconfigure(g, bad), PreconditionError);
}

// -- deadline shedding ---------------------------------------------------------

/// Servant with a fixed, large execution cost so a slowed host turns one
/// call into seconds of CPU.
class CostlyServant : public GroupServant {
public:
    Bytes handle(std::uint32_t, const Bytes&) override { return Bytes{1}; }
    [[nodiscard]] SimDuration execution_cost(std::uint32_t) const override { return 100_ms; }
};

TEST(GrayShedding, ExpiredCallsAreShedOnASlowedServer) {
    World world(calibration::make_lan_topology(), 3);
    Network& net = world.net;
    obs::VectorTraceSink sink;
    net.metrics().set_trace_sink(&sink);

    NewTopService& server = world.add_nso();
    server.serve("svc", GroupConfig{.order = OrderMode::kTotalAsymmetric},
                 std::make_shared<CostlyServant>());
    world.run_for(1_s);
    NewTopService& client = world.add_nso();
    GroupProxy proxy = client.bind("svc", {.mode = BindMode::kOpen, .call_timeout = 500_ms});
    world.run_for(2_s);

    // 50x slowdown turns the 100ms servant cost into 5s — far past the
    // client's 500ms deadline, so the execution-time shed gate fires.
    net.set_cpu_slowdown(server.orb().node_id(), 50.0);
    bool completed = true;
    proxy.invoke(1, Bytes{}, InvocationMode::kWaitFirst,
                 [&](const GroupReply& reply) { completed = reply.complete; });
    world.run_for(10_s);

    EXPECT_FALSE(completed);  // the client gave up at its call_timeout
    EXPECT_GE(net.metrics().counter(obs::metric::kInvShed), 1u);
    EXPECT_GE(sink.count(obs::TraceKind::kRequestShed), 1u);
}

// -- client rebind backoff (PR 5) ----------------------------------------------

/// Run a client whose only server crashes and is evicted from the
/// directory, then sample the invocation.backoffs counter every 10ms and
/// return the sim time of each backoff round.
std::vector<SimTime> backoff_round_times(std::uint64_t seed) {
    World world(calibration::make_lan_topology(), seed);
    Scheduler& scheduler = world.scheduler;
    Network& net = world.net;

    NewTopService& server = world.add_nso();
    server.serve("svc", GroupConfig{.order = OrderMode::kTotalAsymmetric},
                 std::make_shared<CostlyServant>());
    world.run_for(1_s);
    NewTopService& client = world.add_nso();
    GroupProxy proxy = client.bind("svc", {.mode = BindMode::kOpen, .call_timeout = 500_ms});
    world.run_for(2_s);

    net.crash(server.orb().node_id());
    world.directory.evict_endpoint(server.id());
    // One failing call kicks the binding into the rebind path; with every
    // candidate defunct it then backs off autonomously.
    proxy.invoke(1, Bytes{}, InvocationMode::kWaitFirst, [](const GroupReply&) {});

    std::vector<SimTime> rounds;
    std::uint64_t seen = 0;
    const SimTime base = scheduler.now();
    for (SimTime t = base; t <= base + 40_s; t += 10_ms) {
        scheduler.schedule_at(t, [&net, &rounds, &seen, &scheduler] {
            const std::uint64_t now_count = net.metrics().counter(obs::metric::kInvBackoffs);
            while (seen < now_count) {
                rounds.push_back(scheduler.now());
                ++seen;
            }
        });
    }
    scheduler.run_until(base + 41_s);
    return rounds;
}

TEST(GrayBackoff, RebindBackoffDoublesAndCapsAtFourSeconds) {
    const std::vector<SimTime> rounds = backoff_round_times(11);
    ASSERT_GE(rounds.size(), 7u);
    // Expected delay of round i: min(4s, 250ms << i) plus jitter of at
    // most a quarter of the base; the 10ms sampling adds slack on top.
    const SimDuration bases[] = {250_ms, 500_ms, 1_s, 2_s};
    for (std::size_t i = 0; i + 1 < rounds.size(); ++i) {
        const SimDuration gap = rounds[i + 1] - rounds[i];
        const SimDuration base = i < 4 ? bases[i] : 4_s;
        EXPECT_GE(gap, base) << "round " << i;
        EXPECT_LE(gap, base + base / 4 + 20_ms) << "round " << i;
    }
}

TEST(GrayBackoff, BackoffScheduleIsDeterministic) {
    EXPECT_EQ(backoff_round_times(11), backoff_round_times(11));
}

}  // namespace
}  // namespace newtop
