// World (src/newtop/world.hpp): teardown of a busy world without manual
// clean-up, and isolation between worlds that run side by side.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "net/calibration.hpp"
#include "newtop/world.hpp"
#include "obs/trace.hpp"

namespace newtop {
namespace {

using namespace sim_literals;

class EchoServant : public GroupServant {
public:
    Bytes handle(std::uint32_t, const Bytes& args) override { return args; }
};

GroupConfig lively_symmetric() {
    GroupConfig cfg;
    cfg.order = OrderMode::kTotalSymmetric;
    cfg.liveness = LivenessMode::kLively;
    return cfg;
}

TEST(World, TearsDownMidTrafficWithTheTraceSinkStillAttached) {
    // The sink dies before the World, as a scenario-local sink does, and
    // nobody detaches it; the World is destroyed with NSOs alive, a lively
    // group heartbeating and publishes still queued in the scheduler.
    // Under the asan/ubsan tree any touch of freed state here fails.
    auto world = std::make_unique<World>(calibration::make_lan_topology(), 5);
    auto sink = std::make_unique<obs::VectorTraceSink>();
    world->net.metrics().set_trace_sink(sink.get());

    std::vector<PeerGroup> rooms;
    for (int i = 0; i < 3; ++i) {
        rooms.push_back(world->add_nso().join_peer_group(
            "room", lively_symmetric(), [](const NewTopService::PeerMessage&) {}));
        world->run_for(300_ms);
    }
    world->add_nso().serve("svc", GroupConfig{}, std::make_shared<EchoServant>());
    GroupProxy proxy = world->add_nso().bind("svc", {.mode = BindMode::kOpen});
    world->run_for(1_s);
    for (int k = 0; k < 20; ++k) {
        rooms[static_cast<std::size_t>(k) % rooms.size()].publish(Bytes{1, 2, 3});
        proxy.invoke(1, Bytes{4}, InvocationMode::kWaitAll, [](const GroupReply&) {});
    }
    world->run_for(2_ms);  // mid-traffic: sends in flight, timers armed

    ASSERT_TRUE(rooms[0].joined());
    ASSERT_GT(sink->count(obs::TraceKind::kMulticastSent), 0u);
    sink.reset();
    world.reset();
}

/// Two echo servers and an open-mode client, built and driven one step at
/// a time so several such scenarios can be interleaved.
struct SteppedScenario {
    explicit SteppedScenario(std::uint64_t seed) : world(calibration::make_lan_topology(), seed) {}

    void step(int k) {
        if (k < 2) {
            world.add_nso().serve("svc", GroupConfig{}, std::make_shared<EchoServant>());
        } else if (k == 2) {
            proxy = world.add_nso().bind("svc", {.mode = BindMode::kOpen});
        } else {
            proxy.invoke(1, encode_to_bytes(static_cast<std::uint64_t>(k)),
                         InvocationMode::kWaitAll,
                         [this](const GroupReply& r) { completed += r.complete ? 1 : 0; });
        }
        world.run_for(300_ms);
    }

    World world;
    GroupProxy proxy;
    int completed{0};
};

TEST(World, ConcurrentWorldsOnOneSeedAreIsolated) {
    SteppedScenario a(21);
    SteppedScenario b(21);
    SteppedScenario other(22);
    for (int k = 0; k < 12; ++k) {
        a.step(k);
        other.step(k);
        b.step(k);
    }
    EXPECT_GT(a.completed, 0);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.world.net.metrics().to_json(), b.world.net.metrics().to_json());
    EXPECT_NE(a.world.net.metrics().to_json(), other.world.net.metrics().to_json());
}

}  // namespace
}  // namespace newtop
