// Determinism and API-edge tests.
//
// The whole simulation is designed to be bit-reproducible from its seed —
// that is what makes the benchmark tables in EXPERIMENTS.md stable and
// failures replayable.  These tests run full scenarios twice and require
// identical histories, and pin down the public API's edge behaviour.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "net/calibration.hpp"
#include "newtop/world.hpp"
#include "util/check.hpp"

namespace newtop {
namespace {

using namespace sim_literals;

constexpr std::uint32_t kEcho = 1;

class EchoServant : public GroupServant {
public:
    Bytes handle(std::uint32_t, const Bytes& args) override { return args; }
};

/// Runs a small mixed scenario (request/reply + peer traffic + a crash) and
/// returns a full history fingerprint.
std::string run_scenario(std::uint64_t seed) {
    auto sites = calibration::make_paper_topology();
    World world(std::move(sites.topology), seed);
    Scheduler& scheduler = world.scheduler;

    std::ostringstream history;

    // Three servers + a WAN client.
    GroupConfig cfg;
    cfg.order = OrderMode::kTotalAsymmetric;
    cfg.liveness = LivenessMode::kLively;
    for (int i = 0; i < 3; ++i) {
        world.add_nso(sites.newcastle).serve("svc", cfg, std::make_shared<EchoServant>());
        world.run_for(300_ms);
    }
    NewTopService& client = world.add_nso(sites.pisa);
    GroupProxy proxy = client.bind("svc", {.mode = BindMode::kOpen, .restricted = true});

    // A peer group alongside.
    GroupConfig peer_cfg;
    peer_cfg.order = OrderMode::kTotalSymmetric;
    peer_cfg.liveness = LivenessMode::kLively;
    NewTopService& peer1 = world.add_nso(sites.london);
    NewTopService& peer2 = world.add_nso(sites.pisa);
    PeerGroup room1 = peer1.join_peer_group(
        "room", peer_cfg, [&](const NewTopService::PeerMessage& m) {
            history << "p1@" << scheduler.now() << ":"
                    << std::string(m.payload.begin(), m.payload.end()) << "\n";
        });
    world.run_for(300_ms);
    PeerGroup room2 = peer2.join_peer_group(
        "room", peer_cfg, [&](const NewTopService::PeerMessage& m) {
            history << "p2@" << scheduler.now() << ":"
                    << std::string(m.payload.begin(), m.payload.end()) << "\n";
        });
    world.run_for(500_ms);

    for (int k = 0; k < 5; ++k) {
        const std::string text = "peer" + std::to_string(k);
        (k % 2 == 0 ? room1 : room2).publish(Bytes(text.begin(), text.end()));
        proxy.invoke(kEcho, encode_to_bytes(std::string("call" + std::to_string(k))),
                     InvocationMode::kWaitAll, [&, k](const GroupReply& reply) {
                         history << "call" << k << "@" << scheduler.now() << ":"
                                 << reply.replies.size() << "\n";
                     });
        world.run_for(200_ms);
    }
    // Crash one server mid-run.
    world.net.crash(world.orbs[1]->node_id());
    proxy.invoke(kEcho, encode_to_bytes(std::string("post-crash")), InvocationMode::kWaitAll,
                 [&](const GroupReply& reply) {
                     history << "post@" << scheduler.now() << ":" << reply.replies.size()
                             << "\n";
                 });
    world.run_for(10_s);

    history << "msgs=" << world.net.stats().messages_sent
            << " bytes=" << world.net.stats().bytes_sent << " t=" << scheduler.now();
    return history.str();
}

TEST(Determinism, IdenticalSeedsProduceIdenticalHistories) {
    const std::string a = run_scenario(2026);
    const std::string b = run_scenario(2026);
    EXPECT_EQ(a, b);
}

TEST(Determinism, DifferentSeedsDiverge) {
    // Jitter and loss draws differ, so message counts/timings should too.
    const std::string a = run_scenario(1);
    const std::string b = run_scenario(2);
    EXPECT_NE(a, b);
}

// -- container-order regression -------------------------------------------------------

/// Runtime companion to newtop_lint's `unordered-container` / `pointer-key`
/// rules.  Orb::pending_, ObjectAdapter::servants_ and Scheduler::cancelled_
/// used to be hash containers; any code iterating them could leak memory
/// layout into completion order.  This scenario churns all three — pending
/// calls with timeouts and cancellations, servant deactivate/re-activate,
/// IOGR failover — and runs twice in one process, so the second run sees a
/// different heap layout: an address-ordered sweep would diverge here.
/// (Hash iteration over *integral* keys repeats identically within a
/// process, which is exactly why that class is enforced by the lint rather
/// than sampled by this test.)
class ChurnServant : public Servant {
public:
    explicit ChurnServant(int id) : id_(id) {}
    Bytes dispatch(std::uint32_t, BytesView args) override {
        Bytes out(args.begin(), args.end());
        out.push_back(static_cast<std::uint8_t>(id_));
        return out;
    }

private:
    int id_;
};

std::string run_orb_churn(std::uint64_t seed) {
    World world(calibration::make_lan_topology(), seed);
    Scheduler& scheduler = world.scheduler;
    Orb& client = world.add_orb();
    std::vector<Orb*> servers;
    std::vector<Ior> targets;
    for (int s = 0; s < 3; ++s) {
        servers.push_back(&world.add_orb());
        targets.push_back(
            servers.back()->adapter().activate(std::make_shared<ChurnServant>(s), "Churn"));
    }

    std::ostringstream history;
    auto record = [&](int call, ReplyStatus s, const Bytes& payload) {
        history << call << '@' << scheduler.now() << ':' << static_cast<int>(s) << ':'
                << payload.size() << '\n';
    };

    std::vector<OrbCallId> cancellable;
    for (int k = 0; k < 40; ++k) {
        const int which = k % 3;
        const OrbCallId id = client.invoke(
            targets[which], kEcho, encode_to_bytes(std::string("m") + std::to_string(k)),
            [&, k](ReplyStatus s, const Bytes& p) { record(k, s, p); },
            /*timeout=*/(k % 5 == 0) ? 2_ms : 80_ms);
        if (k % 7 == 0) cancellable.push_back(id);
        if (k % 11 == 3) {
            // Servant churn: kill and replace the target in place.
            servers[which]->adapter().deactivate(targets[which].key);
            targets[which] = servers[which]->adapter().activate(
                std::make_shared<ChurnServant>(which + 10), "Churn");
        }
        if (k % 9 == 4) world.run_for(1_ms);
    }
    for (OrbCallId id : cancellable) client.cancel(id);

    // IOGR failover sweeps across the (partially replaced) members.
    Iogr group;
    group.members = targets;
    group.primary_index = 1;
    for (int k = 0; k < 5; ++k) {
        client.invoke_group(
            group, kEcho, encode_to_bytes(std::string("g") + std::to_string(k)),
            [&, k](ReplyStatus s, const Bytes& p) { record(100 + k, s, p); }, 5_ms);
    }
    world.run_for(2_s);
    history << "msgs=" << world.net.stats().messages_sent << " t=" << scheduler.now();
    return history.str();
}

TEST(Determinism, OrbChurnReproducibleAcrossHeapLayouts) {
    const std::string a = run_orb_churn(77);
    // Perturb the heap between the runs so any address-dependent ordering
    // inside the ORB or scheduler would see a different layout.
    std::vector<std::unique_ptr<int>> ballast;
    for (int i = 0; i < 1024; ++i) ballast.push_back(std::make_unique<int>(i));
    const std::string b = run_orb_churn(77);
    EXPECT_EQ(a, b);
    EXPECT_NE(a.find('@'), std::string::npos);  // some completions actually ran
}

// -- reconfiguration determinism ------------------------------------------------------

/// A runtime protocol switch right in the middle of a call burst.  The
/// switch path allocates (pending configs, parked sends, rebuilt ordering
/// engines), so this scenario is the regression net for any
/// address-dependent ordering introduced by reconfiguration: the same seed
/// must reproduce the same history bit-for-bit across heap layouts.
std::string run_reconfig_burst(std::uint64_t seed) {
    World world(calibration::make_lan_topology(), seed);
    Scheduler& scheduler = world.scheduler;

    GroupConfig cfg;
    cfg.order = OrderMode::kTotalSymmetric;
    cfg.liveness = LivenessMode::kLively;
    for (int i = 0; i < 3; ++i) {
        world.add_nso().serve("svc", cfg, std::make_shared<EchoServant>());
        world.run_for(300_ms);
    }
    NewTopService& client = world.add_nso();
    GroupProxy proxy = client.bind("svc", {.mode = BindMode::kOpen});
    world.run_for(2_s);

    std::ostringstream history;
    for (int k = 0; k < 10; ++k) {
        proxy.invoke(kEcho, encode_to_bytes(std::string("r") + std::to_string(k)),
                     InvocationMode::kWaitAll, [&, k](const GroupReply& reply) {
                         history << "r" << k << "@" << scheduler.now() << ":"
                                 << reply.replies.size() << "\n";
                     });
        if (k == 4) {
            // Mid-burst: a member proposes the switch to the sequencer.
            const auto* info = world.directory.find_group("svc");
            GroupConfig next = cfg;
            next.order = OrderMode::kTotalAsymmetric;
            world.nsos[0]->reconfigure(info->id, next);
        }
        world.run_for(150_ms);
    }
    world.run_for(10_s);

    const auto* info = world.directory.find_group("svc");
    for (int i = 0; i < 3; ++i) {
        history << "epoch" << i << "="
                << world.nsos[static_cast<std::size_t>(i)]->config_epoch(info->id) << "\n";
    }
    history << "msgs=" << world.net.stats().messages_sent
            << " bytes=" << world.net.stats().bytes_sent << " t=" << scheduler.now();
    return history.str();
}

TEST(Determinism, ReconfigMidBurstReproducibleAcrossHeapLayouts) {
    const std::string a = run_reconfig_burst(99);
    // Perturb the heap so address-dependent ordering would diverge.
    std::vector<std::unique_ptr<int>> ballast;
    for (int i = 0; i < 2048; ++i) ballast.push_back(std::make_unique<int>(i));
    const std::string b = run_reconfig_burst(99);
    EXPECT_EQ(a, b);
    // The switch really happened in both runs.
    EXPECT_NE(a.find("epoch0=1"), std::string::npos) << a;
}

// -- public API edges -----------------------------------------------------------------

struct ApiEdges : ::testing::Test, World {
    ApiEdges() : World(calibration::make_lan_topology(), 3) {}
};

TEST_F(ApiEdges, EmptyProxyRejectsCalls) {
    GroupProxy empty;
    EXPECT_THROW(empty.invoke(1, {}, InvocationMode::kWaitFirst, [](const GroupReply&) {}),
                 PreconditionError);
    EXPECT_THROW(empty.one_way(1, {}), PreconditionError);
    EXPECT_FALSE(empty.ready());
    EXPECT_EQ(empty.manager(), std::nullopt);
}

TEST_F(ApiEdges, TwoWayInvokeRequiresHandler) {
    NewTopService& server = add_nso();
    server.serve("svc", GroupConfig{}, std::make_shared<EchoServant>());
    NewTopService& client = add_nso();
    GroupProxy proxy = client.bind("svc", {});
    EXPECT_THROW(proxy.invoke(1, {}, InvocationMode::kWaitAll, nullptr), PreconditionError);
}

TEST_F(ApiEdges, ServeTwiceRejected) {
    NewTopService& server = add_nso();
    server.serve("svc", GroupConfig{}, std::make_shared<EchoServant>());
    EXPECT_THROW(server.serve("svc", GroupConfig{}, std::make_shared<EchoServant>()),
                 PreconditionError);
}

TEST_F(ApiEdges, ServeNullServantRejected) {
    NewTopService& server = add_nso();
    EXPECT_THROW(server.serve("svc", GroupConfig{}, nullptr), PreconditionError);
}

TEST_F(ApiEdges, AsyncForwardingRequiresRestricted) {
    NewTopService& server = add_nso();
    server.serve("svc", GroupConfig{}, std::make_shared<EchoServant>());
    NewTopService& client = add_nso();
    EXPECT_THROW(client.bind("svc", {.restricted = false, .async_forwarding = true}),
                 PreconditionError);
}

TEST_F(ApiEdges, BindGroupRequiresMembership) {
    NewTopService& server = add_nso();
    server.serve("svc", GroupConfig{}, std::make_shared<EchoServant>());
    NewTopService& outsider = add_nso();
    EXPECT_THROW(outsider.bind_group(GroupId(999), "svc"), PreconditionError);
}

TEST_F(ApiEdges, PeerGroupRequiresHandler) {
    NewTopService& peer = add_nso();
    EXPECT_THROW(peer.join_peer_group("room", GroupConfig{}, nullptr), PreconditionError);
}

TEST_F(ApiEdges, UnbindIsIdempotentAndStopsFurtherCalls) {
    NewTopService& server = add_nso();
    server.serve("svc", GroupConfig{}, std::make_shared<EchoServant>());
    NewTopService& client = add_nso();
    GroupProxy proxy = client.bind("svc", {});
    run_for(2'000'000);
    ASSERT_TRUE(proxy.ready());
    proxy.unbind();
    proxy.unbind();  // harmless
    EXPECT_FALSE(proxy.ready());
}

TEST_F(ApiEdges, InvokeAfterAllServersGoneCompletesIncomplete) {
    NewTopService& server = add_nso();
    server.serve("svc", GroupConfig{}, std::make_shared<EchoServant>());
    NewTopService& client = add_nso();
    GroupProxy proxy = client.bind("svc", {.call_timeout = 500'000});
    net.crash(orbs[0]->node_id());
    bool done = false;
    GroupReply result;
    proxy.invoke(1, {}, InvocationMode::kWaitAll, [&](const GroupReply& reply) {
        result = reply;
        done = true;
    });
    run_for(30'000'000);
    ASSERT_TRUE(done);
    EXPECT_FALSE(result.complete);
}

}  // namespace
}  // namespace newtop
