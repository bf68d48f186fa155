#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "endpoint_world.hpp"
#include "net/calibration.hpp"
#include "util/check.hpp"

namespace newtop {
namespace {

using namespace sim_literals;
using test::call;

constexpr std::uint32_t kGet = 1;
constexpr std::uint32_t kIncrement = 2;
constexpr std::uint32_t kFail = 3;
constexpr std::uint32_t kWhoAmI = 4;

/// Deterministic counter servant: lets tests observe execution counts and
/// replica state convergence.
class CounterServant : public GroupServant {
public:
    explicit CounterServant(std::string tag) : tag_(std::move(tag)) {}

    Bytes handle(std::uint32_t method, const Bytes& args) override {
        switch (method) {
            case kGet: return encode_to_bytes(value_);
            case kIncrement: {
                ++executions;
                value_ += decode_from_bytes<std::int64_t>(args);
                return encode_to_bytes(value_);
            }
            case kFail: throw ServantError("deliberate failure");
            case kWhoAmI: return encode_to_bytes(tag_);
            default: throw ServantError("no such method");
        }
    }

    [[nodiscard]] std::int64_t value() const { return value_; }
    int executions{0};

private:
    std::string tag_;
    std::int64_t value_{0};
};

/// The LAN world every invocation test runs in, oracle-checked.
struct InvWorld : World {
    InvWorld() : World(calibration::make_lan_topology(), 11) {}
    test::OracleScope oracle{net.metrics()};
};

/// Standard scenario: three servers on a LAN plus clients.
struct ThreeServerLan : ::testing::Test {
    ThreeServerLan() {
        for (int i = 0; i < 3; ++i) {
            NewTopService& server = world.add_nso();
            auto servant = std::make_shared<CounterServant>("s" + std::to_string(i));
            servants.push_back(servant);
            server.serve("svc", server_config(), servant);
            world.run_for(200_ms);
            servers.push_back(&server);
        }
        client = &world.add_nso();
    }

    static GroupConfig server_config() {
        GroupConfig cfg;
        cfg.order = OrderMode::kTotalAsymmetric;
        return cfg;
    }

    InvWorld world;
    std::vector<NewTopService*> servers;
    std::vector<std::shared_ptr<CounterServant>> servants;
    NewTopService* client{};
};

// -- open groups ---------------------------------------------------------------------

// Regression for the stale-config hazard: client bindings used to build
// their client/server group's GroupConfig locally (defaults + cs_order),
// so a runtime reconfiguration of the server group never reached new
// bindings.  All construction sites now share one directory-backed lookup
// — a binding created *after* a switch must inherit the server group's
// current policies, with only cs_order layered on top.
TEST_F(ThreeServerLan, NewBindingInheritsReconfiguredServerPolicies) {
    const auto* svc_info = world.directory.find_group("svc");
    ASSERT_NE(svc_info, nullptr);
    GroupConfig next = svc_info->config;
    next.order = OrderMode::kTotalSymmetric;
    next.liveness = LivenessMode::kLively;
    next.order_window = 5;
    servers[0]->reconfigure(svc_info->id, next);
    world.run_for(5_s);
    ASSERT_EQ(servers[0]->config_epoch(svc_info->id), 1u);

    NewTopService& late = world.add_nso();
    GroupProxy proxy = late.bind(
        "svc", {.mode = BindMode::kOpen, .cs_order = OrderMode::kTotalAsymmetric});
    world.run_for(2_s);
    ASSERT_TRUE(proxy.ready());

    // First binding of a fresh client: id 1, attempt 1.
    const std::string cs_name =
        "cs:" + std::to_string(late.id().value()) + ":1:1";
    const auto* cs_info = world.directory.find_group(cs_name);
    ASSERT_NE(cs_info, nullptr) << "client/server group not registered as " << cs_name;
    EXPECT_EQ(cs_info->config.order_window, 5u) << "switched window did not carry over";
    EXPECT_EQ(cs_info->config.liveness, LivenessMode::kLively);
    EXPECT_EQ(cs_info->config.order, OrderMode::kTotalAsymmetric) << "cs_order must win";
    EXPECT_EQ(cs_info->config.adaptive_asym_threshold, 0u)
        << "cs groups must never adapt on their own";

    // The new binding works against the reconfigured server group.
    const GroupReply reply = call(world, proxy, kIncrement, encode_to_bytes(std::int64_t{2}),
                                  InvocationMode::kWaitAll, 3_s);
    EXPECT_TRUE(reply.complete);
    EXPECT_EQ(reply.replies.size(), 3u);
}

TEST_F(ThreeServerLan, OpenWaitFirstReturnsOneReply) {
    GroupProxy proxy = client->bind("svc", {.mode = BindMode::kOpen});
    const GroupReply reply = call(world, proxy, kGet, Bytes{}, InvocationMode::kWaitFirst, 3_s);
    ASSERT_TRUE(reply.complete);
    ASSERT_GE(reply.replies.size(), 1u);
    EXPECT_TRUE(reply.replies[0].ok);
    EXPECT_EQ(decode_from_bytes<std::int64_t>(reply.replies[0].value), 0);
}

TEST_F(ThreeServerLan, OpenWaitAllGathersEveryMember) {
    GroupProxy proxy = client->bind("svc", {.mode = BindMode::kOpen});
    const GroupReply reply = call(world, proxy, kGet, Bytes{}, InvocationMode::kWaitAll, 3_s);
    ASSERT_TRUE(reply.complete);
    EXPECT_EQ(reply.replies.size(), 3u);
}

TEST_F(ThreeServerLan, OpenWaitMajorityNeedsTwoOfThree) {
    GroupProxy proxy = client->bind("svc", {.mode = BindMode::kOpen});
    const GroupReply reply = call(world, proxy, kGet, Bytes{}, InvocationMode::kWaitMajority, 3_s);
    ASSERT_TRUE(reply.complete);
    EXPECT_GE(reply.replies.size(), 2u);
}

TEST_F(ThreeServerLan, OpenOneWayExecutesEverywhereWithoutReplies) {
    GroupProxy proxy = client->bind("svc", {.mode = BindMode::kOpen});
    proxy.one_way(kIncrement, encode_to_bytes(std::int64_t{5}));
    world.run_for(2_s);
    for (const auto& servant : servants) EXPECT_EQ(servant->value(), 5);
}

TEST_F(ThreeServerLan, ActiveReplicationExecutesOnAllReplicas) {
    GroupProxy proxy = client->bind("svc", {.mode = BindMode::kOpen});
    const GroupReply reply =
        call(world, proxy, kIncrement, encode_to_bytes(std::int64_t{7}),
             InvocationMode::kWaitAll, 3_s);
    ASSERT_TRUE(reply.complete);
    for (const auto& entry : reply.replies) {
        EXPECT_TRUE(entry.ok);
        EXPECT_EQ(decode_from_bytes<std::int64_t>(entry.value), 7);
    }
    for (const auto& servant : servants) {
        EXPECT_EQ(servant->value(), 7);
        EXPECT_EQ(servant->executions, 1);
    }
}

TEST_F(ThreeServerLan, ServantExceptionReportedPerReplica) {
    GroupProxy proxy = client->bind("svc", {.mode = BindMode::kOpen});
    const GroupReply reply = call(world, proxy, kFail, Bytes{}, InvocationMode::kWaitAll, 3_s);
    ASSERT_TRUE(reply.complete);
    ASSERT_EQ(reply.replies.size(), 3u);
    for (const auto& entry : reply.replies) {
        EXPECT_FALSE(entry.ok);
        EXPECT_EQ(std::string(entry.value.begin(), entry.value.end()), "deliberate failure");
    }
    EXPECT_EQ(reply.first_value(), nullptr);
}

TEST_F(ThreeServerLan, RestrictedBindingPicksTheLeader) {
    GroupProxy proxy = client->bind("svc", {.mode = BindMode::kOpen, .restricted = true});
    world.run_for(500_ms);
    ASSERT_TRUE(proxy.ready());
    EXPECT_EQ(proxy.manager(), servers[0]->id());
}

TEST_F(ThreeServerLan, AsyncForwardingAnswersFromTheManager) {
    GroupProxy proxy = client->bind(
        "svc",
        {.mode = BindMode::kOpen, .restricted = true, .async_forwarding = true});
    const GroupReply reply =
        call(world, proxy, kIncrement, encode_to_bytes(std::int64_t{3}),
             InvocationMode::kWaitFirst, 3_s);
    ASSERT_TRUE(reply.complete);
    ASSERT_EQ(reply.replies.size(), 1u);
    EXPECT_EQ(reply.replies[0].replier, servers[0]->id());
    world.run_for(2_s);
    // The one-way forward still updated every replica exactly once.
    for (const auto& servant : servants) {
        EXPECT_EQ(servant->value(), 3);
        EXPECT_EQ(servant->executions, 1);
    }
}

TEST_F(ThreeServerLan, SequentialCallsKeepReplicasConsistent) {
    GroupProxy proxy = client->bind("svc", {.mode = BindMode::kOpen});
    std::int64_t expected = 0;
    for (int k = 1; k <= 5; ++k) {
        expected += k;
        const GroupReply reply =
            call(world, proxy, kIncrement, encode_to_bytes(std::int64_t{k}),
                 InvocationMode::kWaitAll, 3_s);
        ASSERT_TRUE(reply.complete);
    }
    for (const auto& servant : servants) EXPECT_EQ(servant->value(), expected);
}

TEST_F(ThreeServerLan, TwoClientsInterleavedStayConsistent) {
    NewTopService& client2 = world.add_nso();
    GroupProxy p1 = client->bind("svc", {.mode = BindMode::kOpen});
    GroupProxy p2 = client2.bind("svc", {.mode = BindMode::kOpen});
    int completions = 0;
    for (int k = 0; k < 10; ++k) {
        p1.invoke(kIncrement, encode_to_bytes(std::int64_t{1}), InvocationMode::kWaitAll,
                  [&](const GroupReply&) { ++completions; });
        p2.invoke(kIncrement, encode_to_bytes(std::int64_t{1}), InvocationMode::kWaitAll,
                  [&](const GroupReply&) { ++completions; });
    }
    world.run_for(5_s);
    EXPECT_EQ(completions, 20);
    for (const auto& servant : servants) {
        EXPECT_EQ(servant->value(), 20);
        EXPECT_EQ(servant->executions, 20);
    }
}

TEST_F(ThreeServerLan, OpenLanLatencyMatchesPaperAnchor) {
    // §5.1.1: a call through the NewTop service on a LAN takes ~2.5 ms
    // (about 2.5x a plain CORBA call).
    GroupProxy proxy = client->bind(
        "svc", {.mode = BindMode::kOpen, .restricted = true, .async_forwarding = true});
    world.run_for(500_ms);
    ASSERT_TRUE(proxy.ready());
    const SimTime start = world.scheduler.now();
    SimTime end = 0;
    proxy.invoke(kGet, Bytes{}, InvocationMode::kWaitFirst,
                 [&](const GroupReply&) { end = world.scheduler.now(); });
    world.run_for(1_s);
    ASSERT_GT(end, start);
    const double ms = to_ms(end - start);
    EXPECT_GT(ms, 1.0);
    EXPECT_LT(ms, 5.0);
}

// -- rebinding / fault tolerance -----------------------------------------------------

TEST_F(ThreeServerLan, ManagerCrashTriggersRebindAndCallCompletes) {
    GroupProxy proxy = client->bind("svc", {.mode = BindMode::kOpen, .restricted = true});
    world.run_for(500_ms);
    ASSERT_TRUE(proxy.ready());
    const EndpointId first_manager = *proxy.manager();

    // Crash the manager, then call: suspicion ejects it from the
    // client/server group, the smart proxy rebinds, the retry completes.
    world.net.crash(servers[0]->orb().node_id());
    GroupReply reply;
    bool done = false;
    proxy.invoke(kIncrement, encode_to_bytes(std::int64_t{4}), InvocationMode::kWaitAll,
                 [&](const GroupReply& r) {
                     reply = r;
                     done = true;
                 });
    world.run_for(10_s);
    ASSERT_TRUE(done);
    ASSERT_TRUE(reply.complete);
    EXPECT_EQ(reply.replies.size(), 2u);  // two survivors
    EXPECT_GE(proxy.rebinds(), 1u);
    EXPECT_NE(*proxy.manager(), first_manager);
    // Survivors executed exactly once despite the retry.
    EXPECT_EQ(servants[1]->executions, 1);
    EXPECT_EQ(servants[2]->executions, 1);
}

TEST_F(ThreeServerLan, RetryAfterManagerCrashDoesNotReexecute) {
    GroupProxy proxy = client->bind("svc", {.mode = BindMode::kOpen, .restricted = true});
    world.run_for(500_ms);
    // Let one call fully complete, then crash the manager mid-next-call.
    const GroupReply first =
        call(world, proxy, kIncrement, encode_to_bytes(std::int64_t{1}),
             InvocationMode::kWaitAll, 3_s);
    ASSERT_TRUE(first.complete);
    world.net.crash(servers[0]->orb().node_id());
    const GroupReply second = call(world, proxy, kIncrement, encode_to_bytes(std::int64_t{1}),
                                   InvocationMode::kWaitAll, 10_s);
    ASSERT_TRUE(second.complete);
    EXPECT_EQ(servants[1]->value(), 2);
    EXPECT_EQ(servants[1]->executions, 2);
    EXPECT_EQ(servants[2]->value(), 2);
}

TEST_F(ThreeServerLan, NonRestrictedClientsSpreadAcrossManagers) {
    std::map<EndpointId, int> managers;
    std::vector<GroupProxy> proxies;
    for (int i = 0; i < 6; ++i) {
        NewTopService& c = world.add_nso();
        proxies.push_back(c.bind("svc", {.mode = BindMode::kOpen}));
    }
    world.run_for(1_s);
    for (auto& proxy : proxies) {
        ASSERT_TRUE(proxy.ready());
        ++managers[*proxy.manager()];
    }
    EXPECT_GT(managers.size(), 1u);  // not everyone on the same server
}

// -- closed groups --------------------------------------------------------------------

TEST_F(ThreeServerLan, ClosedWaitAllGathersDirectReplies) {
    GroupProxy proxy = client->bind("svc", {.mode = BindMode::kClosed});
    world.run_for(500_ms);
    ASSERT_TRUE(proxy.ready());
    const GroupReply reply =
        call(world, proxy, kIncrement, encode_to_bytes(std::int64_t{2}),
             InvocationMode::kWaitAll, 3_s);
    ASSERT_TRUE(reply.complete);
    EXPECT_EQ(reply.replies.size(), 3u);
    for (const auto& servant : servants) EXPECT_EQ(servant->value(), 2);
}

TEST_F(ThreeServerLan, ClosedWaitFirstAndMajority) {
    GroupProxy proxy = client->bind("svc", {.mode = BindMode::kClosed});
    world.run_for(500_ms);
    const GroupReply first = call(world, proxy, kGet, Bytes{}, InvocationMode::kWaitFirst, 3_s);
    ASSERT_TRUE(first.complete);
    EXPECT_GE(first.replies.size(), 1u);
    const GroupReply majority = call(world, proxy, kGet, Bytes{},
                                     InvocationMode::kWaitMajority, 3_s);
    ASSERT_TRUE(majority.complete);
    EXPECT_GE(majority.replies.size(), 2u);
}

TEST_F(ThreeServerLan, ClosedServerCrashIsMaskedWithoutRebinding) {
    GroupProxy proxy = client->bind("svc", {.mode = BindMode::kClosed});
    world.run_for(500_ms);
    ASSERT_TRUE(proxy.ready());
    world.net.crash(servers[2]->orb().node_id());
    // wait-for-all adapts to the surviving membership; no rebind needed.
    const GroupReply reply = call(world, proxy, kIncrement, encode_to_bytes(std::int64_t{9}),
                                  InvocationMode::kWaitAll, 10_s);
    ASSERT_TRUE(reply.complete);
    EXPECT_EQ(reply.replies.size(), 2u);
    EXPECT_EQ(proxy.rebinds(), 0u);
    EXPECT_EQ(servants[0]->value(), 9);
    EXPECT_EQ(servants[1]->value(), 9);
}

TEST_F(ThreeServerLan, ClosedClientsShareTotalOrder) {
    NewTopService& client2 = world.add_nso();
    GroupProxy p1 = client->bind("svc", {.mode = BindMode::kClosed});
    GroupProxy p2 = client2.bind("svc", {.mode = BindMode::kClosed});
    world.run_for(500_ms);
    int completions = 0;
    for (int k = 0; k < 8; ++k) {
        p1.invoke(kIncrement, encode_to_bytes(std::int64_t{1}), InvocationMode::kWaitAll,
                  [&](const GroupReply&) { ++completions; });
        p2.invoke(kIncrement, encode_to_bytes(std::int64_t{1}), InvocationMode::kWaitAll,
                  [&](const GroupReply&) { ++completions; });
    }
    world.run_for(5_s);
    EXPECT_EQ(completions, 16);
    for (const auto& servant : servants) {
        EXPECT_EQ(servant->value(), 16);
        EXPECT_EQ(servant->executions, 16);
    }
}

// -- call timeout ---------------------------------------------------------------------

TEST_F(ThreeServerLan, CallTimeoutDeliversIncompleteReply) {
    // Crash all servers; a timed call must fail cleanly.
    for (const auto s : servers) world.net.crash(s->orb().node_id());
    GroupProxy proxy = client->bind("svc", {.mode = BindMode::kOpen, .call_timeout = 500_ms});
    GroupReply reply;
    bool done = false;
    proxy.invoke(kGet, Bytes{}, InvocationMode::kWaitAll, [&](const GroupReply& r) {
        reply = r;
        done = true;
    });
    world.run_for(20_s);
    ASSERT_TRUE(done);
    EXPECT_FALSE(reply.complete);
}

// -- group-to-group (§4.3) --------------------------------------------------------------

TEST_F(ThreeServerLan, GroupToGroupDeliversRepliesToAllClientMembers) {
    NewTopService& cx1 = world.add_nso();
    NewTopService& cx2 = world.add_nso();

    // Build the client group gx = {cx1, cx2}.
    GroupConfig gx_cfg;
    gx_cfg.order = OrderMode::kTotalSymmetric;
    const GroupId gx = cx1.group_comm().create_group("gx", gx_cfg);
    cx2.group_comm().join_group("gx");
    world.run_for(300_ms);
    ASSERT_TRUE(cx2.group_comm().is_member(gx));

    GroupProxy px1 = cx1.bind_group(gx, "svc");
    GroupProxy px2 = cx2.bind_group(gx, "svc");
    world.run_for(1_s);
    ASSERT_TRUE(px1.ready());
    ASSERT_TRUE(px2.ready());

    GroupReply r1, r2;
    bool done1 = false, done2 = false;
    px1.invoke(kIncrement, encode_to_bytes(std::int64_t{6}), InvocationMode::kWaitAll,
               [&](const GroupReply& r) {
                   r1 = r;
                   done1 = true;
               });
    px2.invoke(kIncrement, encode_to_bytes(std::int64_t{6}), InvocationMode::kWaitAll,
               [&](const GroupReply& r) {
                   r2 = r;
                   done2 = true;
               });
    world.run_for(5_s);
    ASSERT_TRUE(done1);
    ASSERT_TRUE(done2);
    EXPECT_TRUE(r1.complete);
    EXPECT_TRUE(r2.complete);
    EXPECT_EQ(r1.replies.size(), 3u);
    EXPECT_EQ(r2.replies.size(), 3u);
    // The duplicate-filtered request executed exactly once per replica.
    for (const auto& servant : servants) {
        EXPECT_EQ(servant->value(), 6);
        EXPECT_EQ(servant->executions, 1);
    }
}

// -- peer participation -----------------------------------------------------------------

TEST(PeerParticipation, AllMembersSeeAllMessagesInAgreedOrder) {
    InvWorld world;
    GroupConfig cfg;
    cfg.order = OrderMode::kTotalSymmetric;
    cfg.liveness = LivenessMode::kLively;

    std::vector<std::vector<std::string>> logs(3);
    std::vector<PeerGroup> handles;
    for (int i = 0; i < 3; ++i) {
        handles.push_back(world.add_nso().join_peer_group(
            "room", cfg, [&logs, i](const NewTopService::PeerMessage& m) {
                logs[static_cast<std::size_t>(i)].push_back(
                    std::string(m.payload.begin(), m.payload.end()));
            }));
        world.run_for(300_ms);
    }
    for (auto& handle : handles) ASSERT_TRUE(handle.joined());

    for (int round = 0; round < 4; ++round) {
        for (std::size_t i = 0; i < handles.size(); ++i) {
            const std::string text = std::to_string(i) + "@" + std::to_string(round);
            handles[i].publish(Bytes(text.begin(), text.end()));
        }
    }
    world.run_for(3_s);
    EXPECT_EQ(logs[0].size(), 12u);
    EXPECT_EQ(logs[1], logs[0]);
    EXPECT_EQ(logs[2], logs[0]);
}

TEST(PeerParticipation, ViewHandlerSeesMembershipGrow) {
    InvWorld world;
    GroupConfig cfg;
    cfg.liveness = LivenessMode::kLively;
    std::vector<std::size_t> view_sizes;
    NewTopService& a = world.add_nso();
    a.join_peer_group(
        "room", cfg, [](const NewTopService::PeerMessage&) {},
        [&](const View& v) { view_sizes.push_back(v.members.size()); });
    NewTopService& b = world.add_nso();
    b.join_peer_group("room", cfg, [](const NewTopService::PeerMessage&) {});
    world.run_for(500_ms);
    ASSERT_FALSE(view_sizes.empty());
    EXPECT_EQ(view_sizes.back(), 2u);
}

// -- envelope wire format ----------------------------------------------------------------

TEST(Envelope, AllVariantsRoundTrip) {
    RequestEnv request;
    request.call = CallId{42, 7, false};
    request.mode = InvocationMode::kWaitMajority;
    request.flags = kFlagAsyncForwarding;
    request.server_group = GroupId(3);
    request.bind = BindMode::kOpen;
    request.method = 9;
    request.args = Bytes{1, 2, 3};
    const auto request_out = decode_envelope(encode_envelope(request));
    const auto* r = std::get_if<RequestEnv>(&request_out);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->call, request.call);
    EXPECT_EQ(r->flags, kFlagAsyncForwarding);
    EXPECT_EQ(r->args, request.args);

    AggregateEnv aggregate;
    aggregate.call = CallId{1, 2, true};
    aggregate.replies = {ReplyEntry{EndpointId(5), false, Bytes{9}}};
    const auto aggregate_out = decode_envelope(encode_envelope(aggregate));
    const auto* a = std::get_if<AggregateEnv>(&aggregate_out);
    ASSERT_NE(a, nullptr);
    ASSERT_EQ(a->replies.size(), 1u);
    EXPECT_FALSE(a->replies[0].ok);
}

TEST(Envelope, GarbageRejected) {
    EXPECT_THROW(decode_envelope(Bytes{}), DecodeError);
    EXPECT_THROW(decode_envelope(Bytes{0xff, 0x01}), DecodeError);
}

}  // namespace
}  // namespace newtop
