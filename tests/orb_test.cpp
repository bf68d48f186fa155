#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/calibration.hpp"
#include "newtop/world.hpp"
#include "replication/active_replica.hpp"
#include "util/check.hpp"

namespace newtop {
namespace {

using namespace sim_literals;

constexpr std::uint32_t kEcho = 1;
constexpr std::uint32_t kAdd = 2;
constexpr std::uint32_t kBoom = 3;

/// Test servant: echoes, adds, or throws.
class TestServant : public Servant {
public:
    Bytes dispatch(std::uint32_t method, BytesView args) override {
        ++calls;
        switch (method) {
            case kEcho: return Bytes(args.begin(), args.end());
            case kAdd: {
                Decoder d(args);
                const auto a = d.get_i64();
                const auto b = d.get_i64();
                return encode_to_bytes(a + b);
            }
            case kBoom: throw ServantError("kaboom");
            default: throw ServantError("no such method");
        }
    }
    int calls{0};
};

struct OrbFixture : ::testing::Test, World {
    OrbFixture() : World(calibration::make_lan_topology(), 42) {}

    Orb& client = add_orb();
    Orb& server = add_orb();
    NodeId client_node = client.node_id();
    NodeId server_node = server.node_id();
    std::shared_ptr<TestServant> servant = std::make_shared<TestServant>();
    Ior target = server.adapter().activate(servant, "Test");
};

TEST_F(OrbFixture, RoundTripEcho) {
    Bytes got;
    ReplyStatus status{};
    client.invoke(target, kEcho, encode_to_bytes(std::string("ping")),
                  [&](ReplyStatus s, const Bytes& payload) {
                      status = s;
                      got = payload;
                  });
    scheduler.run();
    EXPECT_EQ(status, ReplyStatus::kOk);
    EXPECT_EQ(decode_from_bytes<std::string>(got), "ping");
    EXPECT_EQ(servant->calls, 1);
}

TEST_F(OrbFixture, TypedAddCall) {
    Encoder e;
    e.put_i64(40);
    e.put_i64(2);
    std::int64_t result = 0;
    client.invoke(target, kAdd, std::move(e).take(), [&](ReplyStatus s, const Bytes& payload) {
        ASSERT_EQ(s, ReplyStatus::kOk);
        result = decode_from_bytes<std::int64_t>(payload);
    });
    scheduler.run();
    EXPECT_EQ(result, 42);
}

TEST_F(OrbFixture, LanRoundTripLatencyMatchesPaperAnchor) {
    // The paper's anchor: a plain CORBA call on the LAN is about 1 ms.
    SimTime completed = -1;
    client.invoke(target, kEcho, Bytes{}, [&](ReplyStatus, const Bytes&) {
        completed = scheduler.now();
    });
    scheduler.run();
    EXPECT_GT(completed, 800);    // > 0.8 ms
    EXPECT_LT(completed, 1500);   // < 1.5 ms
}

TEST_F(OrbFixture, ServantExceptionPropagates) {
    ReplyStatus status{};
    std::string message;
    client.invoke(target, kBoom, Bytes{}, [&](ReplyStatus s, const Bytes& payload) {
        status = s;
        message = decode_from_bytes<std::string>(payload);
    });
    scheduler.run();
    EXPECT_EQ(status, ReplyStatus::kException);
    EXPECT_EQ(message, "kaboom");
}

TEST_F(OrbFixture, UnknownObjectGivesNoObject) {
    Ior bogus{server_node, ObjectKey(9999), "Test"};
    ReplyStatus status{};
    client.invoke(bogus, kEcho, Bytes{}, [&](ReplyStatus s, const Bytes&) { status = s; });
    scheduler.run();
    EXPECT_EQ(status, ReplyStatus::kNoObject);
}

TEST_F(OrbFixture, DeactivatedObjectGivesNoObject) {
    server.adapter().deactivate(target.key);
    ReplyStatus status{};
    client.invoke(target, kEcho, Bytes{}, [&](ReplyStatus s, const Bytes&) { status = s; });
    scheduler.run();
    EXPECT_EQ(status, ReplyStatus::kNoObject);
}

TEST_F(OrbFixture, TimeoutFiresWhenServerCrashed) {
    net.crash(server_node);
    ReplyStatus status{};
    SimTime at = -1;
    client.invoke(target, kEcho, Bytes{}, [&](ReplyStatus s, const Bytes&) {
        status = s;
        at = scheduler.now();
    }, 10_ms);
    scheduler.run();
    EXPECT_EQ(status, ReplyStatus::kTimeout);
    EXPECT_EQ(at, 10_ms);
}

TEST_F(OrbFixture, HandlerRunsExactlyOnceWhenReplyBeatsTimeout) {
    int completions = 0;
    client.invoke(target, kEcho, Bytes{}, [&](ReplyStatus s, const Bytes&) {
        ++completions;
        EXPECT_EQ(s, ReplyStatus::kOk);
    }, 1_s);
    scheduler.run();
    EXPECT_EQ(completions, 1);
}

TEST_F(OrbFixture, CancelSuppressesHandler) {
    bool ran = false;
    const OrbCallId id =
        client.invoke(target, kEcho, Bytes{}, [&](ReplyStatus, const Bytes&) { ran = true; });
    client.cancel(id);
    scheduler.run();
    EXPECT_FALSE(ran);
    EXPECT_EQ(servant->calls, 1);  // server still executed the request
}

// Finished calls hand their map nodes to later calls: a recycled node must
// carry only its new call's handler, whether the old call was cancelled or
// timed out.
TEST_F(OrbFixture, RecycledCallNeverRunsAnOldHandler) {
    int cancelled_runs = 0;
    const OrbCallId cancelled = client.invoke(
        target, kEcho, Bytes{}, [&](ReplyStatus, const Bytes&) { ++cancelled_runs; }, 1_s);
    client.cancel(cancelled);
    scheduler.run();

    net.crash(server_node);
    int timed_out_runs = 0;
    client.invoke(target, kEcho, Bytes{}, [&](ReplyStatus s, const Bytes&) {
        ++timed_out_runs;
        EXPECT_EQ(s, ReplyStatus::kTimeout);
    }, 10_ms);
    scheduler.run();
    ASSERT_EQ(timed_out_runs, 1);

    Orb& revived = add_orb();
    const Ior other = revived.adapter().activate(std::make_shared<TestServant>(), "Test");
    std::vector<ReplyStatus> fresh;
    for (int i = 0; i < 3; ++i) {
        client.invoke(other, kEcho, Bytes{},
                      [&](ReplyStatus s, const Bytes&) { fresh.push_back(s); }, 1_s);
    }
    scheduler.run();
    EXPECT_EQ(fresh, std::vector<ReplyStatus>(3, ReplyStatus::kOk));
    EXPECT_EQ(cancelled_runs, 0);
    EXPECT_EQ(timed_out_runs, 1);
}

TEST_F(OrbFixture, CancelDestroysTheHandlerAtOnce) {
    const auto held = std::make_shared<int>(1);
    const OrbCallId id =
        client.invoke(target, kEcho, Bytes{}, [held](ReplyStatus, const Bytes&) {}, 1_s);
    EXPECT_EQ(held.use_count(), 2);
    client.cancel(id);
    EXPECT_EQ(held.use_count(), 1);
    scheduler.run();
}

TEST_F(OrbFixture, OnewayExecutesWithoutReply) {
    client.invoke_oneway(target, kEcho, encode_to_bytes(std::string("fire")));
    scheduler.run();
    EXPECT_EQ(servant->calls, 1);
}

TEST_F(OrbFixture, OnewayServantExceptionIsSwallowed) {
    client.invoke_oneway(target, kBoom, Bytes{});
    EXPECT_NO_THROW(scheduler.run());
    EXPECT_EQ(servant->calls, 1);
}

TEST_F(OrbFixture, ConcurrentCallsCorrelateIndependently) {
    std::vector<std::int64_t> results(3, 0);
    for (int i = 0; i < 3; ++i) {
        Encoder e;
        e.put_i64(i);
        e.put_i64(100);
        client.invoke(target, kAdd, std::move(e).take(),
                      [&results, i](ReplyStatus s, const Bytes& payload) {
                          ASSERT_EQ(s, ReplyStatus::kOk);
                          results[static_cast<std::size_t>(i)] =
                              decode_from_bytes<std::int64_t>(payload);
                      });
    }
    scheduler.run();
    EXPECT_EQ(results, (std::vector<std::int64_t>{100, 101, 102}));
}

TEST_F(OrbFixture, ServerCpuSerializesRequests) {
    // Two concurrent clients: the second reply completes after the first
    // by at least the servant execution time (single-CPU server).
    Orb& client2 = add_orb();
    SimTime done1 = -1, done2 = -1;
    client.invoke(target, kEcho, Bytes{}, [&](ReplyStatus, const Bytes&) {
        done1 = scheduler.now();
    });
    client2.invoke(target, kEcho, Bytes{}, [&](ReplyStatus, const Bytes&) {
        done2 = scheduler.now();
    });
    scheduler.run();
    ASSERT_GE(done1, 0);
    ASSERT_GE(done2, 0);
    EXPECT_NE(done1, done2);
}

TEST_F(OrbFixture, MalformedWireBytesAreDropped) {
    net.send(client_node, server_node, Bytes{0x07, 0x01});  // unknown type
    net.send(client_node, server_node, Bytes{});            // empty
    EXPECT_NO_THROW(scheduler.run());
}

// Regressions: a servant that cannot unmarshal its arguments throws
// DecodeError.  That fails the one call, like a ServantError, and must not
// unwind through the scheduler and abort the whole run.
TEST(OrbMalformedArgs, TwoWayCallGetsAnException) {
    World world(calibration::make_lan_topology(), 42);
    NewTopService& nso = world.add_nso();
    Orb& client = world.add_orb();
    std::optional<ReplyStatus> status;
    client.invoke(world.directory.nso_ior(nso.id()), kNsoJoinCsMethod, Bytes{0x01},
                  [&](ReplyStatus s, const Bytes&) { status = s; }, 1_s);
    EXPECT_NO_THROW(world.run_for(100_ms));
    EXPECT_EQ(status, ReplyStatus::kException);
}

class NoState : public StatefulServant {
public:
    Bytes handle(std::uint32_t, const Bytes&) override { return {}; }
    [[nodiscard]] Bytes snapshot() const override { return {}; }
    void restore(const Bytes&) override {}
};

TEST(OrbMalformedArgs, OnewayIsDropped) {
    World world(calibration::make_lan_topology(), 42);
    NewTopService& nso = world.add_nso();
    ActiveReplica replica(nso, "svc", GroupConfig{}, std::make_shared<NoState>());
    Orb& client = world.add_orb();
    const Ior* transfer =
        world.directory.find_object("state:svc:" + std::to_string(nso.id().value()));
    ASSERT_NE(transfer, nullptr);
    client.invoke_oneway(*transfer, kStateRequestMethod, Bytes{0x01});
    EXPECT_NO_THROW(world.run_for(100_ms));
    EXPECT_TRUE(replica.synced());
}

TEST_F(OrbFixture, InvokeRequiresHandler) {
    EXPECT_THROW(client.invoke(target, kEcho, Bytes{}, nullptr), PreconditionError);
}

// -- IOGR (object group reference) failover ---------------------------------

struct IogrFixture : OrbFixture {
    Orb& backup = add_orb();
    std::shared_ptr<TestServant> backup_servant = std::make_shared<TestServant>();
    Ior backup_ior = backup.adapter().activate(backup_servant, "Test");
};

TEST_F(IogrFixture, PrimaryServesWhenHealthy) {
    Iogr group{{target, backup_ior}, 0};
    ReplyStatus status{};
    client.invoke_group(group, kEcho, Bytes{}, [&](ReplyStatus s, const Bytes&) { status = s; },
                        20_ms);
    scheduler.run();
    EXPECT_EQ(status, ReplyStatus::kOk);
    EXPECT_EQ(servant->calls, 1);
    EXPECT_EQ(backup_servant->calls, 0);
}

TEST_F(IogrFixture, FailsOverWhenPrimaryCrashed) {
    net.crash(server_node);
    Iogr group{{target, backup_ior}, 0};
    ReplyStatus status{};
    client.invoke_group(group, kEcho, Bytes{}, [&](ReplyStatus s, const Bytes&) { status = s; },
                        20_ms);
    scheduler.run();
    EXPECT_EQ(status, ReplyStatus::kOk);
    EXPECT_EQ(backup_servant->calls, 1);
}

TEST_F(IogrFixture, RespectsPrimaryIndex) {
    Iogr group{{target, backup_ior}, 1};  // backup designated primary
    client.invoke_group(group, kEcho, Bytes{}, [](ReplyStatus, const Bytes&) {}, 20_ms);
    scheduler.run();
    EXPECT_EQ(backup_servant->calls, 1);
    EXPECT_EQ(servant->calls, 0);
}

TEST_F(IogrFixture, AllMembersDownReportsTimeout) {
    net.crash(server_node);
    net.crash(backup.node_id());
    Iogr group{{target, backup_ior}, 0};
    ReplyStatus status{};
    client.invoke_group(group, kEcho, Bytes{}, [&](ReplyStatus s, const Bytes&) { status = s; },
                        20_ms);
    scheduler.run();
    EXPECT_EQ(status, ReplyStatus::kTimeout);
}

TEST_F(IogrFixture, FailsOverOnMissingObjectToo) {
    server.adapter().deactivate(target.key);
    Iogr group{{target, backup_ior}, 0};
    ReplyStatus status{};
    client.invoke_group(group, kEcho, Bytes{}, [&](ReplyStatus s, const Bytes&) { status = s; },
                        20_ms);
    scheduler.run();
    EXPECT_EQ(status, ReplyStatus::kOk);
    EXPECT_EQ(backup_servant->calls, 1);
}

TEST_F(IogrFixture, EmptyGroupRejected) {
    Iogr empty;
    EXPECT_THROW(
        client.invoke_group(empty, kEcho, Bytes{}, [](ReplyStatus, const Bytes&) {}, 20_ms),
        PreconditionError);
}

TEST_F(IogrFixture, IogrRoundTripsThroughSerialization) {
    Iogr group{{target, backup_ior}, 1};
    const Iogr out = decode_from_bytes<Iogr>(encode_to_bytes(group));
    EXPECT_EQ(out, group);
}

TEST_F(IogrFixture, MalformedIogrPrimaryIndexRejected) {
    Iogr group{{target}, 5};
    EXPECT_THROW(decode_from_bytes<Iogr>(encode_to_bytes(group)), DecodeError);
}

}  // namespace
}  // namespace newtop
