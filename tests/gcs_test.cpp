#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "endpoint_world.hpp"
#include "gcs/endpoint.hpp"
#include "net/calibration.hpp"
#include "sim/cpu_queue.hpp"
#include "trace_oracle.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace newtop {
namespace {

using namespace sim_literals;

using test::payload_of;
std::string to_string(const Bytes& b) { return std::string(b.begin(), b.end()); }

/// A small simulated world of endpoints for GCS integration tests.
struct GcsWorld : World {
    struct Logged {
        GroupId group;
        EndpointId sender;
        std::string payload;
    };

    explicit GcsWorld(Topology topology, std::uint64_t seed = 7)
        : World(std::move(topology), seed) {}

    std::size_t add_endpoint(SiteId site) {
        auto ep = std::make_unique<GroupCommEndpoint>(add_orb(site), directory);
        const std::size_t index = endpoints.size();
        delivered.emplace_back();
        views.emplace_back();
        removed.emplace_back();
        ep->set_deliver_handler([this, index](const GroupCommEndpoint::Delivery& d) {
            delivered[index].push_back(Logged{d.group, d.sender, to_string(d.payload)});
        });
        ep->set_view_handler([this, index](const GroupCommEndpoint::ViewChangeEvent& event) {
            views[index].push_back(event.view);
        });
        ep->set_removed_handler([this, index](GroupId g) { removed[index].push_back(g); });
        endpoints.push_back(std::move(ep));
        return index;
    }

    GroupCommEndpoint& ep(std::size_t i) { return *endpoints[i]; }

    /// Payload strings delivered at endpoint i for a group, in order.
    std::vector<std::string> log_of(std::size_t i, GroupId g) const {
        std::vector<std::string> out;
        for (const auto& entry : delivered[i]) {
            if (entry.group == g) out.push_back(entry.payload);
        }
        return out;
    }

    test::OracleScope oracle{net.metrics()};
    std::vector<std::unique_ptr<GroupCommEndpoint>> endpoints;
    std::vector<std::vector<Logged>> delivered;
    std::vector<std::vector<View>> views;
    std::vector<std::vector<GroupId>> removed;
};

GroupConfig config_for(OrderMode order, LivenessMode liveness = LivenessMode::kEventDriven) {
    GroupConfig cfg;
    cfg.order = order;
    cfg.liveness = liveness;
    return cfg;
}

struct LanGcs : ::testing::Test {
    LanGcs() : world(calibration::make_lan_topology()) {}

    /// a creates "g" under `cfg` and b joins it: {a, b, g}, both members.
    std::tuple<std::size_t, std::size_t, GroupId> pair_group(const GroupConfig& cfg) {
        const auto a = world.add_endpoint(SiteId(0));
        const auto b = world.add_endpoint(SiteId(0));
        const GroupId g = world.ep(a).create_group("g", cfg);
        world.ep(b).join_group("g");
        world.run_for(100_ms);
        return {a, b, g};
    }

    GcsWorld world;
};

// -- group lifecycle -----------------------------------------------------------

TEST_F(LanGcs, CreateInstallsSingletonView) {
    const auto a = world.add_endpoint(SiteId(0));
    const GroupId g = world.ep(a).create_group("g", config_for(OrderMode::kTotalSymmetric));
    ASSERT_TRUE(world.ep(a).is_member(g));
    const View* view = world.ep(a).current_view(g);
    ASSERT_NE(view, nullptr);
    EXPECT_EQ(view->epoch, 1u);
    EXPECT_EQ(view->members, std::vector<EndpointId>{world.ep(a).id()});
    ASSERT_EQ(world.views[a].size(), 1u);
}

TEST_F(LanGcs, DuplicateGroupNameRejected) {
    const auto a = world.add_endpoint(SiteId(0));
    world.ep(a).create_group("g", config_for(OrderMode::kTotalSymmetric));
    EXPECT_THROW(world.ep(a).create_group("g", config_for(OrderMode::kTotalSymmetric)),
                 PreconditionError);
}

TEST_F(LanGcs, JoinYieldsCommonView) {
    const auto [a, b, g] = pair_group(config_for(OrderMode::kTotalSymmetric));
    ASSERT_TRUE(world.ep(b).is_member(g));
    const View* va = world.ep(a).current_view(g);
    const View* vb = world.ep(b).current_view(g);
    ASSERT_NE(va, nullptr);
    ASSERT_NE(vb, nullptr);
    EXPECT_EQ(*va, *vb);
    EXPECT_EQ(va->members.size(), 2u);
}

TEST_F(LanGcs, ThreeMembersJoinSequentially) {
    const auto a = world.add_endpoint(SiteId(0));
    const auto b = world.add_endpoint(SiteId(0));
    const auto c = world.add_endpoint(SiteId(0));
    const GroupId g = world.ep(a).create_group("g", config_for(OrderMode::kTotalSymmetric));
    world.ep(b).join_group("g");
    world.run_for(100_ms);
    world.ep(c).join_group("g");
    world.run_for(100_ms);
    for (auto i : {a, b, c}) {
        ASSERT_TRUE(world.ep(i).is_member(g)) << "endpoint " << i;
        EXPECT_EQ(world.ep(i).current_view(g)->members.size(), 3u);
    }
}

TEST_F(LanGcs, ConcurrentJoinsConverge) {
    const auto a = world.add_endpoint(SiteId(0));
    const auto b = world.add_endpoint(SiteId(0));
    const auto c = world.add_endpoint(SiteId(0));
    const GroupId g = world.ep(a).create_group("g", config_for(OrderMode::kTotalSymmetric));
    world.ep(b).join_group("g");
    world.ep(c).join_group("g");
    world.run_for(2_s);
    for (auto i : {a, b, c}) {
        ASSERT_TRUE(world.ep(i).is_member(g));
        EXPECT_EQ(world.ep(i).current_view(g)->members.size(), 3u);
    }
}

TEST_F(LanGcs, LeaveRemovesMemberAndNotifies) {
    const auto [a, b, g] = pair_group(config_for(OrderMode::kTotalSymmetric));
    world.ep(b).leave_group(g);
    world.run_for(500_ms);
    EXPECT_FALSE(world.ep(b).knows_group(g));
    EXPECT_EQ(world.removed[b], std::vector<GroupId>{g});
    ASSERT_TRUE(world.ep(a).is_member(g));
    EXPECT_EQ(world.ep(a).current_view(g)->members.size(), 1u);
}

TEST_F(LanGcs, LastMemberLeavingDisbands) {
    const auto a = world.add_endpoint(SiteId(0));
    const GroupId g = world.ep(a).create_group("g", config_for(OrderMode::kTotalSymmetric));
    world.ep(a).leave_group(g);
    EXPECT_FALSE(world.ep(a).knows_group(g));
    EXPECT_EQ(world.removed[a], std::vector<GroupId>{g});
}

TEST_F(LanGcs, JoinUnknownGroupThrows) {
    const auto a = world.add_endpoint(SiteId(0));
    EXPECT_THROW(world.ep(a).join_group("nope"), PreconditionError);
}

// -- ordered multicast ----------------------------------------------------------

struct OrderedGroup : LanGcs, ::testing::WithParamInterface<OrderMode> {
    GroupId make_group(std::size_t n_members) {
        indices.clear();
        for (std::size_t i = 0; i < n_members; ++i) indices.push_back(world.add_endpoint(SiteId(0)));
        group = world.ep(indices[0]).create_group("g", config_for(GetParam()));
        for (std::size_t i = 1; i < n_members; ++i) {
            world.ep(indices[i]).join_group("g");
            world.run_for(100_ms);
        }
        return group;
    }

    std::vector<std::size_t> indices;
    GroupId group;
};

TEST_P(OrderedGroup, SingleMulticastReachesAll) {
    make_group(3);
    world.ep(indices[0]).multicast(group, payload_of("hello"));
    world.run_for(200_ms);
    for (auto i : indices) {
        EXPECT_EQ(world.log_of(i, group), std::vector<std::string>{"hello"})
            << "at endpoint " << i;
    }
}

TEST_P(OrderedGroup, ConcurrentMulticastsDeliverInIdenticalOrder) {
    make_group(4);
    for (std::size_t round = 0; round < 5; ++round) {
        for (auto i : indices) {
            world.ep(i).multicast(group, payload_of(test::label("m", i, ".", round)));
        }
    }
    world.run_for(2_s);
    const auto reference = world.log_of(indices[0], group);
    EXPECT_EQ(reference.size(), 20u);
    for (auto i : indices) {
        EXPECT_EQ(world.log_of(i, group), reference) << "at endpoint " << i;
    }
}

TEST_P(OrderedGroup, SenderFifoPreserved) {
    make_group(3);
    for (int k = 0; k < 10; ++k) {
        world.ep(indices[1]).multicast(group, payload_of(test::label("s", k)));
    }
    world.run_for(1_s);
    const auto log = world.log_of(indices[2], group);
    ASSERT_EQ(log.size(), 10u);
    for (int k = 0; k < 10; ++k) EXPECT_EQ(log[static_cast<std::size_t>(k)], test::label("s", k));
}

TEST_P(OrderedGroup, SurvivesMessageLoss) {
    // 10% loss: NACK-based retransmission must still deliver everything,
    // in the same order everywhere.
    Topology lossy;
    lossy.add_site("LAN", LinkParams{.latency = 250, .jitter = 30, .loss = 0.10,
                                     .bytes_per_us = 12.5});
    GcsWorld w(std::move(lossy), 21);
    std::vector<std::size_t> members;
    for (int i = 0; i < 3; ++i) members.push_back(w.add_endpoint(SiteId(0)));
    const GroupId g = w.ep(members[0]).create_group("g", config_for(GetParam()));
    for (std::size_t i = 1; i < members.size(); ++i) {
        w.ep(members[i]).join_group("g");
        // Lost join/propose/install messages are healed by retries and
        // view-change timeouts; give them room.
        w.run_for(3_s);
    }
    for (auto i : members) ASSERT_TRUE(w.ep(i).is_member(g));
    for (int k = 0; k < 10; ++k) {
        for (auto i : members) w.ep(i).multicast(g, payload_of(std::to_string(i) + ":" + std::to_string(k)));
        w.run_for(50_ms);
    }
    w.run_for(3_s);
    const auto reference = w.log_of(members[0], g);
    EXPECT_EQ(reference.size(), 30u);
    for (auto i : members) EXPECT_EQ(w.log_of(i, g), reference) << "at endpoint " << i;
}

TEST_P(OrderedGroup, CrashedMemberIsEjectedAndTrafficContinues) {
    make_group(3);
    world.ep(indices[0]).multicast(group, payload_of("before"));
    world.run_for(200_ms);
    // Crash the last-ranked member (not the sequencer).
    world.net.crash(world.orbs[indices[2]]->node_id());
    world.ep(indices[0]).multicast(group, payload_of("during"));
    world.run_for(2_s);
    for (auto i : {indices[0], indices[1]}) {
        ASSERT_TRUE(world.ep(i).is_member(group));
        EXPECT_EQ(world.ep(i).current_view(group)->members.size(), 2u) << "at " << i;
    }
    world.ep(indices[1]).multicast(group, payload_of("after"));
    world.run_for(1_s);
    for (auto i : {indices[0], indices[1]}) {
        EXPECT_EQ(world.log_of(i, group),
                  (std::vector<std::string>{"before", "during", "after"}))
            << "at " << i;
    }
}

TEST_P(OrderedGroup, LeaderCrashIsRecovered) {
    // Crashing the first-ranked member kills both the membership coordinator
    // and (in asymmetric mode) the sequencer; the survivors must agree on a
    // new view and keep ordering.
    make_group(3);
    world.run_for(100_ms);
    // Lowest endpoint id belongs to the creator (registered first).
    world.net.crash(world.orbs[indices[0]]->node_id());
    world.ep(indices[1]).multicast(group, payload_of("x"));
    world.ep(indices[2]).multicast(group, payload_of("y"));
    world.run_for(3_s);
    for (auto i : {indices[1], indices[2]}) {
        ASSERT_TRUE(world.ep(i).is_member(group)) << "at " << i;
        EXPECT_EQ(world.ep(i).current_view(group)->members.size(), 2u);
    }
    const auto reference = world.log_of(indices[1], group);
    EXPECT_EQ(reference.size(), 2u);
    EXPECT_EQ(world.log_of(indices[2], group), reference);
}

TEST_P(OrderedGroup, VirtualSynchronySameDeliveriesAcrossViewChange) {
    make_group(4);
    // Fire a burst and crash a member mid-burst.
    for (int k = 0; k < 8; ++k) {
        for (auto i : indices) world.ep(i).multicast(group, payload_of(std::to_string(i) + "#" + std::to_string(k)));
    }
    world.scheduler.schedule_after(1_ms, [&] {
        world.net.crash(world.orbs[indices[3]]->node_id());
    });
    world.run_for(4_s);
    const auto reference = world.log_of(indices[0], group);
    for (auto i : {indices[1], indices[2]}) {
        EXPECT_EQ(world.log_of(i, group), reference) << "at " << i;
    }
    // Survivors' own messages must all have been delivered (atomicity +
    // resubmission); the crashed member's messages may or may not appear,
    // but identically everywhere.
    for (auto sender : {indices[0], indices[1], indices[2]}) {
        for (int k = 0; k < 8; ++k) {
            const std::string want = std::to_string(sender) + "#" + std::to_string(k);
            EXPECT_NE(std::find(reference.begin(), reference.end(), want), reference.end())
                << "missing " << want;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Protocols, OrderedGroup,
                         ::testing::Values(OrderMode::kTotalSymmetric,
                                           OrderMode::kTotalAsymmetric),
                         [](const auto& info) {
                             return info.param == OrderMode::kTotalSymmetric ? "Symmetric"
                                                                             : "Asymmetric";
                         });

// -- causal mode -------------------------------------------------------------------

TEST_F(LanGcs, CausalModeDeliversCausallyRelatedInOrder) {
    const auto a = world.add_endpoint(SiteId(0));
    const auto b = world.add_endpoint(SiteId(0));
    const auto c = world.add_endpoint(SiteId(0));
    const GroupId g = world.ep(a).create_group("g", config_for(OrderMode::kCausal));
    world.oracle.options().causal_groups.insert(g.value());
    world.ep(b).join_group("g");
    world.run_for(100_ms);
    world.ep(c).join_group("g");
    world.run_for(100_ms);

    // b replies to a's message: everyone must see "ask" before "answer".
    world.ep(b).set_deliver_handler([&](const GroupCommEndpoint::Delivery& d) {
        world.delivered[b].push_back({d.group, d.sender, to_string(d.payload)});
        if (to_string(d.payload) == "ask") world.ep(b).multicast(g, payload_of("answer"));
    });
    world.ep(a).multicast(g, payload_of("ask"));
    world.run_for(1_s);
    for (auto i : {a, b, c}) {
        EXPECT_EQ(world.log_of(i, g), (std::vector<std::string>{"ask", "answer"})) << "at " << i;
    }
}

/// Records, as `node` receives them, the GCS DATA frames carried by ORB
/// requests (kind 1: request id, oneway flag, object key, method, args),
/// then passes every message on to the node's own receiver.
void tap_data_frames(GcsWorld& w, NodeId node, std::vector<std::pair<DataMsg, Bytes>>& out) {
    Node& n = w.net.node(node);
    n.set_receiver([inner = n.receiver(), &out](NodeId from, Bytes payload) {
        Decoder d(payload);
        if (d.get_u8() == 1) {
            d.get_u64();
            d.get_bool();
            ObjectKey key;
            decode(d, key);
            if (d.get_u32() == kGcsDeliverMethod) {
                const BytesView args = d.get_blob_view();
                GcsMessage msg = decode_gcs_message(args);
                if (auto* data = std::get_if<DataMsg>(&msg)) {
                    out.emplace_back(std::move(*data), Bytes(args.begin(), args.end()));
                }
            }
        }
        inner(from, std::move(payload));
    });
}

TEST(GcsRetransmit, ResendsTheFrameAsSentAndKeepsCausalOrder) {
    // a and b are 5 ms apart, and so are a and c; b -> c takes 200 ms.
    Topology topo;
    const LinkParams near{.latency = 5000, .jitter = 0, .loss = 0.0, .bytes_per_us = 12.5};
    const SiteId sa = topo.add_site("A", near);
    const SiteId sb = topo.add_site("B", near);
    const SiteId sc = topo.add_site("C", near);
    topo.set_link(sa, sb, near);
    topo.set_link(sa, sc, near);
    topo.set_link(sb, sc, LinkParams{.latency = 200000, .jitter = 0, .loss = 0.0,
                                     .bytes_per_us = 12.5});
    GcsWorld w(std::move(topo));
    const auto a = w.add_endpoint(sa);
    const auto b = w.add_endpoint(sb);
    const auto c = w.add_endpoint(sc);
    const GroupId g = w.ep(a).create_group("g", config_for(OrderMode::kCausal));
    w.oracle.options().causal_groups.insert(g.value());
    w.ep(b).join_group("g");
    w.run_for(2_s);
    w.ep(c).join_group("g");
    w.run_for(2_s);
    ASSERT_TRUE(w.ep(c).is_member(g));

    std::vector<std::pair<DataMsg, Bytes>> at_b;
    std::vector<std::pair<DataMsg, Bytes>> at_c;
    tap_data_frames(w, w.orbs[b]->node_id(), at_b);
    tap_data_frames(w, w.orbs[c]->node_id(), at_c);

    // m1 reaches a at once and c 200 ms later.  a sends m2 after
    // delivering m1, and the a -> c link drops it; c learns of the gap
    // from m3 and NACKs, so the retransmitted m2 reaches c long before m1.
    w.ep(b).multicast(g, payload_of("m1"));
    w.run_for(30_ms);
    ASSERT_EQ(w.log_of(a, g), std::vector<std::string>{"m1"});
    w.net.set_extra_loss(sa, sc, 1.0);
    w.ep(a).multicast(g, payload_of("m2"));
    w.run_for(3_ms);
    w.net.set_extra_loss(sa, sc, 0.0);
    w.ep(a).multicast(g, payload_of("m3"));
    w.run_for(1_s);

    EXPECT_GE(w.net.metrics().counter(obs::metric::kGcsRetransmits), 1u);
    const auto frame_of = [](const std::vector<std::pair<DataMsg, Bytes>>& frames,
                             const std::string& payload) {
        std::vector<Bytes> out;
        for (const auto& [msg, frame] : frames) {
            if (to_string(msg.payload) == payload) out.push_back(frame);
        }
        return out;
    };
    const std::vector<Bytes> original = frame_of(at_b, "m2");
    const std::vector<Bytes> resent = frame_of(at_c, "m2");
    // c sees m2 only as retransmissions (a NACK retry may fetch it twice).
    ASSERT_EQ(original.size(), 1u);
    ASSERT_FALSE(resent.empty());
    for (const Bytes& frame : resent) EXPECT_EQ(frame, original.front());
    const std::vector<std::string> causal = {"m1", "m2", "m3"};
    EXPECT_EQ(w.log_of(c, g), causal);
    EXPECT_EQ(w.log_of(b, g), causal);
}

// -- overlapping groups (the fig. 7 property) -----------------------------------------

TEST_F(LanGcs, MemberCanBelongToManyGroupsSimultaneously) {
    const auto a = world.add_endpoint(SiteId(0));
    const auto b = world.add_endpoint(SiteId(0));
    const GroupId g1 = world.ep(a).create_group("g1", config_for(OrderMode::kTotalSymmetric));
    const GroupId g2 = world.ep(a).create_group("g2", config_for(OrderMode::kTotalAsymmetric));
    world.ep(b).join_group("g1");
    world.ep(b).join_group("g2");
    world.run_for(200_ms);
    ASSERT_TRUE(world.ep(b).is_member(g1));
    ASSERT_TRUE(world.ep(b).is_member(g2));
    world.ep(a).multicast(g1, payload_of("one"));
    world.ep(a).multicast(g2, payload_of("two"));
    world.run_for(500_ms);
    EXPECT_EQ(world.log_of(b, g1), std::vector<std::string>{"one"});
    EXPECT_EQ(world.log_of(b, g2), std::vector<std::string>{"two"});
}

/// Fig. 7 of the paper: gx = {A, B}; B also in gw with RM; A also in gz
/// with RM.  Sites A, B and RM are 500 µs apart except B -> RM, which takes
/// 40 ms; `extra` more sites hang off the same mesh, also 40 ms from B.
struct Fig7World : GcsWorld {
    explicit Fig7World(int extra = 0) : GcsWorld(topology(extra)) {
        a = add_endpoint(SiteId(0));
        b = add_endpoint(SiteId(1));
        rm = add_endpoint(SiteId(2));
        gx = ep(a).create_group("gx", config_for(OrderMode::kTotalSymmetric));
        gw = ep(b).create_group("gw", config_for(OrderMode::kTotalSymmetric));
        gz = ep(a).create_group("gz", config_for(OrderMode::kTotalSymmetric));
        ep(b).join_group("gx");
        ep(rm).join_group("gw");
        ep(rm).join_group("gz");
        run_for(500_ms);
    }

    static Topology topology(int extra) {
        Topology t;
        const SiteId sa = t.add_site("A", LinkParams{.latency = 300});
        const SiteId sb = t.add_site("B", LinkParams{.latency = 300});
        const SiteId sr = t.add_site("RM", LinkParams{.latency = 300});
        t.set_link(sa, sb, LinkParams{.latency = 500});
        t.set_link(sa, sr, LinkParams{.latency = 500});
        t.set_link(sb, sr, LinkParams{.latency = 40'000});  // B -> RM is slow
        for (int i = 0; i < extra; ++i) {
            const SiteId s = t.add_site(test::label("X", i), LinkParams{.latency = 300});
            t.set_link(sa, s, LinkParams{.latency = 500});
            t.set_link(sr, s, LinkParams{.latency = 500});
            t.set_link(sb, s, LinkParams{.latency = 40'000});
        }
        return t;
    }

    /// A reacts to delivering m2 by calling `react`.
    void on_m2_at_a(std::function<void()> react) {
        ep(a).set_deliver_handler([this, react](const GroupCommEndpoint::Delivery& d) {
            delivered[a].push_back({d.group, d.sender, to_string(d.payload)});
            if (to_string(d.payload) == "m2") react();
        });
    }

    /// B sends m1 in gw, then m2 in gx.
    void send_m1_m2() {
        ep(b).multicast(gw, payload_of("m1"));
        ep(b).multicast(gx, payload_of("m2"));
    }

    std::vector<std::string> payloads_at(std::size_t i) const {
        std::vector<std::string> out;
        for (const auto& entry : delivered[i]) out.push_back(entry.payload);
        return out;
    }

    std::size_t a{0}, b{0}, rm{0};
    GroupId gx, gw, gz;
};

TEST(GcsOverlap, CrossGroupCausalityPreserved) {
    // B sends m1 in gw, then m2 in gx; A, on delivering m2, sends m3 in gz.
    // RM must deliver m1 before m3 even though the direct path B->RM is far
    // slower than B->A->RM.
    Fig7World world;
    ASSERT_TRUE(world.ep(world.b).is_member(world.gx));
    ASSERT_TRUE(world.ep(world.rm).is_member(world.gw));
    ASSERT_TRUE(world.ep(world.rm).is_member(world.gz));
    world.on_m2_at_a([&] { world.ep(world.a).multicast(world.gz, payload_of("m3")); });
    world.send_m1_m2();
    world.run_for(2_s);

    // RM got both calls; causality says m1 first.
    EXPECT_EQ(world.payloads_at(world.rm), (std::vector<std::string>{"m1", "m3"}));
}

TEST(GcsOverlap, BarrierHoldsForEveryLaterMessageOfTheSender) {
    // A answers m2 with two messages in gz.  m4 is A's second send in gz's
    // view: its barrier entries are only what changed since m3, so RM must
    // still hold both behind m1.
    Fig7World world;
    ASSERT_TRUE(world.ep(world.rm).is_member(world.gz));
    world.on_m2_at_a([&] {
        world.ep(world.a).multicast(world.gz, payload_of("m3"));
        world.ep(world.a).multicast(world.gz, payload_of("m4"));
    });
    world.send_m1_m2();
    world.run_for(2_s);

    EXPECT_EQ(world.payloads_at(world.rm), (std::vector<std::string>{"m1", "m3", "m4"}));
}

TEST(GcsOverlap, JoinerSeesTheCauseBeforeTheSendersNextMessage) {
    // J, a member of gw, joins gz after A sent m3 there.  A's next message
    // m4 is its first in the view that admits J; J never saw m3, so m4 must
    // carry the gw barrier again and J must deliver m1 (slow from B) first.
    Fig7World world(1);
    const auto j = world.add_endpoint(SiteId(3));
    world.ep(j).join_group("gw");
    world.run_for(1_s);
    ASSERT_TRUE(world.ep(world.rm).is_member(world.gw));
    ASSERT_TRUE(world.ep(j).is_member(world.gw));
    ASSERT_TRUE(world.ep(world.rm).is_member(world.gz));

    world.on_m2_at_a([&] {
        world.ep(world.a).multicast(world.gz, payload_of("m3"));
        world.ep(j).join_group("gz");
    });
    bool sent_m4 = false;
    world.ep(world.a).set_view_handler([&](const GroupCommEndpoint::ViewChangeEvent& event) {
        if (event.view.group == world.gz && event.view.contains(world.ep(j).id()) &&
            !sent_m4) {
            sent_m4 = true;
            world.ep(world.a).multicast(world.gz, payload_of("m4"));
        }
    });
    SimTime joined_at = 0;
    world.ep(j).set_view_handler([&](const GroupCommEndpoint::ViewChangeEvent& event) {
        if (event.view.group == world.gz && joined_at == 0) joined_at = world.scheduler.now();
    });
    SimTime m1_at = 0;
    world.ep(j).set_deliver_handler([&](const GroupCommEndpoint::Delivery& d) {
        world.delivered[j].push_back({d.group, d.sender, to_string(d.payload)});
        if (to_string(d.payload) == "m1") m1_at = world.scheduler.now();
    });
    world.send_m1_m2();
    world.run_for(2_s);

    ASSERT_TRUE(sent_m4);
    ASSERT_TRUE(world.ep(j).is_member(world.gz));
    // J joined well inside m1's flight from B: only the barrier holds m4.
    ASSERT_GT(joined_at, 0u);
    ASSERT_LT(joined_at, m1_at);
    EXPECT_EQ(world.payloads_at(j), (std::vector<std::string>{"m1", "m4"}));
    // RM delivered m3 in the cut of J's join, and a cut ignores barriers
    // (deliver_cut); m4, sent in the new view, still waits for m1.
    const std::vector<std::string> at_rm = world.payloads_at(world.rm);
    ASSERT_EQ(std::set<std::string>(at_rm.begin(), at_rm.end()),
              (std::set<std::string>{"m1", "m3", "m4"}));
    EXPECT_EQ(at_rm.back(), "m4");
}

TEST(GcsOverlap, BarrierLearnedWhileJoiningBindsOnceTheJoinInstalls) {
    // RM leaves gw and joins it again; B sends m1 in the view that admits
    // RM, 5 ms after installing it, and then m2 in gx.  A answers m2 with
    // m3 in gz, which reaches RM while its install of gw is still on the
    // slow B -> RM link, so m3's gw entry does not bind RM yet.  A's m4,
    // sent once RM is in gw, leaves that entry out (A sent it on m3), but
    // RM must still deliver m1 first.
    Fig7World world;
    world.ep(world.rm).leave_group(world.gw);
    world.run_for(500_ms);
    ASSERT_FALSE(world.ep(world.rm).is_member(world.gw));
    ASSERT_TRUE(world.ep(world.rm).is_member(world.gz));

    world.on_m2_at_a([&] { world.ep(world.a).multicast(world.gz, payload_of("m3")); });
    const EndpointId rm_id = world.ep(world.rm).id();
    world.ep(world.b).set_view_handler([&](const GroupCommEndpoint::ViewChangeEvent& event) {
        if (event.view.group == world.gw && event.view.contains(rm_id)) {
            world.scheduler.schedule_after(5_ms, [&] { world.send_m1_m2(); });
        }
    });
    SimTime rm_joined_at = 0;
    SimTime m4_sent_at = 0;
    world.ep(world.rm).set_view_handler([&](const GroupCommEndpoint::ViewChangeEvent& event) {
        if (event.view.group != world.gw || rm_joined_at != 0) return;
        rm_joined_at = world.scheduler.now();
        world.scheduler.schedule_after(1_ms, [&] {
            m4_sent_at = world.scheduler.now();
            world.ep(world.a).multicast(world.gz, payload_of("m4"));
        });
    });
    SimTime m3_at = 0;
    SimTime m1_at = 0;
    world.ep(world.rm).set_deliver_handler([&](const GroupCommEndpoint::Delivery& d) {
        world.delivered[world.rm].push_back({d.group, d.sender, to_string(d.payload)});
        if (to_string(d.payload) == "m3") m3_at = world.scheduler.now();
        if (to_string(d.payload) == "m1") m1_at = world.scheduler.now();
    });
    world.ep(world.rm).join_group("gw");
    world.run_for(2_s);

    ASSERT_TRUE(world.ep(world.rm).is_member(world.gw));
    // The race the test is about: m3 before RM's install, m4 sent after
    // it, and m1 still in flight when m4 reaches RM.
    ASSERT_GT(m3_at, 0u);
    ASSERT_GT(rm_joined_at, m3_at);
    ASSERT_GT(m4_sent_at, rm_joined_at);
    ASSERT_GT(m1_at, m4_sent_at + 1_ms);
    EXPECT_EQ(world.payloads_at(world.rm), (std::vector<std::string>{"m3", "m1", "m4"}));
}

// -- partitions -------------------------------------------------------------------

TEST(GcsPartition, PartitionedSidesFormDisjointViews) {
    auto sites = calibration::make_paper_topology();
    GcsWorld world(std::move(sites.topology));
    const auto a0 = world.add_endpoint(sites.newcastle);
    const auto a1 = world.add_endpoint(sites.newcastle);
    const auto b0 = world.add_endpoint(sites.london);
    const auto b1 = world.add_endpoint(sites.london);

    GroupConfig cfg = config_for(OrderMode::kTotalSymmetric, LivenessMode::kLively);
    const GroupId g = world.ep(a0).create_group("g", cfg);
    for (auto i : {a1, b0, b1}) {
        world.ep(i).join_group("g");
        world.run_for(300_ms);
    }
    for (auto i : {a0, a1, b0, b1}) ASSERT_TRUE(world.ep(i).is_member(g));

    world.net.partition_site(sites.london, 1);
    world.run_for(5_s);

    // Each side keeps going with its own view (partitionable model).
    for (auto i : {a0, a1}) {
        ASSERT_TRUE(world.ep(i).is_member(g)) << "at " << i;
        EXPECT_EQ(world.ep(i).current_view(g)->members,
                  (std::vector<EndpointId>{world.ep(a0).id(), world.ep(a1).id()}));
    }
    for (auto i : {b0, b1}) {
        ASSERT_TRUE(world.ep(i).is_member(g)) << "at " << i;
        EXPECT_EQ(world.ep(i).current_view(g)->members,
                  (std::vector<EndpointId>{world.ep(b0).id(), world.ep(b1).id()}));
    }

    // Both partitions can still multicast internally.
    world.ep(a0).multicast(g, payload_of("north"));
    world.ep(b0).multicast(g, payload_of("south"));
    world.run_for(1_s);
    EXPECT_EQ(world.log_of(a1, g).back(), "north");
    EXPECT_EQ(world.log_of(b1, g).back(), "south");
}

// -- liveness ---------------------------------------------------------------------

TEST_F(LanGcs, LivelyGroupHeartbeatsWhenIdle) {
    const auto [a, b, g] =
        pair_group(config_for(OrderMode::kTotalSymmetric, LivenessMode::kLively));
    world.ep(a).create_group("marker", config_for(OrderMode::kTotalSymmetric));
    const auto before = world.net.stats().messages_sent;
    world.run_for(1_s);
    // Idle but lively: nulls keep flowing.
    EXPECT_GT(world.net.stats().messages_sent, before + 10);
}

TEST_F(LanGcs, EventDrivenGroupGoesQuietAfterDelivery) {
    const auto [a, b, g] = pair_group(config_for(OrderMode::kTotalSymmetric));
    world.ep(a).multicast(g, payload_of("x"));
    world.run_for(2_s);  // delivery + stability tail
    const auto quiet_start = world.net.stats().messages_sent;
    world.run_for(2_s);
    EXPECT_EQ(world.net.stats().messages_sent, quiet_start);
    EXPECT_EQ(world.log_of(b, g), std::vector<std::string>{"x"});
}

// -- send flow control / batching ----------------------------------------------------

TEST_F(LanGcs, BurstCoalescesUnderSendWindow) {
    GroupConfig cfg = config_for(OrderMode::kTotalAsymmetric);
    cfg.order_window = 2;
    const auto [a, b, g] = pair_group(cfg);
    std::vector<std::string> expected;
    for (int k = 0; k < 40; ++k) {
        expected.push_back(test::label("m", k));
        world.ep(b).multicast(g, payload_of(expected.back()));
    }
    world.run_for(3_s);
    EXPECT_EQ(world.log_of(a, g), expected);
    EXPECT_EQ(world.log_of(b, g), expected);
    // With a window of 2, a 40-send burst must have coalesced...
    EXPECT_GT(world.net.metrics().counter("gcs.sends_coalesced"), 0u);
    // ...into multi-payload batches.
    const auto* batches = world.net.metrics().histogram("gcs.send_batch_payloads");
    ASSERT_NE(batches, nullptr);
    EXPECT_GT(batches->max(), SimDuration{1});
}

TEST_F(LanGcs, ZeroWindowDisablesCoalescing) {
    GroupConfig cfg = config_for(OrderMode::kTotalAsymmetric);
    cfg.order_window = 0;
    const auto [a, b, g] = pair_group(cfg);
    std::vector<std::string> expected;
    for (int k = 0; k < 10; ++k) {
        expected.push_back(test::label("m", k));
        world.ep(b).multicast(g, payload_of(expected.back()));
    }
    world.run_for(2_s);
    EXPECT_EQ(world.log_of(a, g), expected);
    EXPECT_EQ(world.net.metrics().counter("gcs.sends_coalesced"), 0u);
}

// Oracle test: a view change landing while a burst is still coalesced in
// the sender's queue must neither drop nor reorder the unflushed tail, nor
// let sends made during the change overtake it.  The OracleScope on the
// world checks the protocol invariants throughout.
TEST_F(LanGcs, ViewChangeMidBatchKeepsUnflushedTail) {
    GroupConfig cfg = config_for(OrderMode::kTotalAsymmetric);
    cfg.order_window = 1;  // everything past the first send queues
    const auto [a, b, g] = pair_group(cfg);
    std::vector<std::string> expected;
    for (int k = 0; k < 25; ++k) {
        expected.push_back(test::label("m", k));
        world.ep(b).multicast(g, payload_of(expected.back()));
    }
    // Join lands while the tail of the burst is still queued at b.
    const auto c = world.add_endpoint(SiteId(0));
    world.ep(c).join_group("g");
    for (int step = 0; step < 1000 && !world.ep(b).group_stats(g).in_view_change; ++step) {
        world.run_for(100_us);
    }
    // Five more sends while c's join is still in progress: they queue
    // behind the tail and must go out after it in the new view.
    ASSERT_TRUE(world.ep(b).group_stats(g).in_view_change);
    ASSERT_GT(world.ep(b).pending_load(), 0u);
    for (int k = 25; k < 30; ++k) {
        expected.push_back(test::label("m", k));
        world.ep(b).multicast(g, payload_of(expected.back()));
    }
    world.run_for(5_s);
    EXPECT_EQ(world.log_of(a, g), expected);
    EXPECT_EQ(world.log_of(b, g), expected);
    ASSERT_TRUE(world.ep(c).is_member(g));
    // b's full sequence survives at every original member, in order; c
    // (which joined mid-burst) sees a gap-free suffix of it.
    const auto at_c = world.log_of(c, g);
    EXPECT_TRUE(std::search(expected.begin(), expected.end(), at_c.begin(), at_c.end()) !=
                expected.end());
}

// A credit that returns in one group while another group's queue is
// draining must still drain its own queue.  z sends mz in ga, then c1 in
// gc; y's join of gc delivers c1 to x in the cut, ahead of mz (a cut
// ignores barriers), so x learns of mz through gc.  x's b1 in gb carries
// that knowledge and is held at x until x delivers mz, which waits
// (symmetric order) for x's own timestamp in ga to pass it.  y's y1
// returns x's ga credit, x's ga queue sends a2, and that send releases b1
// mid-drain; b1's credit must then send b2.
TEST_F(LanGcs, CreditReturnedDuringAnotherGroupsDrainStillDrains) {
    const auto x = world.add_endpoint(SiteId(0));
    const auto y = world.add_endpoint(SiteId(0));
    const auto z = world.add_endpoint(SiteId(0));
    // No null may advance ga's order behind the test's back.
    GroupConfig quiet = config_for(OrderMode::kTotalSymmetric);
    quiet.order_window = 1;
    quiet.ack_delay = 10_s;
    quiet.time_silence = 10_s;
    quiet.suspicion_timeout = 20_s;
    quiet.view_change_timeout = 40_s;
    quiet.stability_period = 10_s;
    const GroupId ga = world.ep(x).create_group("ga", quiet);
    const GroupId gb = world.ep(x).create_group("gb", quiet);  // x alone
    const GroupId gc = world.ep(z).create_group("gc", config_for(OrderMode::kCausal));
    world.ep(y).join_group("ga");
    world.run_for(100_ms);
    world.ep(z).join_group("ga");
    world.ep(x).join_group("gc");
    world.run_for(200_ms);
    ASSERT_TRUE(world.ep(z).is_member(ga));
    ASSERT_TRUE(world.ep(x).is_member(gc));

    world.ep(x).multicast(ga, payload_of("a1"));
    world.ep(x).multicast(ga, payload_of("a2"));  // queued behind a1
    world.run_for(2_ms);
    world.ep(z).multicast(ga, payload_of("mz"));
    world.ep(z).multicast(gc, payload_of("c1"));
    world.run_for(2_ms);
    ASSERT_TRUE(world.log_of(x, gc).empty());  // c1 waits for mz
    world.ep(y).join_group("gc");
    world.run_for(100_ms);
    ASSERT_TRUE(world.ep(y).is_member(gc));
    ASSERT_EQ(world.log_of(x, gc), (std::vector<std::string>{"c1"}));
    ASSERT_TRUE(world.log_of(x, ga).empty());
    world.ep(x).multicast(gb, payload_of("b1"));  // held until x delivers mz
    world.ep(x).multicast(gb, payload_of("b2"));  // queued behind b1
    world.run_for(2_ms);
    ASSERT_TRUE(world.log_of(x, gb).empty());
    world.ep(y).multicast(ga, payload_of("y1"));
    world.run_for(30_s);

    EXPECT_EQ(world.log_of(x, ga), (std::vector<std::string>{"a1", "mz", "y1", "a2"}));
    EXPECT_EQ(world.log_of(x, gb), (std::vector<std::string>{"b1", "b2"}));
}

TEST_F(LanGcs, SymmetricModeAlsoCoalesces) {
    GroupConfig cfg = config_for(OrderMode::kTotalSymmetric);
    cfg.order_window = 2;
    const auto [a, b, g] = pair_group(cfg);
    std::vector<std::string> expected;
    for (int k = 0; k < 30; ++k) {
        expected.push_back(test::label("s", k));
        world.ep(a).multicast(g, payload_of(expected.back()));
    }
    world.run_for(3_s);
    EXPECT_EQ(world.log_of(a, g), expected);
    EXPECT_EQ(world.log_of(b, g), expected);
    EXPECT_GT(world.net.metrics().counter("gcs.sends_coalesced"), 0u);
}

// -- application hand-off -------------------------------------------------------------

/// A 3-member sequencer group on one LAN (a sequences, b sends, c only
/// receives) with a send window of one credit: a burst from b leaves as
/// two DataMsgs, the head alone and every later payload coalesced into
/// the one batch the returned credit releases.  Each member's handler logs
/// what it is handed and when.
struct HandoffWorld {
    static constexpr int kBurst = 12;
    struct Seen {
        std::string payload;
        SimTime at;
    };

    HandoffWorld() : world(calibration::make_lan_topology()) {
        GroupConfig cfg = config_for(OrderMode::kTotalAsymmetric);
        cfg.order_window = 1;
        for (std::size_t i = 0; i < 3; ++i) world.add_endpoint(SiteId(0));
        g = world.ep(a).create_group("g", cfg);
        world.ep(b).join_group("g");
        world.run_for(100_ms);
        world.ep(c).join_group("g");
        world.run_for(100_ms);
        for (const std::size_t i : {a, b, c}) {
            world.ep(i).set_deliver_handler([this, i](const GroupCommEndpoint::Delivery& d) {
                seen[i].push_back(Seen{to_string(d.payload), world.scheduler.now()});
            });
        }
    }

    void burst() {
        for (int k = 0; k < kBurst; ++k) world.ep(b).multicast(g, payload_of(label(k)));
    }
    static std::string label(int k) { return test::label("m", k); }
    std::vector<std::string> payloads(std::size_t i) const {
        std::vector<std::string> out;
        for (const Seen& entry : seen[i]) out.push_back(entry.payload);
        return out;
    }
    CpuQueue& cpu(std::size_t i) { return world.net.node(world.orbs[i]->node_id()).cpu(); }

    GcsWorld world;
    const std::size_t a = 0, b = 1, c = 2;
    GroupId g;
    std::vector<Seen> seen[3];
};

std::vector<std::string> burst_labels() {
    std::vector<std::string> out;
    for (int k = 0; k < HandoffWorld::kBurst; ++k) out.push_back(HandoffWorld::label(k));
    return out;
}

TEST(Handoff, CoalescedBatchReachesTheAppInOrderAtOneInstant) {
    HandoffWorld h;
    h.burst();
    h.world.run_for(2_s);
    const auto* batches = h.world.net.metrics().histogram("gcs.send_batch_payloads");
    ASSERT_NE(batches, nullptr);
    ASSERT_EQ(batches->count(), 1u);
    ASSERT_GE(batches->max(), SimDuration{8});
    for (const std::size_t i : {h.a, h.b, h.c}) {
        SCOPED_TRACE(i);
        ASSERT_EQ(h.payloads(i), burst_labels());
        EXPECT_LT(h.seen[i][0].at, h.seen[i][1].at);  // the head travelled alone
        for (std::size_t k = 2; k < h.seen[i].size(); ++k) EXPECT_EQ(h.seen[i][k].at, h.seen[i][1].at);
    }
}

TEST(Handoff, OneHandoffCostPerDeliveredDataMsg) {
    HandoffWorld h;
    HandoffWorld bare;  // c hands nothing to an application
    bare.world.ep(bare.c).set_deliver_handler(nullptr);
    h.burst();
    bare.burst();
    h.world.run_for(2_s);
    bare.world.run_for(2_s);
    ASSERT_EQ(h.payloads(h.c), burst_labels());
    EXPECT_EQ(bare.world.ep(bare.c).group_stats(bare.g).delivered,
              static_cast<std::uint64_t>(HandoffWorld::kBurst));
    // Everything else c did is the same, so the difference is its upcalls:
    // one for the head and one for the whole batch.
    EXPECT_EQ(h.cpu(h.c).consumed() - bare.cpu(bare.c).consumed(),
              2 * calibration::kLocalHandoffCost);
    EXPECT_EQ(h.cpu(h.a).consumed(), bare.cpu(bare.a).consumed());
    EXPECT_EQ(h.cpu(h.b).consumed(), bare.cpu(bare.b).consumed());
}

TEST(Handoff, CrashBeforeTheUpcallDropsTheWholeBatch) {
    SimTime last_at = 0;
    {
        HandoffWorld probe;
        probe.burst();
        probe.world.run_for(2_s);
        ASSERT_EQ(probe.seen[probe.c].size(), static_cast<std::size_t>(HandoffWorld::kBurst));
        last_at = probe.seen[probe.c].back().at;
    }
    // Same run, but c crashes just before its last payload is handed over:
    // the batch was delivered and its upcall queued at least one hand-off
    // earlier.  Had each payload its own hand-off, the ones before the
    // last would already be through.
    HandoffWorld h;
    h.burst();
    const NodeId c_node = h.world.orbs[h.c]->node_id();
    std::uint64_t delivered_at_crash = 0;
    h.world.scheduler.schedule_at(last_at - 1, [&] {
        delivered_at_crash = h.world.ep(h.c).group_stats(h.g).delivered;
        h.world.net.crash(c_node);
    });
    h.world.run_for(2_s);
    EXPECT_EQ(delivered_at_crash, static_cast<std::uint64_t>(HandoffWorld::kBurst));
    EXPECT_EQ(h.payloads(h.c), std::vector<std::string>{HandoffWorld::label(0)});
    EXPECT_EQ(h.payloads(h.a), burst_labels());
}

TEST_F(LanGcs, StabilityPrunesUnstableStore) {
    const auto [a, b, g] = pair_group(config_for(OrderMode::kTotalSymmetric));
    for (int k = 0; k < 20; ++k) world.ep(a).multicast(g, payload_of(std::to_string(k)));
    world.run_for(3_s);
    EXPECT_EQ(world.ep(a).group_stats(g).unstable, 0u);
    EXPECT_EQ(world.ep(b).group_stats(g).unstable, 0u);
}

// -- wire format ---------------------------------------------------------------------

TEST(GcsMessages, DataMsgRoundTrips) {
    DataMsg m;
    m.group = GroupId(3);
    m.epoch = 7;
    m.sender = EndpointId(9);
    m.seq = 42;
    m.ts = 1234;
    m.kind = DataKind::kApplication;
    m.knowledge = {{GroupId(1), 2, EndpointId(4), 5}};
    m.payload = payload_of("payload");
    m.received_counts = {{EndpointId(9), 43}};
    m.causal_vc = {{EndpointId(1), 2}};
    const GcsMessage out = decode_gcs_message(encode_gcs_message(m));
    const auto* decoded = std::get_if<DataMsg>(&out);
    ASSERT_NE(decoded, nullptr);
    EXPECT_EQ(decoded->seq, 42u);
    EXPECT_EQ(decoded->knowledge.size(), 1u);
    EXPECT_EQ(decoded->knowledge[0].count, 5u);
    EXPECT_EQ(to_string(decoded->payload), "payload");
}

TEST(GcsMessages, AllVariantsRoundTrip) {
    const View view{GroupId(1), 3, {EndpointId(1), EndpointId(2)}};
    const std::vector<GcsMessage> msgs{
        NackMsg{GroupId(1), 2, EndpointId(3), {4, 5}},
        OrderMsg{GroupId(1), 2, 7, {MsgRef{EndpointId(1), 0}}},
        JoinReq{GroupId(1), EndpointId(5)},
        LeaveReq{GroupId(1), EndpointId(6)},
        SuspectMsg{GroupId(1), 2, EndpointId(1), {EndpointId(9)}},
        ProposeMsg{GroupId(1), 2, 3, EndpointId(1), {EndpointId(1), EndpointId(2)}},
        FlushMsg{GroupId(1), 3, EndpointId(1), EndpointId(2), {}, {}},
        InstallMsg{GroupId(1), view, EndpointId(1), {}, {}, GroupConfig{}, 2, 7},
    };
    for (const auto& msg : msgs) {
        const GcsMessage out = decode_gcs_message(encode_gcs_message(msg));
        EXPECT_EQ(out.index(), msg.index());
    }
}

TEST(GcsMessages, GarbageRejected) {
    EXPECT_THROW(decode_gcs_message(Bytes{99}), DecodeError);
    EXPECT_THROW(decode_gcs_message(Bytes{}), DecodeError);
}

TEST(GcsMessages, DataMsgBatchRoundTrips) {
    DataMsg m;
    m.group = GroupId(3);
    m.epoch = 7;
    m.sender = EndpointId(9);
    m.seq = 42;
    m.ts = 1234;
    m.payload = payload_of("head");
    m.batch = {payload_of("second"), payload_of("third"), Bytes{}};
    const GcsMessage out = decode_gcs_message(encode_gcs_message(m));
    const auto* decoded = std::get_if<DataMsg>(&out);
    ASSERT_NE(decoded, nullptr);
    EXPECT_EQ(to_string(decoded->payload), "head");
    ASSERT_EQ(decoded->batch.size(), 3u);
    EXPECT_EQ(to_string(decoded->batch[0]), "second");
    EXPECT_EQ(to_string(decoded->batch[1]), "third");
    EXPECT_TRUE(decoded->batch[2].empty());
}

// Property: multi-assignment ORDER records round-trip for arbitrary batch
// sizes, and every strict prefix of the encoding is rejected (no partial
// ORDER record can silently decode to fewer assignments).
TEST(GcsMessages, MultiAssignmentOrderRoundTripAndTruncationFuzz) {
    Rng rng(2026);
    for (int iter = 0; iter < 50; ++iter) {
        OrderMsg m;
        m.group = GroupId(rng.next_in(1, 9));
        m.epoch = rng.next_in(0, 5);
        m.record.first_order = rng.next_in(0, 1000);
        const std::size_t refs = rng.next_in(1, 65);
        for (std::size_t i = 0; i < refs; ++i) {
            m.record.refs.push_back(MsgRef{EndpointId(rng.next_in(1, 8)),
                                           static_cast<Seqno>(rng.next_in(0, 500))});
        }
        const Bytes wire = encode_gcs_message(m);
        const GcsMessage out = decode_gcs_message(wire);
        const auto* decoded = std::get_if<OrderMsg>(&out);
        ASSERT_NE(decoded, nullptr);
        EXPECT_EQ(decoded->record.first_order, m.record.first_order);
        ASSERT_EQ(decoded->record.refs.size(), m.record.refs.size());
        EXPECT_TRUE(std::equal(m.record.refs.begin(), m.record.refs.end(),
                               decoded->record.refs.begin()));
        // Truncation fuzz: sample strict prefixes (all for short wires).
        for (std::size_t cut = 0; cut < wire.size();
             cut += 1 + rng.next_in(0, wire.size() / 16)) {
            EXPECT_THROW(decode_gcs_message(BytesView{wire.data(), cut}), DecodeError);
        }
    }
}

TEST(GcsMessages, EncodeReservesExactly) {
    DataMsg m;
    m.group = GroupId(3);
    m.sender = EndpointId(9);
    m.payload = Bytes(1024, 0xab);
    m.batch = {Bytes(512, 0xcd), Bytes(256, 0xef)};
    const Bytes wire = encode_gcs_message(m);
    // The counting pass pre-sizes the buffer: no growth slack remains.
    EXPECT_EQ(wire.capacity(), wire.size());
}

TEST(GcsView, RankAndLeader) {
    View v{GroupId(1), 1, {EndpointId(3), EndpointId(5), EndpointId(9)}};
    EXPECT_EQ(v.leader(), EndpointId(3));
    EXPECT_EQ(v.rank_of(EndpointId(5)), 1u);
    EXPECT_EQ(v.rank_of(EndpointId(4)), std::nullopt);
    EXPECT_TRUE(v.contains(EndpointId(9)));
    EXPECT_FALSE(v.contains(EndpointId(2)));
}

TEST(GcsView, UnsortedWireViewRejected) {
    View v{GroupId(1), 1, {EndpointId(5), EndpointId(3)}};
    EXPECT_THROW(decode_from_bytes<View>(encode_to_bytes(v)), DecodeError);
}

}  // namespace
}  // namespace newtop
