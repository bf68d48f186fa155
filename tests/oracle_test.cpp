// The trace-driven protocol oracle, tested in both directions: green over
// healthy synthetic and captured streams, and red — via targeted mutations
// of a real capture — on seeded violations of total order, virtual
// synchrony, duplicate suppression, per-sender FIFO and reply-threshold
// accounting.  Also
// covers the span-tree reconstruction and the Perfetto exporter over the
// same captures.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "net/calibration.hpp"
#include "newtop/world.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/oracle.hpp"
#include "obs/trace.hpp"

namespace newtop {
namespace {

using namespace sim_literals;
using obs::TraceEvent;
using obs::TraceKind;
using obs::Violation;

bool has_violation(const std::vector<Violation>& violations, Violation::Kind kind) {
    return std::any_of(violations.begin(), violations.end(),
                       [kind](const Violation& v) { return v.kind == kind; });
}

// -- synthetic streams: precise unit coverage ---------------------------------

TraceEvent delivered(SimTime at, std::uint64_t actor, std::uint64_t group,
                     std::uint64_t epoch, std::uint64_t sender, std::uint64_t seq) {
    TraceEvent e;
    e.at = at;
    e.kind = TraceKind::kDataDelivered;
    e.actor = actor;
    e.subject = group;
    e.detail = obs::pack_delivered_ref(epoch, sender, seq);
    return e;
}

TraceEvent installed(SimTime at, std::uint64_t actor, std::uint64_t group,
                     std::uint64_t epoch, std::uint64_t digest) {
    TraceEvent e;
    e.at = at;
    e.kind = TraceKind::kViewInstalled;
    e.actor = actor;
    e.subject = group;
    e.detail = obs::pack_view_detail(epoch, digest);
    return e;
}

TEST(ProtocolOracle, EmptyStreamIsClean) {
    EXPECT_TRUE(obs::ProtocolOracle().check(std::vector<TraceEvent>{}).empty());
}

TEST(ProtocolOracle, AgreeingMembersAreClean) {
    const std::vector<TraceEvent> events = {
        delivered(10, 1, 5, 1, 1, 0),
        delivered(11, 2, 5, 1, 1, 0),
        delivered(20, 1, 5, 1, 2, 0),
        delivered(21, 2, 5, 1, 2, 0),
    };
    EXPECT_TRUE(obs::ProtocolOracle().check(events).empty());
}

TEST(ProtocolOracle, ReportsTotalOrderDisagreement) {
    const std::vector<TraceEvent> events = {
        delivered(10, 1, 5, 1, 1, 0),
        delivered(20, 1, 5, 1, 2, 0),
        delivered(11, 2, 5, 1, 2, 0),  // member 2 sees them the other way round
        delivered(21, 2, 5, 1, 1, 0),
    };
    const auto violations = obs::ProtocolOracle().check(events);
    EXPECT_TRUE(has_violation(violations, Violation::Kind::kTotalOrder));
}

TEST(ProtocolOracle, CausalGroupsAreExemptFromTotalOrder) {
    const std::vector<TraceEvent> events = {
        delivered(10, 1, 5, 1, 1, 0),
        delivered(20, 1, 5, 1, 2, 0),
        delivered(11, 2, 5, 1, 2, 0),
        delivered(21, 2, 5, 1, 1, 0),
    };
    obs::OracleOptions options;
    options.causal_groups.insert(5);
    EXPECT_TRUE(obs::ProtocolOracle(options).check(events).empty());
}

TEST(ProtocolOracle, ReportsDuplicateDelivery) {
    const std::vector<TraceEvent> events = {
        delivered(10, 1, 5, 1, 1, 0),
        delivered(20, 1, 5, 1, 1, 0),
    };
    const auto violations = obs::ProtocolOracle().check(events);
    EXPECT_TRUE(has_violation(violations, Violation::Kind::kDuplicateDelivery));
}

TEST(ProtocolOracle, ReportsPerSenderFifoBreak) {
    // Member 1 delivers sender 2's seq 1 before its seq 0 in one view.
    const std::vector<TraceEvent> events = {
        delivered(10, 1, 5, 1, 2, 1),
        delivered(20, 1, 5, 1, 2, 0),
    };
    const auto violations = obs::ProtocolOracle().check(events);
    ASSERT_EQ(violations.size(), 1u) << obs::ProtocolOracle::report(violations);
    EXPECT_EQ(violations[0].kind, Violation::Kind::kFifo);
    EXPECT_STREQ(obs::violation_kind_name(violations[0].kind), "fifo");
}

TEST(ProtocolOracle, FifoIsPerSenderViewAndLineage) {
    // Other senders interleave freely, every view numbers a sender's stream
    // afresh, and so does a rejoin lineage (epochs restart).
    const std::vector<TraceEvent> events = {
        installed(0, 1, 5, 1, 77),   delivered(10, 1, 5, 1, 2, 3),
        delivered(11, 1, 5, 1, 3, 0), delivered(12, 1, 5, 1, 2, 4),
        installed(20, 1, 5, 2, 88),  delivered(30, 1, 5, 2, 2, 0),
        installed(40, 1, 5, 1, 99),  delivered(50, 1, 5, 1, 2, 0),
    };
    const auto violations = obs::ProtocolOracle().check(events);
    EXPECT_TRUE(violations.empty()) << obs::ProtocolOracle::report(violations);
}

TEST(ProtocolOracle, ReportsVirtualSynchronyGapBetweenSharedViews) {
    // Members 1 and 2 share the v1 -> v2 transition, but only member 1
    // delivered the epoch-1 message before the cut.
    const std::vector<TraceEvent> events = {
        installed(0, 1, 5, 1, 77), installed(0, 2, 5, 1, 77),
        delivered(10, 1, 5, 1, 1, 0),
        installed(20, 1, 5, 2, 88), installed(20, 2, 5, 2, 88),
    };
    const auto violations = obs::ProtocolOracle().check(events);
    EXPECT_TRUE(has_violation(violations, Violation::Kind::kVirtualSynchrony));
}

TEST(ProtocolOracle, FinalViewIsExemptFromVirtualSynchrony) {
    // Same gap, but there is no successor view: a crashed or partitioned
    // member's last view is legitimately incomplete.
    const std::vector<TraceEvent> events = {
        installed(0, 1, 5, 1, 77), installed(0, 2, 5, 1, 77),
        delivered(10, 1, 5, 1, 1, 0),
    };
    EXPECT_TRUE(obs::ProtocolOracle().check(events).empty());
}

TEST(ProtocolOracle, PartitionedViewsAreComparedPerTransition) {
    // Epoch numbers collide across a split, but the membership digests
    // differ: the two sides must not be compared against each other.
    const std::vector<TraceEvent> events = {
        installed(0, 1, 5, 1, 77), installed(0, 2, 5, 1, 77),
        delivered(10, 1, 5, 1, 1, 0),  // side A delivered, side B did not
        installed(20, 1, 5, 2, 11),    // side A's epoch 2
        installed(20, 2, 5, 2, 22),    // side B's epoch 2, different digest
        installed(30, 1, 5, 3, 11),
        installed(30, 2, 5, 3, 22),
    };
    EXPECT_TRUE(obs::ProtocolOracle().check(events).empty());
}

TEST(ProtocolOracle, ReplyThresholdHonoursInvocationMode) {
    TraceEvent collected;
    collected.at = 10;
    collected.kind = TraceKind::kReplyCollected;
    collected.actor = 1;
    collected.trace = 42;

    TraceEvent completed;
    completed.at = 20;
    completed.kind = TraceKind::kCallCompleted;
    completed.actor = 1;
    completed.trace = 42;
    completed.detail = obs::pack_completion_detail(3, 0);  // wait-all

    obs::OracleOptions options;
    options.min_replies_by_mode[3] = 2;
    EXPECT_TRUE(has_violation(obs::ProtocolOracle(options).check({collected, completed}),
                              Violation::Kind::kReplyThreshold));

    // One-way completions are never reply-checked.
    completed.detail = obs::pack_completion_detail(0, 0);
    EXPECT_TRUE(obs::ProtocolOracle(options).check({completed}).empty());
}

TEST(ProtocolOracle, RepliesMustPrecedeTheCompletion) {
    TraceEvent collected;
    collected.kind = TraceKind::kReplyCollected;
    collected.trace = 42;
    TraceEvent completed;
    completed.kind = TraceKind::kCallCompleted;
    completed.trace = 42;
    completed.detail = obs::pack_completion_detail(1, 0);

    EXPECT_TRUE(obs::ProtocolOracle().check({collected, completed}).empty());
    EXPECT_TRUE(has_violation(obs::ProtocolOracle().check({completed, collected}),
                              Violation::Kind::kReplyThreshold));
}

// -- config-epoch attribution -------------------------------------------------

TraceEvent switched(SimTime at, std::uint64_t actor, std::uint64_t group,
                    std::uint64_t config_epoch, std::uint64_t view_epoch) {
    TraceEvent e;
    e.at = at;
    e.kind = TraceKind::kConfigSwitched;
    e.actor = actor;
    e.subject = group;
    e.detail = obs::pack_config_detail(config_epoch, view_epoch);
    return e;
}

TEST(ProtocolOracle, CleanConfigSwitchIsClean) {
    // Pre-switch deliveries under view 1, the switch at view 2's install,
    // post-switch deliveries ordered under view 2: the textbook timeline.
    const std::vector<TraceEvent> events = {
        installed(0, 1, 5, 1, 77),  delivered(10, 1, 5, 1, 1, 0),
        installed(20, 1, 5, 2, 88), switched(20, 1, 5, 1, 2),
        delivered(30, 1, 5, 2, 1, 0),
    };
    const auto violations = obs::ProtocolOracle().check(events);
    EXPECT_TRUE(violations.empty()) << obs::ProtocolOracle::report(violations);
}

TEST(ProtocolOracle, ReportsPreSwitchDeliveryAfterConfigSwitch) {
    // A message ordered under view 1 delivered after the member switched
    // configs at view 2: the flush boundary tore.
    const std::vector<TraceEvent> events = {
        installed(0, 1, 5, 1, 77),
        installed(20, 1, 5, 2, 88),
        switched(20, 1, 5, 1, 2),
        delivered(30, 1, 5, 1, 1, 0),
    };
    EXPECT_TRUE(has_violation(obs::ProtocolOracle().check(events),
                              Violation::Kind::kConfigTornDelivery));
}

TEST(ProtocolOracle, ReportsConfigEpochRegression) {
    const std::vector<TraceEvent> events = {
        installed(0, 1, 5, 1, 77),
        switched(10, 1, 5, 2, 1),
        switched(20, 1, 5, 1, 1),  // epochs must only advance in a lineage
    };
    EXPECT_TRUE(has_violation(obs::ProtocolOracle().check(events),
                              Violation::Kind::kConfigTornDelivery));
}

TEST(ProtocolOracle, LineageRestartResetsConfigAttribution) {
    // An ejected member rejoins a re-formed group: view epochs restart, and
    // so does config attribution — a fresh epoch-1 delivery and an epoch-1
    // config are both legitimate again.
    const std::vector<TraceEvent> events = {
        installed(0, 1, 5, 3, 77),
        switched(0, 1, 5, 2, 3),
        delivered(10, 1, 5, 3, 1, 0),
        installed(20, 1, 5, 1, 99),  // epoch regressed: new lineage
        switched(20, 1, 5, 1, 1),
        delivered(30, 1, 5, 1, 1, 0),
    };
    const auto violations = obs::ProtocolOracle().check(events);
    EXPECT_TRUE(violations.empty()) << obs::ProtocolOracle::report(violations);
}

// -- captured streams: a real world, then seeded mutations --------------------

constexpr std::uint32_t kEcho = 1;

class EchoServant : public GroupServant {
public:
    Bytes handle(std::uint32_t, const Bytes& args) override { return args; }
};

/// N echo servers + one open-mode client on a LAN, full trace captured.
struct CaptureWorld : World {
    explicit CaptureWorld(int servers, std::uint64_t seed = 17)
        : World(calibration::make_lan_topology(), seed) {
        net.metrics().set_trace_sink(&sink);
        for (int i = 0; i < servers; ++i) add_server();
        proxy = add_nso().bind("svc", {.mode = BindMode::kOpen});
        run_for(2_s);
    }

    void add_server() {
        add_nso().serve("svc", GroupConfig{}, std::make_shared<EchoServant>());
        run_for(500_ms);
    }

    int run_calls(int calls) {
        int completed = 0;
        for (int i = 0; i < calls; ++i) {
            proxy.invoke(kEcho, encode_to_bytes(std::uint64_t(i)), InvocationMode::kWaitAll,
                         [&](const GroupReply& r) { completed += r.complete ? 1 : 0; });
            run_for(1_s);
        }
        return completed;
    }

    obs::VectorTraceSink sink;
    GroupProxy proxy;
};

TEST(CapturedTrace, HealthyScenarioPassesTheOracle) {
    CaptureWorld world(2);
    ASSERT_EQ(world.run_calls(3), 3);
    obs::OracleOptions options;
    options.min_replies_by_mode[3] = 2;  // wait-all over two stable servers
    const auto violations = obs::ProtocolOracle(options).check(world.sink.events());
    EXPECT_TRUE(violations.empty()) << obs::ProtocolOracle::report(violations);
}

TEST(CapturedTrace, SpanTreeReconstructsClientManagerAndServers) {
    CaptureWorld world(2);
    ASSERT_EQ(world.run_calls(1), 1);
    const auto& events = world.sink.events();

    const auto completed =
        std::find_if(events.begin(), events.end(),
                     [](const TraceEvent& e) { return e.kind == TraceKind::kCallCompleted; });
    ASSERT_NE(completed, events.end());
    const std::uint64_t trace = completed->trace;
    ASSERT_NE(trace, 0u);

    std::uint64_t client_span = 0, manager_span = 0;
    std::set<std::uint64_t> exec_spans;
    for (const TraceEvent& e : events) {
        if (e.trace != trace) continue;
        if (e.kind == TraceKind::kRequestSent) client_span = e.span;
        if (e.kind == TraceKind::kRequestForwarded) manager_span = e.span;
        if (e.kind == TraceKind::kExecutionBegun) exec_spans.insert(e.span);
    }
    ASSERT_NE(client_span, 0u);
    ASSERT_NE(manager_span, 0u);
    EXPECT_EQ(completed->span, client_span);
    EXPECT_GE(exec_spans.size(), 2u);  // both replicas executed

    // Parent edges: client -> manager -> executions; replies point back at
    // the execution spans that produced them.
    for (const TraceEvent& e : events) {
        if (e.trace != trace) continue;
        if (e.kind == TraceKind::kRequestForwarded) {
            EXPECT_EQ(e.parent, client_span);
        }
        if (e.kind == TraceKind::kExecutionBegun) {
            EXPECT_EQ(e.parent, manager_span);
        }
        if (e.kind == TraceKind::kReplyCollected) {
            EXPECT_EQ(e.span, manager_span);
            EXPECT_TRUE(exec_spans.contains(e.parent));
        }
        if (e.kind == TraceKind::kAggregateSent) {
            EXPECT_EQ(e.span, manager_span);
        }
    }
}

TEST(CapturedTrace, ExporterIsDeterministicAndSpanPaired) {
    CaptureWorld world(2);
    ASSERT_EQ(world.run_calls(2), 2);
    const std::string a = obs::export_chrome_trace(world.sink.events());
    const std::string b = obs::export_chrome_trace(world.sink.events());
    EXPECT_EQ(a, b);
    EXPECT_NE(a.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(a.find("\"ph\":\"X\",\"name\":\"invoke\""), std::string::npos);
    EXPECT_NE(a.find("\"ph\":\"X\",\"name\":\"manage\""), std::string::npos);
    EXPECT_NE(a.find("\"ph\":\"X\",\"name\":\"execute\""), std::string::npos);
    EXPECT_NE(a.find("\"ph\":\"M\",\"name\":\"process_name\""), std::string::npos);
    EXPECT_NE(a.find("\"ph\":\"i\",\"name\":\"data_delivered\""), std::string::npos);
}

TEST(CapturedTrace, MutationSwappedDeliveriesAreReported) {
    CaptureWorld world(2);
    ASSERT_EQ(world.run_calls(3), 3);
    std::vector<TraceEvent> events = world.sink.events();

    // Find one member's first two deliveries whose refs another member of
    // the same group also delivered, and swap them.
    std::map<std::pair<std::uint64_t, std::uint64_t>, std::vector<std::size_t>> by_member;
    for (std::size_t i = 0; i < events.size(); ++i) {
        if (events[i].kind == TraceKind::kDataDelivered) {
            by_member[{events[i].subject, events[i].actor}].push_back(i);
        }
    }
    bool swapped = false;
    for (const auto& [key_a, log_a] : by_member) {
        for (const auto& [key_b, log_b] : by_member) {
            if (key_a.first != key_b.first || key_a.second == key_b.second) continue;
            std::set<std::uint64_t> refs_b;
            for (const std::size_t i : log_b) refs_b.insert(events[i].detail);
            std::vector<std::size_t> common;
            for (const std::size_t i : log_a) {
                if (refs_b.contains(events[i].detail)) common.push_back(i);
            }
            if (common.size() < 2) continue;
            std::swap(events[common[0]].detail, events[common[1]].detail);
            swapped = true;
            break;
        }
        if (swapped) break;
    }
    ASSERT_TRUE(swapped) << "capture held no two common deliveries to swap";

    EXPECT_TRUE(has_violation(obs::ProtocolOracle().check(events),
                              Violation::Kind::kTotalOrder));
}

TEST(CapturedTrace, MutationDuplicatedDeliveryIsReported) {
    CaptureWorld world(2);
    ASSERT_EQ(world.run_calls(2), 2);
    std::vector<TraceEvent> events = world.sink.events();
    const auto it =
        std::find_if(events.begin(), events.end(),
                     [](const TraceEvent& e) { return e.kind == TraceKind::kDataDelivered; });
    ASSERT_NE(it, events.end());
    events.push_back(*it);  // the same member delivers the same ref again

    EXPECT_TRUE(has_violation(obs::ProtocolOracle().check(events),
                              Violation::Kind::kDuplicateDelivery));
}

TEST(CapturedTrace, MutationSwappedSenderDeliveriesBreakFifo) {
    CaptureWorld world(2);
    ASSERT_EQ(world.run_calls(3), 3);
    std::vector<TraceEvent> events = world.sink.events();
    ASSERT_TRUE(obs::ProtocolOracle().check(events).empty());

    // Swap one member's first two deliveries from one sender in one view.
    std::map<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>, std::size_t> first;
    bool swapped = false;
    for (std::size_t i = 0; i < events.size() && !swapped; ++i) {
        if (events[i].kind != TraceKind::kDataDelivered) continue;
        const auto [it, fresh] =
            first.try_emplace({events[i].subject, events[i].actor, events[i].detail >> 32}, i);
        if (fresh) continue;
        std::swap(events[it->second].detail, events[i].detail);
        swapped = true;
    }
    ASSERT_TRUE(swapped) << "capture held no two deliveries from one sender in one view";

    EXPECT_TRUE(has_violation(obs::ProtocolOracle().check(events), Violation::Kind::kFifo));
}

TEST(CapturedTrace, MutationDroppedReplyIsReported) {
    CaptureWorld world(2);
    ASSERT_EQ(world.run_calls(3), 3);
    std::vector<TraceEvent> events = world.sink.events();

    obs::OracleOptions options;
    options.min_replies_by_mode[3] = 2;
    ASSERT_TRUE(obs::ProtocolOracle(options).check(events).empty());

    // Drop the last gathered reply: its call now completed under threshold.
    const auto last =
        std::find_if(events.rbegin(), events.rend(),
                     [](const TraceEvent& e) { return e.kind == TraceKind::kReplyCollected; });
    ASSERT_NE(last, events.rend());
    events.erase(std::next(last).base());

    EXPECT_TRUE(has_violation(obs::ProtocolOracle(options).check(events),
                              Violation::Kind::kReplyThreshold));
}

TEST(CapturedTrace, MutationDroppedDeliveryBreaksVirtualSynchrony) {
    CaptureWorld world(2);
    ASSERT_EQ(world.run_calls(2), 2);
    // A third replica joins afterwards: the traffic epoch is finalized by
    // the resulting view change, arming the virtual-synchrony check.
    world.add_server();
    world.run_for(1_s);
    std::vector<TraceEvent> events = world.sink.events();
    ASSERT_TRUE(obs::ProtocolOracle().check(events).empty());

    // Erase one delivery that sits in a finalized (non-final) view of its
    // member: every peer of that transition still has it.
    std::map<std::pair<std::uint64_t, std::uint64_t>, std::vector<std::uint64_t>> installs;
    for (const TraceEvent& e : events) {
        if (e.kind == TraceKind::kViewInstalled) {
            installs[{e.subject, e.actor}].push_back(e.detail);
        }
    }
    bool erased = false;
    for (const auto& [key, views] : installs) {
        for (std::size_t v = 0; v + 1 < views.size() && !erased; ++v) {
            const std::uint64_t epoch16 = obs::view_detail_epoch(views[v]) & 0xffff;
            for (std::size_t i = 0; i < events.size(); ++i) {
                const TraceEvent& e = events[i];
                if (e.kind == TraceKind::kDataDelivered && e.actor == key.second &&
                    e.subject == key.first && ((e.detail >> 48) & 0xffff) == epoch16) {
                    events.erase(events.begin() + static_cast<std::ptrdiff_t>(i));
                    erased = true;
                    break;
                }
            }
        }
        if (erased) break;
    }
    ASSERT_TRUE(erased) << "capture held no delivery inside a finalized view";

    EXPECT_TRUE(has_violation(obs::ProtocolOracle().check(events),
                              Violation::Kind::kVirtualSynchrony));
}

TEST(CapturedTrace, MutationTornConfigSwitchIsReported) {
    // A real runtime reconfiguration mid-workload passes the oracle; then
    // rewriting one post-switch delivery's ref to a pre-switch view epoch
    // must trip the config-torn check.
    CaptureWorld world(2);
    ASSERT_EQ(world.run_calls(2), 2);
    const auto* info = world.directory.find_group("svc");
    ASSERT_NE(info, nullptr);
    const GroupConfig* current = world.nsos[0]->group_comm().group_config(info->id);
    ASSERT_NE(current, nullptr);
    GroupConfig next = *current;
    next.order = current->order == OrderMode::kTotalSymmetric ? OrderMode::kTotalAsymmetric
                                                              : OrderMode::kTotalSymmetric;
    world.nsos[0]->reconfigure(info->id, next);
    world.run_for(5_s);
    ASSERT_EQ(world.run_calls(2), 2);
    std::vector<TraceEvent> events = world.sink.events();
    {
        const auto violations = obs::ProtocolOracle().check(events);
        ASSERT_TRUE(violations.empty()) << obs::ProtocolOracle::report(violations);
    }

    const auto marker =
        std::find_if(events.begin(), events.end(),
                     [](const TraceEvent& e) { return e.kind == TraceKind::kConfigSwitched; });
    ASSERT_NE(marker, events.end()) << "the reconfiguration never switched";
    const std::uint64_t switch_epoch = obs::config_detail_view_epoch(marker->detail) & 0xffff;
    ASSERT_GE(switch_epoch, 2u);
    const auto torn = std::find_if(marker, events.end(), [&](const TraceEvent& e) {
        return e.kind == TraceKind::kDataDelivered && e.subject == marker->subject &&
               e.actor == marker->actor;
    });
    ASSERT_NE(torn, events.end()) << "no post-switch delivery to mutate";
    torn->detail = (torn->detail & 0x0000ffffffffffffULL) | ((switch_epoch - 1) << 48);

    EXPECT_TRUE(has_violation(obs::ProtocolOracle().check(events),
                              Violation::Kind::kConfigTornDelivery));
}

}  // namespace
}  // namespace newtop
