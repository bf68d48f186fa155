// Tier-1 tests for the chaos-campaign subsystem: a smoke campaign over the
// default generator, deterministic replay, cross-run isolation, and a
// mutation run proving the oracle + shrinker actually catch and minimise
// an injected ordering bug.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "fuzz/campaign.hpp"
#include "fuzz/runner.hpp"
#include "fuzz/scenario.hpp"
#include "util/check.hpp"

namespace newtop::fuzz {
namespace {

bool same_stream(const std::vector<obs::TraceEvent>& a, const std::vector<obs::TraceEvent>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].at != b[i].at || a[i].kind != b[i].kind || a[i].actor != b[i].actor ||
            a[i].subject != b[i].subject || a[i].detail != b[i].detail ||
            a[i].trace != b[i].trace || a[i].span != b[i].span || a[i].parent != b[i].parent) {
            return false;
        }
    }
    return true;
}

TEST(ScenarioGenerator, DeterministicForSameSeed) {
    const ScenarioGenerator gen{ScenarioLimits{}};
    EXPECT_EQ(to_json(gen.generate(42)), to_json(gen.generate(42)));
    EXPECT_NE(to_json(gen.generate(42)), to_json(gen.generate(43)));
}

TEST(ScenarioGenerator, RespectsLimits) {
    ScenarioLimits limits;
    limits.max_sites = 2;
    limits.max_services = 1;
    limits.max_servers = 2;
    limits.max_clients = 2;
    limits.max_calls = 3;
    limits.max_faults = 1;
    const ScenarioGenerator gen{limits};
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
        const Scenario s = gen.generate(seed);
        EXPECT_LE(s.sites, 2);
        EXPECT_LE(s.services.size(), 1u);
        for (const ServiceSpec& svc : s.services) EXPECT_LE(svc.server_sites.size(), 2u);
        EXPECT_GE(s.clients.size(), 1u);
        EXPECT_LE(s.clients.size(), 2u);
        for (const ClientSpec& c : s.clients) {
            EXPECT_GE(c.calls, 1);
            EXPECT_LE(c.calls, 3);
            EXPECT_GT(c.call_timeout_us, 0);
        }
        // Paired heals and restarts may exceed the raw fault budget;
        // crash/partition/loss events themselves may not.
        int primary = 0;
        for (const FaultSpec& f : s.faults) {
            primary += f.kind != FaultSpec::Kind::kHeal &&
                       f.kind != FaultSpec::Kind::kRestart;
        }
        EXPECT_LE(primary, 1);
        EXPECT_TRUE(std::is_sorted(s.faults.begin(), s.faults.end(),
                                   [](const FaultSpec& a, const FaultSpec& b) {
                                       return a.at_us < b.at_us;
                                   }));
    }
}

TEST(ScenarioGenerator, NeverCrashesEveryReplicaOfAService) {
    const ScenarioGenerator gen{ScenarioLimits{}};
    for (std::uint64_t seed = 1; seed <= 100; ++seed) {
        const Scenario s = gen.generate(seed);
        std::map<int, int> crashes;
        for (const FaultSpec& f : s.faults) {
            if (f.kind == FaultSpec::Kind::kCrashServer) ++crashes[f.a];
        }
        for (const auto& [service, count] : crashes) {
            EXPECT_LT(static_cast<std::size_t>(count),
                      s.services[static_cast<std::size_t>(service)].server_sites.size())
                << "seed " << seed << " crashes every replica of service " << service;
        }
    }
}

// The headline tier-1 gate: a 50-seed smoke campaign over the default
// generator must come back clean.  Every seed is a full random world —
// topology, faults, mixed invocation modes — checked by the oracle plus
// the call-liveness scan.
TEST(Campaign, SmokeFiftySeedsClean) {
    CampaignOptions options;
    options.base_seed = 1;
    options.runs = 50;
    const CampaignResult result = CampaignRunner(options).run();
    EXPECT_TRUE(result.ok()) << result.report();
    EXPECT_EQ(result.runs, 50);
}

// Acceptance: NEWTOP_FUZZ_SEED=<seed> alone reproduces a run bit-for-bit.
// Two executions of the same seed must yield identical trace streams.
TEST(Campaign, SameSeedReplaysIdenticalTraceStream) {
    RunOptions options;
    options.keep_trace = true;
    const ScenarioGenerator gen{ScenarioLimits{}};
    for (const std::uint64_t seed : {3u, 17u}) {
        const RunResult first = run_scenario(gen.generate(seed), options);
        const RunResult second = run_scenario(gen.generate(seed), options);
        EXPECT_GT(first.trace.size(), 0u);
        EXPECT_TRUE(same_stream(first.trace, second.trace)) << "seed " << seed;
        EXPECT_EQ(first.ok(), second.ok());
    }
}

// Regression for cross-run bleed: running seed A before seed B must not
// change seed B's trace or verdict (fresh scheduler / metrics registry /
// trace sink / directory per run).
TEST(Campaign, ConsecutiveRunsDoNotBleed) {
    RunOptions options;
    options.keep_trace = true;
    const ScenarioGenerator gen{ScenarioLimits{}};
    const RunResult standalone = run_scenario(gen.generate(5), options);

    const RunResult warmup = run_scenario(gen.generate(4), options);
    const RunResult after = run_scenario(gen.generate(5), options);
    EXPECT_GT(warmup.trace.size(), 0u);
    EXPECT_TRUE(same_stream(standalone.trace, after.trace))
        << "running seed 4 first changed seed 5's trace";
    EXPECT_EQ(standalone.ok(), after.ok());
}

/// Mutation used by the tests below: swap the payloads of the first two
/// deliveries at one member that some *other* member also delivered in the
/// same order — a genuine total-order violation.  Falls back to duplicating
/// a delivery when no such pair exists (tiny shrunk scenarios).
void inject_ordering_bug(std::vector<obs::TraceEvent>& events) {
    using obs::TraceKind;
    // Collect delivery event indices per (group, actor).
    std::map<std::pair<std::uint64_t, std::uint64_t>, std::vector<std::size_t>> per_member;
    for (std::size_t i = 0; i < events.size(); ++i) {
        if (events[i].kind == TraceKind::kDataDelivered) {
            per_member[{events[i].subject, events[i].actor}].push_back(i);
        }
    }
    for (const auto& [key, indices] : per_member) {
        if (indices.size() < 2) continue;
        const std::uint64_t ref_a = events[indices[0]].detail;
        const std::uint64_t ref_b = events[indices[1]].detail;
        if (ref_a == ref_b) continue;
        for (const auto& [other, other_indices] : per_member) {
            if (other.first != key.first || other.second == key.second) continue;
            bool sees_both = false;
            for (const std::size_t i : other_indices) {
                sees_both |= events[i].detail == ref_b;
            }
            bool sees_first = false;
            for (const std::size_t i : other_indices) {
                sees_first |= events[i].detail == ref_a;
            }
            if (sees_both && sees_first) {
                std::swap(events[indices[0]].detail, events[indices[1]].detail);
                return;
            }
        }
    }
    // Fallback: duplicate the first delivery (a duplicate-delivery bug).
    for (std::size_t i = 0; i < events.size(); ++i) {
        if (events[i].kind == TraceKind::kDataDelivered) {
            events.insert(events.begin() + static_cast<std::ptrdiff_t>(i) + 1, events[i]);
            return;
        }
    }
}

// Acceptance: an intentionally injected ordering bug is caught by the
// campaign and shrunk to a minimal scenario (<= 3 clients, <= 1 fault).
TEST(Campaign, MutationIsCaughtAndShrunk) {
    CampaignOptions options;
    options.base_seed = 1;
    options.runs = 10;
    options.run.mutator = inject_ordering_bug;
    const CampaignResult result = CampaignRunner(options).run();
    ASSERT_FALSE(result.ok()) << "the injected ordering bug went unnoticed";
    ASSERT_TRUE(result.first_failure.has_value());
    EXPECT_FALSE(result.first_failure->violations.empty());
    ASSERT_TRUE(result.shrunk.has_value());
    EXPECT_LE(result.shrunk->clients.size(), 3u);
    EXPECT_LE(result.shrunk->faults.size(), 1u);
    // The shrunk scenario still reproduces under the same mutator.
    const RunResult replay = run_scenario(*result.shrunk, options.run);
    EXPECT_FALSE(replay.ok());
}

// A protocol invariant that fires mid-run is a failing verdict, not an
// abort: the campaign names it with its seed, shrinks it and replays it.
TEST(Campaign, InvariantErrorIsReportedShrunkAndReplayed) {
    CampaignOptions options;
    options.base_seed = 5;
    options.runs = 3;
    options.run.mutator = [](std::vector<obs::TraceEvent>&) {
        NEWTOP_ENSURES(false, "injected per-sender FIFO break");
    };
    const CampaignResult result = CampaignRunner(options).run();
    ASSERT_FALSE(result.ok());
    ASSERT_TRUE(result.first_failure.has_value());
    EXPECT_EQ(result.first_failure->seed, 5u);
    EXPECT_NE(result.first_failure->invariant.find("injected per-sender FIFO break"),
              std::string::npos);
    const std::string report = result.report();
    EXPECT_NE(report.find("invariant: seed 5: invariant failed: false: injected per-sender "
                          "FIFO break"),
              std::string::npos)
        << report;
    ASSERT_TRUE(result.shrunk.has_value());
    EXPECT_LE(result.shrunk->clients.size(), 1u);
    EXPECT_TRUE(result.shrunk->faults.empty());
    const RunResult replay = run_scenario(*result.shrunk, options.run);
    EXPECT_FALSE(replay.ok());
    EXPECT_FALSE(replay.invariant.empty());
}

TEST(Runner, LivenessCheckFlagsOpenCalls) {
    std::vector<obs::TraceEvent> events;
    obs::TraceEvent queued;
    queued.kind = obs::TraceKind::kRequestQueued;
    queued.actor = 9;
    queued.trace = 1234;
    events.push_back(queued);
    EXPECT_EQ(check_call_liveness(events, {}).size(), 1u);
    // A terminal event closes it.
    obs::TraceEvent done = queued;
    done.kind = obs::TraceKind::kCallCompleted;
    events.push_back(done);
    EXPECT_TRUE(check_call_liveness(events, {}).empty());
    // Exempt actors (crashed clients) are not reported.
    events.pop_back();
    EXPECT_TRUE(check_call_liveness(events, {9}).empty());
}

TEST(Runner, TraceOverflowFailsTheRun) {
    const ScenarioGenerator gen{ScenarioLimits{}};
    RunOptions options;
    options.trace_capacity = 64;  // absurdly small: guaranteed overflow
    const RunResult result = run_scenario(gen.generate(1), options);
    EXPECT_GT(result.trace_dropped, 0u);
    EXPECT_FALSE(result.ok());
    EXPECT_NE(result.report().find("trace_overflow"), std::string::npos);
}

}  // namespace
}  // namespace newtop::fuzz
