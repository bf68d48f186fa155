// chaos_mix: the GCS layer as control plane, and the always-on trace and
// oracle path.
//
// A fixed block of consecutive fuzz::ScenarioGenerator seeds (reconfig and
// gray faults on) starting at --seed x kBlock.  Each scenario runs through
// fuzz::run_scenario in a fresh world with its trace, ProtocolOracle and
// liveness checks; RunResult::ok() must hold for every one.  One op is one
// checked scenario.  The simulated metrics come from the kept traces:
// latency is kRequestSent -> kCallCompleted per call, throughput is
// completed calls per simulated second of workload activity, summed over
// the block.
#include <utility>
#include <vector>

#include "alloc_count.hpp"
#include "bench.hpp"
#include "chaos_world.hpp"
#include "codec_timing.hpp"
#include "fuzz/runner.hpp"
#include "fuzz/scenario.hpp"
#include "layers.hpp"
#include "obs/oracle.hpp"
#include "window.hpp"

namespace perfbench {
namespace {

using namespace newtop;

/// Scenarios per block: enough completed calls that p99 has at least ten
/// samples beyond it.
constexpr std::uint64_t kBlock = 150;

fuzz::ScenarioGenerator generator() {
    fuzz::ScenarioLimits limits;
    limits.allow_reconfigs = true;
    limits.allow_gray = true;
    return fuzz::ScenarioGenerator(limits);
}

std::uint64_t block_base(std::uint64_t seed) { return seed * kBlock; }

/// FNV-1a over every field of every event.
std::uint64_t trace_digest(std::uint64_t h, const std::vector<obs::TraceEvent>& events) {
    for (const obs::TraceEvent& e : events) {
        for (const std::uint64_t v :
             {static_cast<std::uint64_t>(e.at), static_cast<std::uint64_t>(e.kind), e.actor,
              e.subject, e.detail, e.trace, e.span, e.parent}) {
            h = obs::fnv1a64(h, v);
        }
    }
    return h;
}

struct Block {
    std::vector<fuzz::Scenario> scenarios;
    double generate_us_per_scenario{0.0};
};

Block generate_block(std::uint64_t seed, Tracer* tracer) {
    const fuzz::ScenarioGenerator gen = generator();
    Block block;
    const std::int64_t start = host_ns();
    for (std::uint64_t i = 0; i < kBlock; ++i) {
        SpanGuard span(tracer, "generate", block_base(seed) + i);
        block.scenarios.push_back(gen.generate(block_base(seed) + i));
    }
    block.generate_us_per_scenario =
        static_cast<double>(host_ns() - start) / 1000.0 / static_cast<double>(kBlock);
    return block;
}

RepResult run_rep(std::uint64_t seed, Tracer* tracer) {
    RepResult r;
    const std::int64_t setup_start = host_ns();
    const Block block = generate_block(seed, tracer);
    {
        // One uncounted warm-up scenario, from outside the block.
        SpanGuard span(tracer, "run_scenario.warmup", block_base(seed) + kBlock);
        const fuzz::RunResult warm = fuzz::run_scenario(generator().generate(block_base(seed) + kBlock));
        if (!warm.ok()) r.errors.push_back("chaos_mix: warm-up scenario failed:\n" + warm.report());
    }
    r.setup_s = static_cast<double>(host_ns() - setup_start) / 1e9;
    r.layer["fuzz.generate_us_per_scenario"] = block.generate_us_per_scenario;

    std::uint64_t digest = obs::kFnvOffsetBasis;
    TracedCalls calls;
    LayerAccumulator layers;
    std::map<std::string, std::int64_t> phases;
    double oracle_ns = 0.0;
    if (tracer != nullptr) tracer->reset_totals();
    const alloc::Counts heap_before = alloc::counts();
    const std::int64_t window_start = host_ns();
    for (const fuzz::Scenario& scenario : block.scenarios) {
        std::vector<obs::TraceEvent> events;
        if (tracer == nullptr) {
            fuzz::RunOptions options;
            options.keep_trace = true;
            fuzz::RunResult result = fuzz::run_scenario(scenario, options);
            if (!result.ok()) {
                r.errors.push_back("chaos_mix: seed " + std::to_string(scenario.seed) + " failed:\n" +
                                   result.report());
            }
            events = std::move(result.trace);
        } else {
            tracer->clear_events();
            const ReplayStats stats = replay_scenario(scenario, *tracer, layers);
            events = tracer->events();
            r.window_events += stats.events;
            if (!stats.profile.ok || !stats.profile.reconciled()) {
                r.errors.push_back("chaos_mix: seed " + std::to_string(scenario.seed) +
                                   ": latency profile did not reconcile: " +
                                   reconciliation_failures(stats.profile));
            }
            add_profile_phases(stats.profile, phases);
            obs::OracleOptions oracle_options;
            oracle_options.causal_groups = stats.causal_groups;
            const std::int64_t oracle_start = host_ns();
            std::vector<obs::Violation> violations;
            {
                SpanGuard span(tracer, "oracle.check", scenario.seed);
                violations = obs::ProtocolOracle(oracle_options).check(events);
            }
            oracle_ns += static_cast<double>(host_ns() - oracle_start);
            if (!violations.empty()) {
                r.errors.push_back("chaos_mix: seed " + std::to_string(scenario.seed) +
                                   ": oracle: " + obs::ProtocolOracle::report(violations));
            }
        }
        r.trace_events += events.size();
        digest = trace_digest(digest, events);
        add_traced_calls(events, calls);
    }
    r.window_host_s = static_cast<double>(host_ns() - window_start) / 1e9;
    const alloc::Counts heap_after = alloc::counts();
    r.window_allocs = heap_after.allocs - heap_before.allocs;
    r.window_net_allocs = static_cast<std::int64_t>(heap_after.allocs - heap_before.allocs) -
                          static_cast<std::int64_t>(heap_after.frees - heap_before.frees);
    if (tracer != nullptr) {
        r.steps = tracer->totals();
        tracer->clear_events();
    }

    r.ops = kBlock;
    r.checked = kBlock;
    r.sim_window_s = calls.active_us / 1e6;
    r.sim_rate = r.sim_window_s > 0 ? static_cast<double>(calls.tally.completed) / r.sim_window_s : 0.0;
    r.latencies_ms = calls.latency_ms;
    r.attempted = calls.tally.issued;
    r.failed = calls.tally.failed + calls.tally.timed_out + calls.tally.shed;
    r.digest = hex_digest(std::to_string(digest));
    if (tracer != nullptr) {
        layers.finish(WindowWork{static_cast<double>(kBlock), static_cast<double>(calls.tally.issued),
                                 static_cast<double>(kBlock)},
                      r.layer);
        set_wait_quantiles(calls, r.layer);
        set_phase_shares(phases, r.layer);
        r.layer["fuzz.events_per_scenario"] =
            static_cast<double>(r.window_events) / static_cast<double>(kBlock);
        r.layer["obs.oracle_ns_per_event"] =
            r.trace_events > 0 ? oracle_ns / static_cast<double>(r.trace_events) : 0.0;
    }
    return r;
}

std::string setup_digest(std::uint64_t seed) {
    std::string text;
    for (const fuzz::Scenario& s : generate_block(seed, nullptr).scenarios) text += fuzz::to_json(s);
    return hex_digest(text);
}

void host_layers(const RepResult&, Tracer* tracer, std::map<std::string, double>& layer) {
    // The generator's default client payload is small: an 8-byte request in
    // one unbatched DATA message.
    const RequestEnv request = request_shape(8, InvocationMode::kWaitFirst);
    time_codecs(data_msg_shape(encode_envelope(request).size(), 1), request, tracer, layer);
}

}  // namespace

const Workload& chaos_mix_workload() {
    static const Workload w{"chaos_mix", &run_rep, &setup_digest, &host_layers};
    return w;
}

}  // namespace perfbench
