// Shared vocabulary of the repository benchmark (see ../README.md).
//
// A workload runs as repetitions ("reps") of one fixed piece of simulated
// work on one seed.  Each rep builds a fresh world (timed as set-up), opens
// a measured window (timed on the host clock), then drains and checks its
// outputs.  Simulated results are a pure function of the seed, so every rep
// must produce the same digest; host timings differ and are reported as a
// median with their spread.  A traced rep (--trace 1) replays the same seed
// with a benchmark-owned trace sink and a step-at-a-time scheduler loop and
// feeds the per-layer metrics.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "host_trace.hpp"
#include "stats.hpp"

namespace perfbench {

struct Options {
    std::string workload;
    std::uint64_t seed{1};
    double seconds{10.0};
    bool trace{false};
    std::string out_dir{".bench_build/spans"};
};

/// Everything one rep measured.  `sim` fields are simulated-time facts and
/// must be identical between reps of one seed; `host` fields are not.
struct RepResult {
    // -- host clock --------------------------------------------------------
    double setup_s{0.0};
    double window_host_s{0.0};
    std::uint64_t window_allocs{0};
    std::int64_t window_net_allocs{0};

    // -- simulated ---------------------------------------------------------
    std::uint64_t ops{0};                // ops completed in the window
    double sim_window_s{0.0};            // simulated length of the window
    double sim_rate{0.0};                // sim_ops_per_s (see README.md)
    std::vector<double> latencies_ms;    // per-op simulated latency samples
    std::uint64_t attempted{0};          // calls or payloads, for fail_frac
    std::uint64_t failed{0};
    std::uint64_t checked{0};            // ops checked, when not `attempted`
    std::string digest;                  // registry (or trace) digest
    std::vector<std::string> errors;     // correctness failures

    /// Per-layer values the rep measured itself: registry deltas, and in a
    /// traced rep the trace-derived figures; keyed by BENCHMARK.json
    /// per_layer names.
    std::map<std::string, double> layer;

    // -- traced rep only -----------------------------------------------------
    std::uint64_t window_events{0};      // scheduler events run in the window
    std::uint64_t trace_events{0};       // trace events stamped in the window
    StepTotals steps;
};

/// A workload: how to run one rep, and a cheap seed-sensitivity probe.
struct Workload {
    const char* name;
    /// Fixed simulated work per rep; `tracer` is null for untraced reps.
    RepResult (*run_rep)(std::uint64_t seed, Tracer* tracer);
    /// Digest of the world state when the measured window would open —
    /// used to prove that a different seed changes the simulated inputs.
    std::string (*setup_digest)(std::uint64_t seed);
    /// Shape-specific codec timings and other per-layer host figures that
    /// are measured once per traced run (see codec_timing.hpp).
    void (*host_layers)(const RepResult& traced, Tracer* tracer,
                        std::map<std::string, double>& layer);
};

const Workload& lan_flood_workload();
const Workload& geo_rr_workload();
const Workload& chaos_mix_workload();

/// The per-layer metric names and units printed by --trace 1, in
/// BENCHMARK.json order.  Workloads fill the ones that apply; the rest
/// print 0 (the layer does not run on that workload).
struct MetricName {
    const char* name;
    const char* unit;
};
const std::vector<MetricName>& per_layer_metrics();

/// Benchmark self-tests (quantile rule, fail_frac, step classification);
/// returns the failures, empty when all pass.
std::vector<std::string> run_self_tests();

}  // namespace perfbench
