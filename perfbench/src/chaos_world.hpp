// The traced replay of one chaos scenario.
//
// fuzz::run_scenario builds its world, scheduler, registry and trace sink
// locally and exposes none of them, so neither a step-at-a-time loop nor
// the registry counters are reachable through it.  The traced chaos_mix rep
// therefore replays each scenario in a benchmark-owned world assembled
// exactly as run_scenario assembles it (same construction order, same
// timers, same fault plan), with the benchmark's Tracer as the sink and
// advance() as the loop.  chaos_mix checks that every replayed trace is
// identical to run_scenario's own, so the replay cannot drift unnoticed.
#pragma once

#include <cstdint>
#include <set>

#include "fuzz/scenario.hpp"
#include "host_trace.hpp"
#include "layers.hpp"
#include "obs/profiler.hpp"

namespace perfbench {

struct ReplayStats {
    std::uint64_t events{0};  // scheduler events executed
    /// Causal-order groups (exempt from the oracle's total-order check),
    /// found the way run_scenario finds them.
    std::set<std::uint64_t> causal_groups;
    /// The latency profile of the scenario's trace, reconciled against the
    /// replay world's own histograms.
    newtop::obs::ProfileReport profile;
};

/// Replay `scenario` under `tracer` (whose events must be cleared first),
/// adding its registry/network/cpu figures over the whole scenario to
/// `layers`.
ReplayStats replay_scenario(const newtop::fuzz::Scenario& scenario, Tracer& tracer,
                            LayerAccumulator& layers);

}  // namespace perfbench
