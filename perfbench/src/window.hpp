// The measured window and the traced-rep checks shared by the workloads
// that own their world (lan_flood, geo_rr).
#pragma once

#include <string>
#include <vector>

#include "alloc_count.hpp"
#include "bench.hpp"
#include "layers.hpp"
#include "obs/oracle.hpp"
#include "obs/profiler.hpp"

namespace perfbench {

/// Runs `world.run_window()` and records its host time, allocations,
/// scheduler events and step totals, and the registry deltas in `layers`.
template <typename World>
void measure_window(World& world, Tracer* tracer, RepResult& r, LayerAccumulator& layers) {
    const WorldSnapshot before = snapshot(world.network());
    if (tracer != nullptr) tracer->reset_totals();
    const alloc::Counts heap_before = alloc::counts();
    const std::int64_t start = host_ns();
    r.window_events = world.run_window();
    r.window_host_s = static_cast<double>(host_ns() - start) / 1e9;
    const alloc::Counts heap_after = alloc::counts();
    if (tracer != nullptr) r.steps = tracer->totals();
    r.window_allocs = heap_after.allocs - heap_before.allocs;
    r.window_net_allocs = static_cast<std::int64_t>(heap_after.allocs - heap_before.allocs) -
                          static_cast<std::int64_t>(heap_after.frees - heap_before.frees);
    layers.add_window(before, world.network());
}

/// The traced rep's stream checks: the ProtocolOracle (timed, into
/// obs.oracle_ns_per_event) and a LatencyProfiler run reconciled against
/// the world's histograms.  Failures go to r.errors.  Returns the events
/// stamped inside [from, to), and counts them in r.trace_events.
std::vector<newtop::obs::TraceEvent> check_trace(const std::string& workload,
                                                 const newtop::Network& network, Tracer& tracer,
                                                 newtop::SimTime from, newtop::SimTime to,
                                                 RepResult& r,
                                                 newtop::obs::ProfileReport& report);

/// A profile of `events` reconciled against every reply-wait and delivery
/// histogram `metrics` holds.
newtop::obs::ProfileReport profile(const std::vector<newtop::obs::TraceEvent>& events,
                                   const newtop::obs::MetricsRegistry& metrics);

/// Why a profile did not reconcile: the refusal, or each mismatched
/// histogram with its expected and traced count and sum.
std::string reconciliation_failures(const newtop::obs::ProfileReport& report);

}  // namespace perfbench
