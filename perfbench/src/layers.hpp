// Per-layer figures read from a world's public hooks: MetricsRegistry
// counters and histograms, Network::stats() and each node's CpuQueue.
// A WorldSnapshot taken when the measured window opens is diffed against
// the world when it closes, so set-up traffic never leaks into the window.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "net/network.hpp"
#include "obs/profiler.hpp"
#include "stats.hpp"

namespace perfbench {

struct WorldSnapshot {
    newtop::SimTime at{0};
    newtop::NetworkStats net;
    std::map<std::string_view, std::uint64_t> counters;
    std::map<std::string_view, newtop::obs::LatencyHistogram> histograms;
    std::vector<newtop::SimDuration> cpu_consumed;  // per node
};

WorldSnapshot snapshot(newtop::Network& network);

/// What a window's ops and calls were, for the per-op ratios.
struct WindowWork {
    double ops{0.0};
    double calls{0.0};      // invocations issued (0 when none)
    double scenarios{0.0};  // chaos scenarios (0 elsewhere)
};

/// Sums registry/network/cpu deltas over one or more windows (one per
/// chaos scenario, one elsewhere) and turns them into the per-layer
/// metrics: ratios per op, call or view, and quantiles of the merged
/// histogram deltas.
class LayerAccumulator {
public:
    void add_window(const WorldSnapshot& before, newtop::Network& network);
    void finish(const WindowWork& work, std::map<std::string, double>& layer) const;

private:
    using Buckets = std::array<std::uint64_t, newtop::obs::LatencyHistogram::kBucketCount>;
    [[nodiscard]] double counter(std::string_view name) const;
    [[nodiscard]] double hist_sum(std::string_view name) const;
    [[nodiscard]] double hist_count(std::string_view name) const;
    [[nodiscard]] double quantile(std::string_view name, double q) const;

    std::map<std::string_view, double> counters_;
    std::map<std::string_view, Buckets> buckets_;
    std::map<std::string_view, double> hist_sums_;
    newtop::NetworkStats net_;
    double busy_frac_max_sum_{0.0};
    int windows_{0};
};

/// phase.<name>_share from summed phase durations (profiler phase sums, or
/// the benchmark's own walk for bare multicasts); all zero when empty.
void set_phase_shares(const std::map<std::string, std::int64_t>& phase_sum_us,
                      std::map<std::string, double>& layer);

/// Sum the per-phase totals of a profiler report into `phase_sum_us`.
void add_profile_phases(const newtop::obs::ProfileReport& report,
                        std::map<std::string, std::int64_t>& phase_sum_us);

/// Phase sums for bare GCS multicasts (no invocation chain for the
/// profiler to walk): per delivered payload at each member,
/// sent -> shipped (credit_wait), shipped -> arrived (wire) and
/// arrived -> delivered (order_wait).  Returns the chains attributed.
std::uint64_t multicast_phases(const std::vector<newtop::obs::TraceEvent>& events,
                               std::map<std::string, std::int64_t>& phase_sum_us);

/// Invocations read back from one world's trace, keyed like the campaign
/// liveness check by (trace, issuing endpoint): issued on the first
/// kRequestQueued/kRequestSent, latency from the first kRequestSent to
/// kCallCompleted.  Accumulates over several worlds.
struct TracedCalls {
    CallTally tally;                 // shed counts calls with any kRequestShed
    std::vector<double> latency_ms;  // completed calls
    std::map<std::uint64_t, std::vector<double>> wait_us_by_mode;
    double active_us{0.0};           // per world: first request -> last outcome
};

void add_traced_calls(const std::vector<newtop::obs::TraceEvent>& events, TracedCalls& calls);

/// invocation.wait_{first,majority,all}_{p50,p99}_us as exact quantiles of
/// the traced reply waits (0 where fewer than kMinBeyond samples lie beyond).
void set_wait_quantiles(const TracedCalls& calls, std::map<std::string, double>& layer);

}  // namespace perfbench
