// The benchmark's own arithmetic: exact quantiles, failure fractions and
// the determinism digest.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace perfbench {

/// Minimum number of samples that must lie beyond a reported percentile.
inline constexpr std::size_t kMinBeyond = 10;

struct Quantile {
    bool ok{false};          // at least kMinBeyond samples lie beyond it
    double value{0.0};
    std::size_t samples{0};
    std::size_t beyond{0};   // samples strictly after the quantile's rank
};

/// Nearest-rank quantile of `samples` (sorted in place): the value at rank
/// ceil(q * n).  `ok` only when n - rank >= kMinBeyond.
Quantile exact_quantile(std::vector<double>& samples, double q);

/// Median of `values` (mean of the middle pair for even counts).
double median(std::vector<double> values);

/// Outcome counts of a set of calls (or payloads).
struct CallTally {
    std::uint64_t issued{0};
    std::uint64_t completed{0};
    std::uint64_t failed{0};     // handler fired with complete == false
    std::uint64_t timed_out{0};
    std::uint64_t shed{0};
};

/// (failed + timed out + shed) / issued; 0 when nothing was issued.
double fail_frac(const CallTally& tally);

/// FNV-1a over a string, as 16 hex digits.
std::string hex_digest(std::string_view text);

/// Digest of a registry's counters and histograms, with every obs.* entry
/// removed (those describe the observer, not the simulation).
std::string registry_digest(const newtop::obs::MetricsRegistry& metrics);

/// The registry JSON without obs.* members (exposed for the self-tests).
std::string strip_obs_members(std::string_view json);

}  // namespace perfbench
