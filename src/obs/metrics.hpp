// Deterministic observability: named counters and sim-time histograms.
//
// One MetricsRegistry exists per simulated world (owned by the Network) and
// is shared by every layer — CPU queues, the network, the ORB, the group
// communication endpoints and the invocation layer.  Counters and
// histograms live in arrays indexed by MetricId (obs/names.hpp), so the
// per-message paths never look a name up; to_json() emits them sorted by
// name, so two runs from the same seed produce byte-identical output.
// Everything is keyed by simulated time; there is no wall clock anywhere.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/names.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/time.hpp"

namespace newtop::obs {

/// Log-scale histogram over non-negative sim durations (microseconds).
/// Bucket 0 holds the value 0; bucket i (i >= 1) holds values in
/// [2^(i-1), 2^i).  64 buckets cover the full SimDuration range, so the
/// layout never changes with the data — a requirement for reproducible
/// output.
class LatencyHistogram {
public:
    static constexpr std::size_t kBucketCount = 64;

    void record(SimDuration value);

    [[nodiscard]] std::uint64_t count() const { return count_; }
    [[nodiscard]] SimDuration sum() const { return sum_; }
    [[nodiscard]] SimDuration min() const { return min_; }
    [[nodiscard]] SimDuration max() const { return max_; }
    [[nodiscard]] const std::array<std::uint64_t, kBucketCount>& buckets() const {
        return buckets_;
    }

    /// Inclusive lower bound of bucket `index`.
    [[nodiscard]] static SimDuration bucket_floor(std::size_t index);

    /// Quantile estimate from bucket floors: the floor of the bucket holding
    /// the ceil(q * count)-th smallest sample, clamped to [min, max] so the
    /// log-scale coarseness never reports a value outside the observed
    /// range.  Returns 0 when empty.
    [[nodiscard]] SimDuration quantile(double q) const;

    /// Append this histogram as a JSON object to `out` (sparse buckets:
    /// [[index, count], ...]).
    void append_json(std::string& out) const;

private:
    std::uint64_t count_{0};
    SimDuration sum_{0};
    SimDuration min_{0};
    SimDuration max_{0};
    std::array<std::uint64_t, kBucketCount> buckets_{};
};

/// Reads one instantaneous value (queue depth, credit occupancy, ...) at a
/// sampling tick; `at` is the tick's sim time for values derived from it
/// (e.g. CPU backlog = busy_until - now).
using GaugeFn = std::function<std::uint64_t(SimTime at)>;
using GaugeHandle = std::uint64_t;

class MetricsRegistry {
public:
    MetricsRegistry();

    /// The id of `name`: its table id, or the id this registry interned it
    /// under (interning it now if it is new).  Names composed at runtime
    /// are interned once, when they are created, and used by id after.
    MetricId intern(std::string_view name);

    /// Increment counter `id` by `delta` (creating it at zero; a zero delta
    /// still creates it).
    void add(MetricId id, std::uint64_t delta = 1) {
        NEWTOP_EXPECTS(id.index < counters_.size(), "metric id interned by another registry");
        Counter& c = counters_[id.index];
        c.value += delta;
        c.touched = true;
    }
    void add(std::string_view name, std::uint64_t delta = 1) { add(intern(name), delta); }

    /// Current value of a counter; 0 if it was never incremented.
    [[nodiscard]] std::uint64_t counter(std::string_view name) const;

    /// Record `value` into histogram `id` (negative values clamp to 0).
    void observe(MetricId id, SimDuration value) {
        NEWTOP_EXPECTS(id.index < histograms_.size(), "metric id interned by another registry");
        std::unique_ptr<LatencyHistogram>& h = histograms_[id.index];
        if (h == nullptr) h = std::make_unique<LatencyHistogram>();
        h->record(value);
    }
    void observe(std::string_view name, SimDuration value) { observe(intern(name), value); }

    /// The named histogram, or nullptr if nothing was observed under it.
    [[nodiscard]] const LatencyHistogram* histogram(std::string_view name) const;

    /// Everything, as one deterministic JSON object:
    ///   {"counters":{...},"histograms":{...}}
    /// plus a "series" member when any time series has samples.  Names
    /// appear in byte order and every field is an integer, so the string
    /// is a pure function of the recorded data.
    [[nodiscard]] std::string to_json() const;

    // -- time series ---------------------------------------------------------
    //
    // Sampled gauges: layers register a reader for an instantaneous value
    // (holdback depth, send credits, CPU backlog, directory size) and the
    // world drives sampling ticks (Network::enable_gauge_sampling).  Every
    // gauge registered under the same name is summed into one world-level
    // series per tick.  Registration order is irrelevant to the output
    // (samples are keyed by name), so runs stay byte-identical.

    /// Register a gauge under `name`; the handle unregisters it.  `fn` must
    /// outlive the registration — owners unregister in their destructor.
    GaugeHandle register_gauge(std::string_view name, GaugeFn fn);
    void unregister_gauge(GaugeHandle handle);

    /// Read every registered gauge, summing same-named gauges, and append
    /// one sample per name to its series.
    void sample_gauges(SimTime at);

    /// Append one sample directly (for values no gauge models).
    void sample(std::string_view name, SimTime at, std::uint64_t value);

    /// The sampled points of one series, oldest first; nullptr if none.
    [[nodiscard]] const std::vector<std::pair<SimTime, std::uint64_t>>* series(
        std::string_view name) const;

    // -- tracing -------------------------------------------------------------

    /// Install (or remove, with nullptr) the trace sink.  Not owned.
    void set_trace_sink(TraceSink* sink) { trace_sink_ = sink; }
    [[nodiscard]] TraceSink* trace_sink() const { return trace_sink_; }

    /// Record a protocol event if a sink is installed (no-op otherwise).
    void trace(TraceKind kind, SimTime at, std::uint64_t actor, std::uint64_t subject = 0,
               std::uint64_t detail = 0) {
        if (trace_sink_ != nullptr) {
            trace_sink_->record(TraceEvent{at, kind, actor, subject, detail});
        }
    }

    /// Span-aware variant: ties the event into an invocation's span tree.
    /// `parent` is the causally preceding span (0 for a root).
    void trace(TraceKind kind, SimTime at, std::uint64_t actor, SpanContext span,
               std::uint64_t parent, std::uint64_t subject = 0, std::uint64_t detail = 0) {
        if (trace_sink_ != nullptr) {
            trace_sink_->record(
                TraceEvent{at, kind, actor, subject, detail, span.trace, span.span, parent});
        }
    }

private:
    struct Gauge {
        std::string name;
        GaugeFn fn;
    };
    struct Counter {
        std::uint64_t value{0};
        bool touched{false};
    };

    /// The id of `name` if it is a table name or was interned here.
    [[nodiscard]] const MetricId* find(std::string_view name) const;

    /// Indexed by MetricId::index; an untouched counter, or a null
    /// histogram, has never been recorded and stays out of to_json().
    std::vector<Counter> counters_;
    std::vector<std::unique_ptr<LatencyHistogram>> histograms_;
    /// Names interned past the table, in id order (a deque keeps the
    /// MetricId names that view them valid), and their ids by name.
    std::deque<std::string> interned_names_;
    std::map<std::string_view, MetricId, std::less<>> interned_;
    std::map<std::string, std::vector<std::pair<SimTime, std::uint64_t>>, std::less<>> series_;
    std::map<GaugeHandle, Gauge> gauges_;
    GaugeHandle next_gauge_{1};
    TraceSink* trace_sink_{nullptr};
};

}  // namespace newtop::obs
