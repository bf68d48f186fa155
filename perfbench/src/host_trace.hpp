// Host-time tracing for the traced rep, all of it outside the simulator.
//
// The Tracer is a benchmark-owned obs::TraceSink.  It keeps every protocol
// event (for the oracle and the latency profiler) and remembers which
// TraceKinds fired since the last scheduler step, so the step loop in
// advance() can classify each step by the layer that did the work and stamp
// its host time.  Spans record the benchmark's own calls into a layer
// (step, multicast, invoke, servant handle, callbacks, scenario runs, oracle
// and codec timings); they stay in memory and are written out at the end.
// A step span is kept only when a benchmark span ran inside it; the other
// steps are summed per class (StepTotals) instead of logged one by one.
//
// Executed events are counted in the step loop; Scheduler::pending() is
// never read (it undercounts after a cancel of an already-fired timer).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "sim/scheduler.hpp"

namespace perfbench {

/// Host clock, nanoseconds since an arbitrary epoch.
inline std::int64_t host_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// The layer a scheduler step is charged to.
enum class StepClass : std::uint8_t { kGcsData = 0, kGcsMembership = 1, kInvocation = 2, kUntraced = 3 };
inline constexpr std::size_t kStepClassCount = 4;

const char* step_class_name(StepClass c);

/// The layer that emits `kind` (the benchmark's TraceKind-to-layer table).
StepClass layer_of(newtop::obs::TraceKind kind);

/// Class of a step from the set of kinds that fired in it (bit i = kind i):
/// the highest layer wins (invocation > membership > data); a step that
/// emitted nothing is kUntraced.
StepClass classify(std::uint64_t kind_mask);

/// Host self time and count of scheduler steps, per class.
struct StepTotals {
    std::array<std::uint64_t, kStepClassCount> steps{};
    std::array<std::int64_t, kStepClassCount> self_ns{};

    [[nodiscard]] std::int64_t all_ns() const;
};

struct Span {
    const char* name;
    std::uint64_t id;       // shared by every span of one call or payload
    std::int64_t parent;    // index into the log, -1 for a root
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int64_t child_ns;  // time covered by direct children
};

class Tracer final : public newtop::obs::TraceSink {
public:
    void record(const newtop::obs::TraceEvent& event) override;

    /// Run every event with timestamp <= deadline, one Scheduler::step()
    /// at a time, and leave simulated time at `deadline` — the same
    /// outcome as Scheduler::run_until.  A sentinel event at `deadline`
    /// marks the end (re-armed until no event at `deadline` remains).
    /// Returns the number of program events executed (sentinels excluded).
    std::uint64_t advance(newtop::Scheduler& scheduler, newtop::SimTime deadline);

    /// Open a span under the innermost open span; returns its index.
    std::size_t open(const char* name, std::uint64_t id);
    void close(std::size_t index);

    [[nodiscard]] const std::vector<newtop::obs::TraceEvent>& events() const { return events_; }
    [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
    [[nodiscard]] const StepTotals& totals() const { return totals_; }
    /// Drop the per-step totals (spans and events are kept).
    void reset_totals() { totals_ = {}; }
    /// Drop the recorded protocol events (between independent worlds).
    void clear_events() { events_.clear(); }

    /// Write the spans as JSON lines: one header, then one line per span
    /// [name, id, parent, start_ns, end_ns, self_ns].
    bool write_spans(const std::string& path, const std::string& header) const;

private:
    std::vector<newtop::obs::TraceEvent> events_;
    std::uint64_t mask_{0};
    std::vector<Span> spans_;
    std::vector<std::size_t> open_;
    StepTotals totals_;
};

/// Drives the world to `deadline`: step by step under a tracer, else with
/// Scheduler::run_until.  Returns the events counted (0 when untraced).
std::uint64_t advance(newtop::Scheduler& scheduler, newtop::SimTime deadline, Tracer* tracer);

/// RAII span; a no-op without a tracer.
class SpanGuard {
public:
    SpanGuard(Tracer* tracer, const char* name, std::uint64_t id)
        : tracer_(tracer), index_(tracer != nullptr ? tracer->open(name, id) : 0) {}
    ~SpanGuard() {
        if (tracer_ != nullptr) tracer_->close(index_);
    }
    SpanGuard(const SpanGuard&) = delete;
    SpanGuard& operator=(const SpanGuard&) = delete;

private:
    Tracer* tracer_;
    std::size_t index_;
};

}  // namespace perfbench
