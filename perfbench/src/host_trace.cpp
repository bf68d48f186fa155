#include "host_trace.hpp"

#include <fstream>

namespace perfbench {

using newtop::obs::TraceKind;

namespace {

constexpr StepClass kData = StepClass::kGcsData;
constexpr StepClass kMembership = StepClass::kGcsMembership;
constexpr StepClass kInvocation = StepClass::kInvocation;

// Indexed by TraceKind value.
constexpr std::array<StepClass, newtop::obs::kTraceKindCount> kLayerOfKind = {
    kData,        // kMulticastSent
    kData,        // kDataOnWire
    kData,        // kNullOnWire
    kData,        // kOrderOnWire
    kMembership,  // kViewInstalled
    kMembership,  // kFlushSent
    kInvocation,  // kRequestQueued
    kInvocation,  // kRequestSent
    kInvocation,  // kRequestRetried
    kInvocation,  // kReplyCollected
    kInvocation,  // kCallCompleted
    kInvocation,  // kCallFailed
    kInvocation,  // kCallTimedOut
    kInvocation,  // kRebound
    kData,        // kDataDelivered
    kMembership,  // kCutDelivered
    kMembership,  // kViewChangeBegun
    kInvocation,  // kRequestForwarded
    kInvocation,  // kAggregateSent
    kInvocation,  // kExecutionBegun
    kInvocation,  // kExecutionDone
    kData,        // kSendQueued
    kData,        // kPayloadShipped
    kData,        // kDataArrived
    kData,        // kPayloadDelivered
    kData,        // kOrderAssigned
    kMembership,  // kConfigProposed
    kMembership,  // kConfigSwitched
    kMembership,  // kSuspected
    kInvocation,  // kRequestShed
    kInvocation,  // kBindShed
};
static_assert(newtop::obs::kTraceKindCount == 31,
              "a TraceKind was added: give it a layer in kLayerOfKind");
static_assert(newtop::obs::kTraceKindCount <= 64, "kind masks are 64-bit");

}  // namespace

const char* step_class_name(StepClass c) {
    switch (c) {
        case StepClass::kGcsData: return "gcs_data";
        case StepClass::kGcsMembership: return "gcs_membership";
        case StepClass::kInvocation: return "invocation";
        case StepClass::kUntraced: return "untraced";
    }
    return "?";
}

StepClass layer_of(TraceKind kind) { return kLayerOfKind[static_cast<std::size_t>(kind)]; }

StepClass classify(std::uint64_t kind_mask) {
    if (kind_mask == 0) return StepClass::kUntraced;
    bool membership = false;
    for (std::size_t k = 0; k < newtop::obs::kTraceKindCount; ++k) {
        if ((kind_mask & (std::uint64_t{1} << k)) == 0) continue;
        const StepClass c = kLayerOfKind[k];
        if (c == kInvocation) return kInvocation;
        membership |= c == kMembership;
    }
    return membership ? kMembership : kData;
}

std::int64_t StepTotals::all_ns() const {
    std::int64_t n = 0;
    for (const std::int64_t s : self_ns) n += s;
    return n;
}

void Tracer::record(const newtop::obs::TraceEvent& event) {
    events_.push_back(event);
    mask_ |= std::uint64_t{1} << static_cast<unsigned>(event.kind);
}

std::uint64_t Tracer::advance(newtop::Scheduler& scheduler, newtop::SimTime deadline) {
    std::uint64_t executed = 0;
    if (scheduler.now() > deadline) return 0;
    // Every pending event is older than a fresh sentinel, so a pass that
    // runs nothing before it proves no event at or before `deadline` is
    // left.  Events run in a pass may schedule more at exactly `deadline`
    // (run_until would run those too), hence the re-arm.
    std::uint64_t ran = 0;
    do {
        bool reached = false;
        scheduler.schedule_at(deadline, [&reached] { reached = true; });
        ran = 0;
        while (true) {
            mask_ = 0;
            const std::size_t span = open("step", 0);
            scheduler.step();
            if (reached) {
                // The sentinel itself: not a program event.
                spans_.pop_back();
                open_.pop_back();
                break;
            }
            close(span);
            const Span& s = spans_[span];
            const auto c = static_cast<std::size_t>(classify(mask_));
            ++totals_.steps[c];
            totals_.self_ns[c] += s.end_ns - s.start_ns - s.child_ns;
            ++ran;
            // A step with no benchmark span inside it is only counted in
            // the per-class totals: the log would otherwise hold millions.
            if (span + 1 == spans_.size()) spans_.pop_back();
        }
        executed += ran;
    } while (ran > 0);
    return executed;
}

std::size_t Tracer::open(const char* name, std::uint64_t id) {
    const std::int64_t parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
    spans_.push_back(Span{name, id, parent, host_ns(), 0, 0});
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
}

void Tracer::close(std::size_t index) {
    Span& s = spans_[index];
    s.end_ns = host_ns();
    if (!open_.empty() && open_.back() == index) open_.pop_back();
    if (s.parent >= 0) spans_[static_cast<std::size_t>(s.parent)].child_ns += s.end_ns - s.start_ns;
}

bool Tracer::write_spans(const std::string& path, const std::string& header) const {
    std::ofstream out(path, std::ios::trunc);
    if (!out) return false;
    out << header << '\n';
    std::string line;
    for (const Span& s : spans_) {
        line.clear();
        line += "[\"";
        line += s.name;
        line += "\",";
        line += std::to_string(s.id);
        line += ',';
        line += std::to_string(s.parent);
        line += ',';
        line += std::to_string(s.start_ns);
        line += ',';
        line += std::to_string(s.end_ns);
        line += ',';
        line += std::to_string(s.end_ns - s.start_ns - s.child_ns);
        line += "]\n";
        out << line;
    }
    return static_cast<bool>(out);
}

std::uint64_t advance(newtop::Scheduler& scheduler, newtop::SimTime deadline, Tracer* tracer) {
    if (tracer != nullptr) return tracer->advance(scheduler, deadline);
    scheduler.run_until(deadline);
    return 0;
}

}  // namespace perfbench
