#include "window.hpp"

#include "obs/names.hpp"

namespace perfbench {

using namespace newtop;

obs::ProfileReport profile(const std::vector<obs::TraceEvent>& events,
                           const obs::MetricsRegistry& metrics) {
    obs::TraceDump dump;
    dump.events = events;
    for (const std::string_view name :
         {obs::metric::kInvReplyWaitOneway, obs::metric::kInvReplyWaitFirst,
          obs::metric::kInvReplyWaitMajority, obs::metric::kInvReplyWaitAll,
          obs::metric::kInvReplyWaitOther, obs::metric::kGcsDeliveryLatencyUs}) {
        if (const obs::LatencyHistogram* h = metrics.histogram(name)) {
            dump.expectations.push_back(obs::TraceExpectation{std::string(name), h->count(), h->sum()});
        }
    }
    return obs::LatencyProfiler{}.analyze(dump);
}

std::string reconciliation_failures(const obs::ProfileReport& report) {
    if (!report.ok) return report.error;
    std::string out;
    for (const obs::Reconciliation& rec : report.reconciliations) {
        if (rec.ok) continue;
        out += rec.metric + " count " + std::to_string(rec.expected_count) + " traced " +
               std::to_string(rec.actual_count) + ", sum " + std::to_string(rec.expected_sum_us) +
               " traced " + std::to_string(rec.actual_sum_us) + "; ";
    }
    return out;
}

std::vector<obs::TraceEvent> check_trace(const std::string& workload, const Network& network,
                                         Tracer& tracer, SimTime from, SimTime to, RepResult& r,
                                         obs::ProfileReport& report) {
    const auto& events = tracer.events();
    const std::int64_t start = host_ns();
    std::vector<obs::Violation> violations;
    {
        SpanGuard span(&tracer, "oracle.check", 0);
        violations = obs::ProtocolOracle{}.check(events);
    }
    r.layer["obs.oracle_ns_per_event"] =
        events.empty() ? 0.0
                       : static_cast<double>(host_ns() - start) / static_cast<double>(events.size());
    if (!violations.empty()) {
        r.errors.push_back(workload + ": oracle: " + obs::ProtocolOracle::report(violations));
    }
    report = profile(events, network.metrics());
    if (!report.ok || !report.reconciled()) {
        r.errors.push_back(workload + ": latency profile did not reconcile: " +
                           reconciliation_failures(report));
    }
    std::vector<obs::TraceEvent> window;
    for (const obs::TraceEvent& e : events) {
        if (e.at >= from && e.at < to) window.push_back(e);
    }
    r.trace_events = window.size();
    return window;
}

}  // namespace perfbench
