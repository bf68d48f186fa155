// Self-tests of the benchmark's own arithmetic, run before every
// measurement: a wrong quantile, failure fraction, digest filter or step
// classification would otherwise pass silently into the results.
#include <string>
#include <vector>

#include "bench.hpp"
#include "net/calibration.hpp"
#include "net/network.hpp"

namespace perfbench {
namespace {

using namespace newtop;
using obs::TraceKind;

void expect(bool ok, const std::string& what, std::vector<std::string>& failures) {
    if (!ok) failures.push_back(what);
}

std::vector<double> one_to(int n) {
    std::vector<double> v;
    for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
    return v;
}

void test_quantiles(std::vector<std::string>& failures) {
    std::vector<double> thousand = one_to(1000);
    const Quantile p99 = exact_quantile(thousand, 0.99);
    expect(p99.ok && p99.value == 990 && p99.beyond == 10 && p99.samples == 1000,
           "p99 of 1..1000 is 990 with 10 samples beyond", failures);
    std::vector<double> short_of = one_to(999);
    expect(!exact_quantile(short_of, 0.99).ok, "p99 of 999 samples has only 9 beyond", failures);
    std::vector<double> four = one_to(4);
    const Quantile p50 = exact_quantile(four, 0.50);
    expect(p50.value == 2 && p50.beyond == 2 && !p50.ok, "nearest-rank p50 of 1..4 is 2", failures);
    std::vector<double> empty;
    expect(!exact_quantile(empty, 0.5).ok, "no quantile of no samples", failures);
    expect(median({3, 1, 2}) == 2 && median({4, 1, 3, 2}) == 2.5, "median odd/even", failures);
}

void test_fail_frac(std::vector<std::string>& failures) {
    CallTally t;
    t.issued = 200;
    t.completed = 194;
    t.failed = 3;
    t.timed_out = 2;
    t.shed = 1;
    expect(fail_frac(t) == 0.03, "fail_frac counts failed, timed-out and shed calls", failures);
    expect(fail_frac(CallTally{}) == 0.0, "fail_frac of nothing issued is 0", failures);
}

void test_digest_filter(std::vector<std::string>& failures) {
    expect(strip_obs_members(
               R"({"counters":{"a.x":1,"obs.trace_dropped":4,"z":2},"histograms":{"obs.h":{"count":1,"buckets":[[1,1]]}}})") ==
               R"({"counters":{"a.x":1,"z":2},"histograms":{}})",
           "obs.* members are dropped from the digest input", failures);
    expect(strip_obs_members(R"({"a":1,"obs.b":2})") == R"({"a":1})",
           "a trailing obs.* member takes its separator along", failures);
    expect(hex_digest("a") != hex_digest("b") && hex_digest("a").size() == 16, "hex digest",
           failures);
}

/// A tiny world whose events are known: each scheduled function emits a
/// chosen set of trace kinds, one timer is cancelled before it fires and
/// one after (the case where Scheduler::pending() undercounts).
void test_step_classification(std::vector<std::string>& failures) {
    Scheduler scheduler;
    Network network(scheduler, calibration::make_lan_topology(), 1);
    Tracer tracer;
    network.metrics().set_trace_sink(&tracer);
    auto emit = [&network, &scheduler](std::initializer_list<TraceKind> kinds) {
        for (const TraceKind k : kinds) network.metrics().trace(k, scheduler.now(), 1);
    };
    scheduler.schedule_at(10, [&] { emit({TraceKind::kDataOnWire}); });
    scheduler.schedule_at(20, [&] { emit({TraceKind::kDataOnWire, TraceKind::kViewInstalled}); });
    scheduler.schedule_at(30, [] {});
    scheduler.schedule_at(40, [&] { emit({TraceKind::kNullOnWire, TraceKind::kCallCompleted}); });
    const TimerId never = scheduler.schedule_at(50, [] {});
    scheduler.cancel(never);
    const TimerId fired = scheduler.schedule_at(60, [] {});
    // Zero-delay work at the deadline itself still belongs to the window.
    scheduler.schedule_at(100, [&] { scheduler.schedule_after(0, [&] { emit({TraceKind::kSuspected}); }); });
    const std::uint64_t first = tracer.advance(scheduler, 60);
    scheduler.cancel(fired);  // cancel after fire
    const std::uint64_t second = tracer.advance(scheduler, 100);
    network.metrics().set_trace_sink(nullptr);

    const StepTotals& t = tracer.totals();
    expect(first == 5 && second == 2, "advance() counts executed events, sentinels and the "
                                      "cancelled timer excluded",
           failures);
    expect(scheduler.now() == 100, "advance() leaves simulated time at the deadline", failures);
    expect(t.steps[static_cast<std::size_t>(StepClass::kGcsData)] == 1 &&
               t.steps[static_cast<std::size_t>(StepClass::kGcsMembership)] == 2 &&
               t.steps[static_cast<std::size_t>(StepClass::kInvocation)] == 1 &&
               t.steps[static_cast<std::size_t>(StepClass::kUntraced)] == 3,
           "steps are classified by the highest layer that traced in them", failures);
    expect(tracer.events().size() == 6, "the tracer keeps every traced event", failures);
    expect(layer_of(TraceKind::kRequestShed) == StepClass::kInvocation &&
               layer_of(TraceKind::kOrderAssigned) == StepClass::kGcsData &&
               layer_of(TraceKind::kConfigSwitched) == StepClass::kGcsMembership,
           "TraceKind-to-layer table", failures);
}

/// advance() and Scheduler::run_until must run the same events in the
/// same order, including work scheduled at exactly the deadline.
void test_advance_matches_run_until(std::vector<std::string>& failures) {
    auto script = [](Scheduler& s, std::vector<int>& log) {
        s.schedule_at(5, [&s, &log] {
            log.push_back(1);
            s.schedule_at(20, [&log] { log.push_back(2); });
        });
        s.schedule_at(20, [&s, &log] {
            log.push_back(3);
            s.schedule_after(0, [&s, &log] {
                log.push_back(4);
                s.schedule_after(0, [&log] { log.push_back(5); });
            });
        });
        s.schedule_at(21, [&log] { log.push_back(6); });
    };
    Scheduler a;
    Scheduler b;
    std::vector<int> log_a;
    std::vector<int> log_b;
    script(a, log_a);
    script(b, log_b);
    a.run_until(20);
    Tracer tracer;
    const std::uint64_t n = tracer.advance(b, 20);
    expect(log_a == log_b && log_b == std::vector<int>({1, 3, 2, 4, 5}) && n == 5 &&
               a.now() == b.now(),
           "advance() runs what run_until runs, in the same order", failures);
}

}  // namespace

std::vector<std::string> run_self_tests() {
    std::vector<std::string> failures;
    test_quantiles(failures);
    test_fail_frac(failures);
    test_digest_filter(failures);
    test_step_classification(failures);
    test_advance_matches_run_until(failures);
    return failures;
}

}  // namespace perfbench
