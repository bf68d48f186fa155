// perfbench — the repository benchmark's measuring binary.
//
//   perfbench --workload lan_flood|geo_rr|chaos_mix --seed N --seconds S
//             --trace 0|1 [--out DIR]
//   perfbench --self-test
//
// --trace 0 runs untraced reps of the workload until S host seconds are
// used (at least three) and reports the end-to-end metrics; --trace 1 runs
// untraced reps for S/2 seconds, then one traced rep on the same seed, and
// reports the per-layer metrics.  Human-readable lines come first; the last line is one
// JSON object {"correct", "attempted", "failed", "metrics"}.  Any
// correctness, determinism or self-test failure exits non-zero.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "bench.hpp"

namespace perfbench {
namespace {

constexpr int kMinReps = 3;
constexpr int kMaxReps = 400;

struct Printed {
    std::string name;
    double value;
    std::string unit;
};

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string number(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string json_escape(const std::string& s) {
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (c == '\n') {
            out += "\\n";
            continue;
        }
        out += c;
    }
    return out;
}

/// The result line of a run whose checks all passed.  Its ops are the
/// workload's calls or payloads, or, where the workload says so
/// (`checked`), its checked scenarios, none of which failed.
void print_result(const RepResult& r, const std::vector<Printed>& metrics) {
    const std::uint64_t attempted = r.checked > 0 ? r.checked : r.attempted;
    const std::uint64_t failed = r.checked > 0 ? 0 : r.failed;
    std::string out = "{\"correct\": true";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i > 0) out += ", ";
        out += '"';
        out += json_escape(metrics[i].name);
        out += "\": {\"value\": ";
        out += number(metrics[i].value);
        out += ", \"unit\": \"";
        out += json_escape(metrics[i].unit);
        out += "\"}";
    }
    out += "}}";
    std::cout << out << std::endl;
}

std::string spread(const std::vector<double>& v) {
    std::vector<double> sorted = v;
    std::sort(sorted.begin(), sorted.end());
    const double q1 = sorted[sorted.size() / 4];
    const double q3 = sorted[(sorted.size() * 3) / 4];
    return "median of " + std::to_string(v.size()) + " reps; min " + number(sorted.front()) +
           ", q1 " + number(q1) + ", q3 " + number(q3) + ", max " + number(sorted.back());
}

/// True when two reps produced the same simulated results.
bool same_sim(const RepResult& a, const RepResult& b) {
    return a.digest == b.digest && a.ops == b.ops && a.sim_rate == b.sim_rate &&
           a.latencies_ms == b.latencies_ms && a.attempted == b.attempted && a.failed == b.failed;
}

int fail(const std::vector<std::string>& errors) {
    for (const std::string& e : errors) std::cout << "FAIL " << e << "\n";
    std::cout << std::flush;
    return 1;
}

/// The seed must reach the simulated inputs: another seed, another digest.
void check_seed_sensitivity(const Workload& wl, std::uint64_t seed,
                            std::vector<std::string>& errors) {
    const std::string a = wl.setup_digest(seed);
    const std::string b = wl.setup_digest(seed + 1);
    std::cout << "# seed probe: setup digest " << a << " (seed " << seed << ") vs " << b
              << " (seed " << seed + 1 << ")\n";
    if (a == b) errors.push_back("determinism: seeds " + std::to_string(seed) + " and " +
                                 std::to_string(seed + 1) + " gave the same set-up digest");
}

struct Reps {
    std::vector<RepResult> reps;
    double rss_mb{0.0};  // getrusage peak after the first kMinReps reps
};

/// Untraced reps of one seed until `budget_s` host seconds are used (at
/// least kMinReps), each checked against rep 0's simulated results.  Only
/// rep 0 keeps its latency samples, so memory does not grow with the count.
Reps collect_reps(const Workload& wl, std::uint64_t seed, double budget_s,
                  std::vector<std::string>& errors) {
    Reps out;
    std::vector<RepResult>& reps = out.reps;
    const std::int64_t start = host_ns();
    while (static_cast<int>(reps.size()) < kMaxReps) {
        RepResult r = wl.run_rep(seed, nullptr);
        errors.insert(errors.end(), r.errors.begin(), r.errors.end());
        if (!reps.empty()) {
            if (!same_sim(r, reps.front())) {
                errors.push_back("determinism: rep digest " + r.digest +
                                 " differs from rep 0 digest " + reps.front().digest +
                                 " on one seed");
            }
            r.latencies_ms = {};
        }
        reps.push_back(std::move(r));
        // Peak RSS over a fixed amount of work: the first kMinReps reps.
        if (static_cast<int>(reps.size()) == kMinReps) out.rss_mb = peak_rss_mb();
        const double used = static_cast<double>(host_ns() - start) / 1e9;
        const double per_rep = used / static_cast<double>(reps.size());
        if (static_cast<int>(reps.size()) >= kMinReps && used + per_rep > budget_s) break;
    }
    return out;
}

std::vector<double> rates(const std::vector<RepResult>& reps) {
    std::vector<double> out;
    for (const RepResult& r : reps) {
        out.push_back(r.window_host_s > 0 ? static_cast<double>(r.ops) / r.window_host_s : 0.0);
    }
    return out;
}

int run_untraced(const Workload& wl, const Options& opt) {
    std::vector<std::string> errors;
    const Reps collected = collect_reps(wl, opt.seed, opt.seconds, errors);
    const std::vector<RepResult>& reps = collected.reps;
    check_seed_sensitivity(wl, opt.seed, errors);

    const RepResult& first = reps.front();
    std::vector<double> setup;
    for (const RepResult& r : reps) setup.push_back(r.setup_s);
    const std::vector<double> rate = rates(reps);
    std::vector<double> samples = first.latencies_ms;
    const Quantile p50 = exact_quantile(samples, 0.50);
    const Quantile p99 = exact_quantile(samples, 0.99);
    if (!p50.ok || !p99.ok) {
        errors.push_back("workload too small: " + std::to_string(p99.samples) +
                         " latency samples leave " + std::to_string(p99.beyond) +
                         " beyond p99 (need " + std::to_string(kMinBeyond) + ")");
    }
    if (first.ops == 0) errors.push_back("no op completed in the measured window");

    const std::vector<Printed> metrics = {
        {"setup_s", median(setup), "s"},
        {"peak_rss_mb", collected.rss_mb, "MB"},
        {"sim_ops_per_s", first.sim_rate, "1/s"},
        {"sim_latency_p50_ms", p50.value, "ms"},
        {"sim_latency_p99_ms", p99.value, "ms"},
    };
    CallTally tally;
    tally.issued = first.attempted;
    tally.failed = first.failed;
    std::cout << "# workload " << wl.name << " seed " << opt.seed << ": " << reps.size()
              << " reps, " << first.ops << " ops per rep in " << first.sim_window_s
              << " simulated s, digest " << first.digest << "\n";
    std::cout << "setup_s = " << number(metrics[0].value) << " s  (host; " << spread(setup) << ")\n";
    std::cout << "peak_rss_mb = " << number(metrics[1].value)
              << " MB  (host; getrusage peak after the first " << kMinReps << " reps)\n";
    std::cout << "sim_ops_per_s = " << number(metrics[2].value)
              << " 1/s  (simulated, exact; identical in every rep)\n";
    std::cout << "sim_latency_p50_ms = " << number(p50.value) << " ms  (simulated, exact; "
              << p50.samples << " samples, " << p50.beyond << " beyond)\n";
    std::cout << "sim_latency_p99_ms = " << number(p99.value) << " ms  (simulated, exact; "
              << p99.samples << " samples, " << p99.beyond << " beyond)\n";
    std::cout << "ops_per_host_s = " << number(median(rate)) << " 1/s  (host; " << spread(rate)
              << "; per-layer, see README)\n";
    std::cout << "fail_frac = " << number(fail_frac(tally)) << "  (" << tally.failed << " of "
              << tally.issued << " attempted)\n";

    if (!errors.empty()) return fail(errors);
    print_result(first, metrics);
    return 0;
}

int run_traced(const Workload& wl, const Options& opt) {
    std::vector<std::string> errors;
    // Half the budget for untraced reps (host medians), then one traced rep.
    const std::vector<RepResult> plain_reps = collect_reps(wl, opt.seed, opt.seconds / 2, errors).reps;
    const RepResult& plain = plain_reps.front();
    std::vector<double> window_s;
    for (const RepResult& r : plain_reps) window_s.push_back(r.window_host_s);
    const double plain_window_s = median(window_s);
    Tracer tracer;
    const RepResult traced = wl.run_rep(opt.seed, &tracer);
    errors.insert(errors.end(), traced.errors.begin(), traced.errors.end());
    if (!same_sim(plain, traced)) {
        errors.push_back("determinism: traced digest " + traced.digest +
                         " differs from untraced digest " + plain.digest);
    }

    std::map<std::string, double> layer = traced.layer;
    const double ops = static_cast<double>(traced.ops);
    auto per_op = [ops](double v) { return ops > 0 ? v / ops : 0.0; };
    layer["sim.events_per_op"] = per_op(static_cast<double>(traced.window_events));
    layer["sim.host_ns_per_event"] =
        traced.window_events > 0
            ? plain_window_s * 1e9 / static_cast<double>(traced.window_events)
            : 0.0;
    layer["alloc.per_op"] = per_op(static_cast<double>(plain.window_allocs));
    layer["alloc.net_per_op"] = per_op(static_cast<double>(plain.window_net_allocs));
    layer["obs.trace_events_per_op"] = per_op(static_cast<double>(traced.trace_events));
    layer["obs.trace_overhead_frac"] =
        plain_window_s > 0 ? traced.window_host_s / plain_window_s - 1.0 : 0.0;
    layer["ops_per_host_s"] = median(rates(plain_reps));
    const std::int64_t step_ns = traced.steps.all_ns();
    for (std::size_t c = 0; c < kStepClassCount; ++c) {
        const std::string cls = step_class_name(static_cast<StepClass>(c));
        const auto n = static_cast<double>(traced.steps.steps[c]);
        layer["host.step_ns." + cls] = n > 0 ? static_cast<double>(traced.steps.self_ns[c]) / n : 0.0;
        layer["host.step_share." + cls] =
            step_ns > 0 ? static_cast<double>(traced.steps.self_ns[c]) / static_cast<double>(step_ns)
                        : 0.0;
    }
    CallTally tally;
    tally.issued = traced.attempted;
    tally.failed = traced.failed;
    layer["fail_frac"] = fail_frac(tally);
    layer["sim_latency_samples"] = static_cast<double>(traced.latencies_ms.size());
    wl.host_layers(traced, &tracer, layer);

    std::vector<Printed> metrics;
    std::cout << "# workload " << wl.name << " seed " << opt.seed << " traced: " << traced.ops
              << " ops, " << traced.window_events << " events, " << tracer.spans().size()
              << " spans, digest " << traced.digest << " (untraced " << plain.digest << ")\n";
    for (const MetricName& m : per_layer_metrics()) {
        const auto it = layer.find(m.name);
        const double v = it == layer.end() ? 0.0 : it->second;
        if (!std::isfinite(v)) errors.push_back(std::string("metric ") + m.name + " is not finite");
        metrics.push_back({m.name, std::isfinite(v) ? v : 0.0, m.unit});
        std::cout << m.name << " = " << number(v) << " " << m.unit << "\n";
        if (it != layer.end()) layer.erase(it);
    }
    for (const auto& [name, v] : layer) errors.push_back("unlisted per-layer metric " + name);

    std::filesystem::create_directories(opt.out_dir);
    const std::string path = opt.out_dir + "/" + wl.name + ".spans.jsonl";
    std::string header = "{\"workload\":\"";
    header += wl.name;
    header += "\",\"seed\":";
    header += std::to_string(opt.seed);
    header += ",\"window_steps\":{";
    for (std::size_t c = 0; c < kStepClassCount; ++c) {
        if (c > 0) header += ",";
        header += '"';
        header += step_class_name(static_cast<StepClass>(c));
        header += "\":{\"steps\":";
        header += std::to_string(traced.steps.steps[c]);
        header += ",\"self_ns\":";
        header += std::to_string(traced.steps.self_ns[c]);
        header += "}";
    }
    header += "},\"columns\":[\"name\",\"id\",\"parent\",\"start_ns\",\"end_ns\",\"self_ns\"]}";
    if (!tracer.write_spans(path, header)) errors.push_back("cannot write spans to " + path);
    std::cout << "# spans " << path << "\n";

    if (!errors.empty()) return fail(errors);
    print_result(traced, metrics);
    return 0;
}

const Workload* find_workload(const std::string& name) {
    for (const Workload* w : {&lan_flood_workload(), &geo_rr_workload(), &chaos_mix_workload()}) {
        if (name == w->name) return w;
    }
    return nullptr;
}

int usage() {
    std::cerr << "usage: perfbench --workload lan_flood|geo_rr|chaos_mix --seed N --seconds S "
                 "--trace 0|1 [--out DIR]\n       perfbench --self-test\n";
    return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
    using namespace perfbench;
    Options opt;
    bool self_test_only = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--self-test") {
            self_test_only = true;
        } else if (arg == "--workload" && has_value) {
            opt.workload = argv[++i];
        } else if (arg == "--seed" && has_value) {
            opt.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--seconds" && has_value) {
            opt.seconds = std::strtod(argv[++i], nullptr);
        } else if (arg == "--trace" && has_value) {
            opt.trace = std::string(argv[++i]) == "1";
        } else if (arg == "--out" && has_value) {
            opt.out_dir = argv[++i];
        } else {
            return usage();
        }
    }
    const std::vector<std::string> self_test_errors = run_self_tests();
    if (!self_test_errors.empty()) {
        for (const std::string& e : self_test_errors) std::cout << "FAIL self-test: " << e << "\n";
        return 1;
    }
    if (self_test_only) {
        std::cout << "self-tests passed\n";
        return 0;
    }
    const Workload* wl = find_workload(opt.workload);
    if (wl == nullptr || !(opt.seconds > 0)) return usage();
    return opt.trace ? run_traced(*wl, opt) : run_untraced(*wl, opt);
}

namespace perfbench {

const std::vector<MetricName>& per_layer_metrics() {
    static const std::vector<MetricName> names = {
        {"ops_per_host_s", "1/s"},
        {"sim.events_per_op", "count"},
        {"sim.host_ns_per_event", "ns"},
        {"alloc.per_op", "count"},
        {"alloc.net_per_op", "count"},
        {"cpu.busy_frac_max", "fraction"},
        {"cpu.queue_wait_p99_us", "us"},
        {"net.msgs_per_op", "count"},
        {"net.bytes_per_op", "B"},
        {"net.wan_msgs_per_op", "count"},
        {"net.lost_per_op", "count"},
        {"serial.gcs_encode_ns", "ns"},
        {"serial.gcs_decode_ns", "ns"},
        {"serial.env_encode_ns", "ns"},
        {"serial.env_decode_ns", "ns"},
        {"orb.invocations_per_op", "count"},
        {"orb.oneways_per_op", "count"},
        {"gcs.payloads_per_data_msg", "count"},
        {"gcs.refs_per_order_msg", "count"},
        {"gcs.nulls_per_op", "count"},
        {"gcs.retransmits_per_op", "count"},
        {"gcs.nacks_per_op", "count"},
        {"gcs.views_per_scenario", "count"},
        {"gcs.flushes_per_view", "count"},
        {"gcs.suspicion_false", "count"},
        {"gcs.detection_latency_p50_us", "us"},
        {"gcs.reconfig_stall_p99_us", "us"},
        {"invocation.rebinds_per_call", "count"},
        {"invocation.timeouts_per_call", "count"},
        {"invocation.shed_per_call", "count"},
        {"invocation.wait_first_p50_us", "us"},
        {"invocation.wait_first_p99_us", "us"},
        {"invocation.wait_majority_p50_us", "us"},
        {"invocation.wait_majority_p99_us", "us"},
        {"invocation.wait_all_p50_us", "us"},
        {"invocation.wait_all_p99_us", "us"},
        {"recovery.mttr_p50_us", "us"},
        {"replication.state_refounds", "count"},
        {"obs.trace_events_per_op", "count"},
        {"obs.oracle_ns_per_event", "ns"},
        {"obs.trace_overhead_frac", "fraction"},
        {"fuzz.generate_us_per_scenario", "us"},
        {"fuzz.events_per_scenario", "count"},
        {"phase.marshal_share", "fraction"},
        {"phase.credit_wait_share", "fraction"},
        {"phase.wire_share", "fraction"},
        {"phase.order_wait_share", "fraction"},
        {"phase.cpu_wait_share", "fraction"},
        {"phase.execution_share", "fraction"},
        {"phase.reply_collection_share", "fraction"},
        {"host.step_ns.gcs_data", "ns"},
        {"host.step_ns.gcs_membership", "ns"},
        {"host.step_ns.invocation", "ns"},
        {"host.step_ns.untraced", "ns"},
        {"host.step_share.gcs_data", "fraction"},
        {"host.step_share.gcs_membership", "fraction"},
        {"host.step_share.invocation", "fraction"},
        {"host.step_share.untraced", "fraction"},
        {"fail_frac", "fraction"},
        {"sim_latency_samples", "count"},
    };
    return names;
}

}  // namespace perfbench
