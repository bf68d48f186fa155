// Latency attribution — where the paper's ~2.5x NewTop-over-CORBA overhead
// actually goes, phase by phase.
//
// Six profiled request/reply configurations: the non-replicated anchor
// (one server, wait-first — the §5.1.1 "2.5x a plain CORBA call" setup)
// on the LAN and with distant clients, and the replicated 3-server
// wait-all group under both ordering protocols (symmetric vs asymmetric)
// on the LAN and geo-distributed.  Every run decomposes each invocation's
// critical path into marshal / credit_wait / wire / order_wait / cpu_wait /
// execution / reply_collection and cross-checks the phase sums against the
// independently measured reply-wait histograms (>1% mismatch = tracing
// bug, reported as reconciled=false and a zero counter).
//
// Emits BENCH_latency_breakdown.json (override with NEWTOP_BENCH_OUT); set
// NEWTOP_TRACE_DUMP_OUT=<dir> to keep the raw trace dumps for
// `tools/newtop_prof`.
#include "harness.hpp"

namespace {

using namespace newtop;
using namespace newtop::bench;

struct Config {
    const char* name;
    Setting setting;
    OrderMode order;
    int servers;
    InvocationMode mode;
};

constexpr Config kConfigs[] = {
    {"nonreplicated_lan", Setting::kLan, OrderMode::kTotalAsymmetric, 1,
     InvocationMode::kWaitFirst},
    {"nonreplicated_wan", Setting::kDistantClients, OrderMode::kTotalAsymmetric, 1,
     InvocationMode::kWaitFirst},
    {"replicated_lan_asym", Setting::kLan, OrderMode::kTotalAsymmetric, 3,
     InvocationMode::kWaitAll},
    {"replicated_lan_sym", Setting::kLan, OrderMode::kTotalSymmetric, 3,
     InvocationMode::kWaitAll},
    {"replicated_wan_asym", Setting::kGeo, OrderMode::kTotalAsymmetric, 3,
     InvocationMode::kWaitAll},
    {"replicated_wan_sym", Setting::kGeo, OrderMode::kTotalSymmetric, 3,
     InvocationMode::kWaitAll},
};

RequestReplyResult run_config(const Config& config) {
    RequestReplyOptions options;
    options.setting = config.setting;
    options.servers = config.servers;
    options.clients = 1;
    options.bind = BindOptions{.mode = BindMode::kOpen, .restricted = true};
    options.mode = config.mode;
    options.server_order = config.order;
    options.profile = true;
    return RequestReplyBench::run(options);
}

void append_phases(std::string& out, const std::map<std::string, obs::PhaseStats>& phases) {
    out += "{";
    bool first = true;
    for (const std::string_view name : obs::phase::kAll) {
        const auto it = phases.find(std::string(name));
        if (it == phases.end()) continue;
        if (!first) out += ',';
        first = false;
        out += "\"";
        out += name;
        out += "\":{\"sum_us\":" + std::to_string(it->second.sum_us);
        out += ",\"p50_us\":" + std::to_string(it->second.p50_us);
        out += ",\"p90_us\":" + std::to_string(it->second.p90_us);
        out += ",\"p99_us\":" + std::to_string(it->second.p99_us) + "}";
    }
    out += "}";
}

void BM_LatencyBreakdown(benchmark::State& state) {
    for (auto _ : state) {
        std::string artifact = "{\"bench\":\"latency_breakdown\",\"seed\":1,\"configs\":[";
        bool all_reconciled = true;
        bool first = true;
        for (const Config& config : kConfigs) {
            const RequestReplyResult result = run_config(config);
            const bool reconciled = result.profile.reconciled();
            all_reconciled &= reconciled;
            if (!first) artifact += ',';
            first = false;
            artifact += std::string("{\"name\":\"") + config.name + "\"";
            artifact += std::string(",\"setting\":\"") + setting_name(config.setting) + "\"";
            artifact += std::string(",\"order\":\"") +
                        (config.order == OrderMode::kTotalSymmetric ? "symmetric"
                                                                    : "asymmetric") +
                        "\"";
            artifact += ",\"servers\":" + std::to_string(config.servers);
            artifact += ",\"mode\":" + std::to_string(static_cast<int>(config.mode));
            artifact += ",\"mean_latency_ms\":" + std::to_string(result.mean_latency_ms);
            artifact += ",\"req_per_s\":" + std::to_string(result.throughput_rps);
            artifact += ",\"invocations\":" + std::to_string(result.profile.invocations);
            artifact += ",\"unattributed\":" + std::to_string(result.profile.unattributed);
            artifact += std::string(",\"reconciled\":") + (reconciled ? "true" : "false");
            artifact += ",\"dominant\":\"" + result.profile.dominant + "\"";
            artifact += ",\"phases\":";
            append_phases(artifact, result.profile.phases);
            artifact += "}";
            state.counters[std::string(config.name) + "_ms"] = result.mean_latency_ms;
            if (!reconciled) {
                std::cerr << "# RECONCILIATION FAILED for " << config.name << "\n"
                          << result.profile.to_text();
            }
        }
        artifact += "]}\n";
        state.counters["reconciled"] = all_reconciled ? 1.0 : 0.0;

        write_bench_artifact(artifact, "BENCH_latency_breakdown.json");
    }
}
BENCHMARK(BM_LatencyBreakdown)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
