// Gray-failure resilience: failure-detection latency vs false-positive
// behaviour across CPU slowdown factors, φ-accrual vs fixed-timeout.
//
// For each slowdown factor F in {1, 2, 4, 8} and each detector (the
// default φ-accrual configuration, then phi_threshold_milli = 0 to get the
// paper's original fixed-timeout detector), a 3-replica lively group runs
// a call stream whose servant cost ramps linearly while one non-sequencer
// replica's host executes all CPU work F× slower.  The ramp matters: a
// slowed host's heartbeat gaps then grow gradually, which is exactly the
// history an accrual detector adapts to and a fixed timeout cannot.
//
// Two numbers per configuration:
//
//   false_suspicions : kSuspected events naming the slow-but-alive replica
//                      before any crash — a gray failure misread as a real
//                      one.  The φ detector should stay at zero where the
//                      fixed detector trips (F >= 4 pushes single CPU
//                      bursts past the 200 ms suspicion_timeout).  Fixed-
//                      detector trips *cascade*: the slowed host's delayed
//                      ingest also makes it suspect its healthy peers, and
//                      gossiped suspicions then eject good members.
//   detection_ms     : a *healthy* replica is then crashed and the latency
//                      to the first survivor suspicion measured — the cost
//                      side of the trade.  The fixed floor keeps φ's crash
//                      detection in the same band as the fixed detector
//                      (-1 records a cascade that ejected the healthy
//                      replica before its real crash could be observed).
//
// The run also reports the overload-shedding counters (requests past their
// deadline dropped by the slowed replica) so the degraded-mode behaviour
// is visible in the same table.
//
// Emits BENCH_gray_failure.json (override with NEWTOP_BENCH_OUT) in the
// "configs" schema — mean_latency_ms carries detection_ms, lower is
// better — so scripts/bench_diff.py diffs it against the committed
// baseline unmodified, exactly like BENCH_reconfig.json.
#include "harness.hpp"

#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace {

using namespace newtop;
using namespace newtop::bench;
using namespace newtop::sim_literals;

constexpr int kServers = 3;
constexpr int kCalls = 60;
// Spacing exceeds the largest slowed burst (60 ms nominal x 8 = 480 ms), so
// the slowed host lags but never *saturates*: each burst delays its sends
// and its ingest by up to the burst length, which is the gray condition —
// a saturated CPU (backlog growing without bound) is a real overload the
// detector is right to eject.
constexpr SimTime kCallSpacing = 500_ms;
constexpr SimDuration kCostStep = 1_ms;
constexpr int kSlowReplica = 2;   // never the sequencer (rank 0)
constexpr int kCrashReplica = 1;  // healthy replica crashed for the detection probe

/// Servant whose execution cost ramps with the method number: call k is
/// issued with method k+1, so the slowed host's CPU bursts grow a step at
/// a time instead of jumping — the shape a failure detector must adapt to.
class RampServant : public GroupServant {
public:
    Bytes handle(std::uint32_t, const Bytes&) override {
        return encode_to_bytes(std::uint64_t{1});
    }
    [[nodiscard]] SimDuration execution_cost(std::uint32_t method) const override {
        return static_cast<SimDuration>(method) * kCostStep;
    }
};

struct GrayResult {
    double detection_ms{-1.0};          // crash -> first survivor suspicion
    std::uint64_t false_suspicions{0};  // suspicions of the slow-but-alive replica
    bool slow_in_view{false};           // still a member when the crash happens
    std::uint64_t suspicion_false{0};   // the runtime's own false-suspicion counter
    std::uint64_t shed{0};              // requests shed past their deadline
    std::uint64_t completed{0};
    std::uint64_t timed_out{0};
};

GrayResult run_gray(double factor, bool accrual, std::uint64_t seed) {
    World world(calibration::make_lan_topology(), seed);
    Network& net = world.net;
    obs::VectorTraceSink sink;
    net.metrics().set_trace_sink(&sink);

    GroupConfig cfg;
    cfg.order = OrderMode::kTotalAsymmetric;
    cfg.liveness = LivenessMode::kLively;
    cfg.phi_threshold_milli = accrual ? 8000 : 0;
    for (int i = 0; i < kServers; ++i) {
        world.add_nso().serve("svc", cfg, std::make_shared<RampServant>());
        world.run_for(300_ms);
    }
    NewTopService& client = world.add_nso();
    GroupProxy proxy = client.bind(
        "svc", {.mode = BindMode::kOpen, .restricted = true, .call_timeout = 2_s});
    world.run_for(2_s);

    GrayResult result;
    net.set_cpu_slowdown(world.orbs[kSlowReplica]->node_id(), factor);
    for (int k = 0; k < kCalls; ++k) {
        proxy.invoke(static_cast<std::uint32_t>(k + 1),
                     encode_to_bytes(static_cast<std::uint64_t>(k)),
                     InvocationMode::kWaitFirst, [&](const GroupReply& reply) {
                         if (reply.complete) {
                             ++result.completed;
                         } else {
                             ++result.timed_out;
                         }
                     });
        world.run_for(kCallSpacing);
    }
    // Let the slowed replica's backlog drain (deadline shedding bounds it),
    // then crash a *healthy* replica and time the survivors' detection.
    world.run_for(4_s);

    const std::uint64_t slow_id = world.nsos[kSlowReplica]->id().value();
    const std::uint64_t crashed_id = world.nsos[kCrashReplica]->id().value();
    const auto* info = world.directory.find_group("svc");
    const View* view = world.nsos[0]->group_comm().current_view(info->id);
    result.slow_in_view = view != nullptr && view->contains(EndpointId(slow_id));
    const SimTime crash_at = world.scheduler.now();
    net.crash(world.orbs[kCrashReplica]->node_id());
    world.run_for(8_s);

    for (const obs::TraceEvent& e : sink.events()) {
        if (e.kind != obs::TraceKind::kSuspected) continue;
        if (e.detail == slow_id && e.at < crash_at) ++result.false_suspicions;
        if (e.detail == crashed_id && e.at >= crash_at && result.detection_ms < 0) {
            result.detection_ms = static_cast<double>(e.at - crash_at) / 1000.0;
        }
    }
    result.suspicion_false = net.metrics().counter(obs::metric::kGcsSuspicionFalse);
    result.shed = net.metrics().counter(obs::metric::kInvShed);
    return result;
}

void append_config(std::string& out, const std::string& name, const GrayResult& r) {
    out += "{\"name\":\"" + name + "\"";
    out += ",\"mean_latency_ms\":" + std::to_string(r.detection_ms);
    out += ",\"false_suspicions\":" + std::to_string(r.false_suspicions);
    out += ",\"slow_in_view\":" + std::to_string(r.slow_in_view ? 1 : 0);
    out += ",\"suspicion_false\":" + std::to_string(r.suspicion_false);
    out += ",\"shed\":" + std::to_string(r.shed);
    out += ",\"completed\":" + std::to_string(r.completed);
    out += ",\"timed_out\":" + std::to_string(r.timed_out);
    out += "}";
}

void BM_GrayFailure(benchmark::State& state) {
    for (auto _ : state) {
        const double factors[] = {1.0, 2.0, 4.0, 8.0};
        std::string artifact = "{\"bench\":\"gray_failure\",\"seed\":1,\"configs\":[";
        bool first = true;
        for (const bool accrual : {true, false}) {
            for (const double factor : factors) {
                const GrayResult r = run_gray(factor, accrual, 1);
                if (!first) artifact += ',';
                first = false;
                const std::string name = std::string(accrual ? "phi" : "fixed") + "_x" +
                                         std::to_string(static_cast<int>(factor));
                append_config(artifact, name, r);

                state.counters[name + "_detect_ms"] = r.detection_ms;
                state.counters[name + "_false"] =
                    static_cast<double>(r.false_suspicions);
                if (accrual && r.false_suspicions != 0) {
                    std::cerr << "# GRAY-FAILURE REGRESSION: accrual detector falsely "
                              << "suspected the slow-but-alive replica at x" << factor
                              << "\n";
                }
                // Under the fixed detector an undetected crash is the
                // *expected* cascade (the falsely ejected healthy replica is
                // gone before it dies); only the accrual runs gate on it.
                if (accrual && r.detection_ms < 0) {
                    std::cerr << "# GRAY-FAILURE REGRESSION: crash of a healthy replica "
                              << "went undetected (" << name << ")\n";
                }
            }
        }
        artifact += "]}\n";

        write_bench_artifact(artifact, "BENCH_gray_failure.json");
    }
}
BENCHMARK(BM_GrayFailure)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
