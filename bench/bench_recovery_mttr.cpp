// Recovery experiment — mean time to repair under crash/restart faults.
//
// Three actively-replicated RecoveryManager servers host a counter service
// while one closed-loop client keeps calling it.  Every cycle one replica
// (round-robin) is crashed and restarted after a fixed outage; the
// RecoveryManager rebuilds the process (fresh endpoint, directory eviction,
// rejoin, state transfer) and the first request executed by the recovered
// replica closes the crash -> repaired interval into the `recovery.mttr`
// histogram.  We report its percentiles.
//
//   LAN: replicas and client on the Newcastle LAN — MTTR is dominated by
//        the fixed outage plus failure detection.
//   WAN: replicas spread over Newcastle/London/Pisa — rejoin, flush and
//        state transfer all cross wide-area links, so repair stretches by
//        several round trips.
#include "harness.hpp"
#include "newtop/recovery_manager.hpp"
#include "replication/recoverable.hpp"

namespace {

using namespace newtop;
using namespace newtop::bench;

constexpr std::uint32_t kIncrement = 1;

/// Replicated application state: a counter whose snapshot is its value.
class CounterServant : public StatefulServant {
public:
    Bytes handle(std::uint32_t, const Bytes&) override {
        ++value_;
        return encode_to_bytes(value_);
    }

    [[nodiscard]] Bytes snapshot() const override { return encode_to_bytes(value_); }
    void restore(const Bytes& snapshot) override {
        value_ = decode_from_bytes<std::uint64_t>(snapshot);
    }

private:
    std::uint64_t value_{0};
};

struct MttrOptions {
    Setting setting{Setting::kLan};
    int replicas{3};
    int cycles{8};
    SimDuration outage{500_ms};     // crash -> restart begins
    SimDuration cycle_gap{8_s};     // crash -> next crash
    SimDuration client_pace{10_ms}; // completion -> next request
    std::uint64_t seed{1};
};

struct MttrResult {
    double mean_ms{0.0};
    double min_ms{0.0};
    double p90_ms{0.0};
    double max_ms{0.0};
    std::uint64_t recoveries{0};
    std::uint64_t completions{0};
    std::string metrics_json;
};

class MttrBench {
public:
    static MttrResult run(const MttrOptions& options) {
        MttrBench bench(options);
        return bench.execute();
    }

private:
    explicit MttrBench(const MttrOptions& options)
        : options_(options),
          sites_(calibration::make_paper_topology()),
          world_(std::move(sites_.topology), options.seed) {}

    [[nodiscard]] SiteId replica_site(int index) const {
        if (options_.setting == Setting::kLan) return sites_.newcastle;
        const SiteId spread[3] = {sites_.newcastle, sites_.london, sites_.pisa};
        return spread[index % 3];
    }

    [[nodiscard]] SiteId client_site() const {
        return options_.setting == Setting::kLan ? sites_.newcastle : sites_.london;
    }

    void issue_next() {
        proxy_.invoke(kIncrement, Bytes{}, InvocationMode::kWaitFirst,
                      [this](const GroupReply& reply) {
                          completions_ += reply.complete ? 1 : 0;
                          // Pace the loop instead of reissuing inline: while
                          // the binding is backed off, calls fail fast and an
                          // unpaced loop would spin the scheduler.
                          world_.scheduler.schedule_after(options_.client_pace,
                                                          [this] { issue_next(); });
                      });
    }

    MttrResult execute() {
        // Replicas, staggered so joins serialize deterministically.
        GroupConfig config;
        config.order = OrderMode::kTotalAsymmetric;
        config.liveness = LivenessMode::kLively;
        for (int i = 0; i < options_.replicas; ++i) {
            managers_.push_back(std::make_unique<RecoveryManager>(
                world_.net, world_.directory, replica_site(i),
                make_active_generation("counter", config,
                                       [] { return std::make_shared<CounterServant>(); })));
            world_.run_for(300_ms);
        }
        world_.run_for(2_s);

        proxy_ = world_.add_nso(client_site()).bind("counter", {.mode = BindMode::kOpen});
        world_.run_for(1_s);
        issue_next();

        // Fault cycles: round-robin victim, fixed outage, generous gap so
        // each repair completes (and is measured) before the next fault.
        for (int cycle = 0; cycle < options_.cycles; ++cycle) {
            RecoveryManager& victim = *managers_[cycle % managers_.size()];
            victim.crash();
            victim.restart_after(options_.outage);
            world_.run_for(options_.cycle_gap);
        }
        world_.run_for(5_s);

        MttrResult result;
        result.completions = completions_;
        if (const auto* mttr = world_.net.metrics().histogram("recovery.mttr")) {
            result.recoveries = mttr->count();
            result.mean_ms = to_ms(mttr->sum()) / static_cast<double>(mttr->count());
            result.min_ms = to_ms(mttr->min());
            result.p90_ms = to_ms(mttr->quantile(0.90));
            result.max_ms = to_ms(mttr->max());
        }
        result.metrics_json = world_.net.metrics().to_json();
        return result;
    }

    MttrOptions options_;
    calibration::PaperSites sites_;
    World world_;
    std::vector<std::unique_ptr<RecoveryManager>> managers_;
    GroupProxy proxy_;
    std::uint64_t completions_{0};
};

void report_mttr(benchmark::State& state, const MttrResult& result) {
    state.counters["mttr_mean_ms"] = result.mean_ms;
    state.counters["mttr_min_ms"] = result.min_ms;
    state.counters["mttr_p90_ms"] = result.p90_ms;
    state.counters["mttr_max_ms"] = result.max_ms;
    state.counters["recoveries"] = static_cast<double>(result.recoveries);
    state.counters["completions"] = static_cast<double>(result.completions);
    emit_metrics(result.metrics_json);
}

void BM_Recovery_Mttr_Lan(benchmark::State& state) {
    for (auto _ : state) {
        MttrOptions options;
        options.setting = Setting::kLan;
        options.seed = static_cast<std::uint64_t>(state.range(0));
        report_mttr(state, MttrBench::run(options));
    }
}
BENCHMARK(BM_Recovery_Mttr_Lan)->DenseRange(1, 3)->Iterations(1)->Unit(benchmark::kMillisecond);

void BM_Recovery_Mttr_Wan(benchmark::State& state) {
    for (auto _ : state) {
        MttrOptions options;
        options.setting = Setting::kGeo;
        options.seed = static_cast<std::uint64_t>(state.range(0));
        report_mttr(state, MttrBench::run(options));
    }
}
BENCHMARK(BM_Recovery_Mttr_Wan)->DenseRange(1, 3)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
