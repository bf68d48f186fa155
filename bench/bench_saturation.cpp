// LAN saturation — sustained data-plane throughput with and without the
// batched ordering window (send coalescing + multi-assignment ORDER
// records + arena CDR).
//
// Unlike the paper's closed-loop request/reply experiments, this bench
// flood-feeds senders faster than the unbatched pipeline can drain, so the
// per-message protocol overhead (one stream slot + one ORDER assignment +
// stability traffic per payload) becomes the bottleneck.  The batched mode
// coalesces queued payloads into shared stream slots under credit-based
// flow control; the figure of merit is sustained delivered
// invocations/sec, and the acceptance bar for this artifact is a >=5x
// speedup of batched over unbatched.
//
// Emits BENCH_saturation.json (override the path with NEWTOP_BENCH_OUT)
// and the standard deterministic `# metrics` line.
#include "harness.hpp"

#include <sstream>

#include "gcs/endpoint.hpp"
#include "obs/profiler.hpp"

namespace {

using namespace newtop;
using namespace newtop::bench;

/// Permitted net heap growth per delivered invocation in the measured
/// window (see the steady-state check in BM_Saturation_Lan).
constexpr double kNetAllocBudgetPerInv = 0.5;

struct SaturationOptions {
    std::size_t order_window{16};  // 0 = unbatched (pre-window behaviour)
    std::size_t order_max_batch{64};
    int members{3};
    int senders{2};
    int burst{16};               // payloads submitted per feed tick
    SimDuration feed_interval{2_ms};
    SimDuration warmup{1_s};
    SimDuration measured{5_s};
    std::size_t payload_bytes{32};
    std::uint64_t seed{1};
    /// Trace the run, sample the credit/holdback gauges and reconcile the
    /// trace-derived ship->delivery sums against gcs.delivery_latency_us.
    bool profile{false};
};

struct SaturationResult {
    double invocations_per_sec{0.0};
    std::uint64_t delivered{0};
    std::uint64_t wire_messages{0};
    /// Heap traffic inside the measured window, per delivered invocation
    /// (bench/alloc_hook.cpp counters).  Churn counts every operator new;
    /// net is allocations never freed — the steady-state protocol recycles
    /// its buffers, so net must stay ~0.
    double allocs_per_inv{0.0};
    double net_allocs_per_inv{0.0};
    std::string metrics_json;
    obs::ProfileReport profile;  // options.profile only
};

/// One flood run: `senders` members feed open-loop bursts into an
/// asymmetric-order group; deliveries are counted at the sequencer.
SaturationResult run_saturation(const SaturationOptions& options) {
    World world(calibration::make_lan_topology(), options.seed);
    Scheduler& scheduler = world.scheduler;
    Network& network = world.net;

    std::unique_ptr<obs::RingTraceSink> sink;
    if (options.profile) {
        sink = std::make_unique<obs::RingTraceSink>(std::size_t{1} << 19);
        sink->attach_metrics(&network.metrics());
        network.metrics().set_trace_sink(sink.get());
        network.enable_gauge_sampling(10_ms, 2_s);
    }

    std::vector<std::unique_ptr<GroupCommEndpoint>> endpoints;
    for (int i = 0; i < options.members; ++i) {
        endpoints.push_back(std::make_unique<GroupCommEndpoint>(world.add_orb(), world.directory));
    }

    GroupConfig config;
    config.order = OrderMode::kTotalAsymmetric;
    config.order_window = options.order_window;
    config.order_max_batch = options.order_max_batch;
    const GroupId group = endpoints[0]->create_group("saturation", config);
    for (int i = 1; i < options.members; ++i) endpoints[i]->join_group("saturation");
    world.run_for(500_ms);

    std::uint64_t observed = 0;
    endpoints[0]->set_deliver_handler(
        [&observed](const GroupCommEndpoint::Delivery&) { ++observed; });

    // Open-loop feeders: the last `senders` members (never the sequencer)
    // each submit a burst every feed tick until the end of the run.
    const SimTime stop_feeding =
        scheduler.now() + options.warmup + options.measured;
    const Bytes payload(options.payload_bytes, 0xb7);
    for (int s = 0; s < options.senders; ++s) {
        GroupCommEndpoint* ep = endpoints[options.members - 1 - s].get();
        auto feed = std::make_shared<std::function<void()>>();
        *feed = [&scheduler, ep, group, &payload, &options, stop_feeding, feed] {
            for (int k = 0; k < options.burst; ++k) ep->multicast(group, payload);
            if (scheduler.now() + options.feed_interval < stop_feeding) {
                scheduler.schedule_after(options.feed_interval, [feed] { (*feed)(); });
            }
        };
        scheduler.schedule_after(SimDuration{s + 1}, [feed] { (*feed)(); });
    }

    world.run_for(options.warmup);
    const std::uint64_t delivered_before = observed;
    const std::uint64_t wire_before = network.stats().messages_sent;
    const alloc::Snapshot heap_before = alloc::snapshot();
    world.run_for(options.measured);
    const alloc::Snapshot heap_after = alloc::snapshot();

    SaturationResult result;
    result.delivered = observed - delivered_before;
    result.wire_messages = network.stats().messages_sent - wire_before;
    if (result.delivered > 0) {
        const double delivered = static_cast<double>(result.delivered);
        result.allocs_per_inv =
            static_cast<double>(alloc::allocs_between(heap_before, heap_after)) / delivered;
        result.net_allocs_per_inv =
            static_cast<double>(alloc::net_between(heap_before, heap_after)) / delivered;
    }
    result.invocations_per_sec =
        static_cast<double>(result.delivered) / to_seconds(options.measured);
    result.metrics_json = network.metrics().to_json();

    if (sink != nullptr) {
        obs::TraceDump dump = sink->dump();
        if (const obs::LatencyHistogram* h =
                network.metrics().histogram(obs::metric::kGcsDeliveryLatencyUs)) {
            dump.expectations.push_back(obs::TraceExpectation{
                std::string(obs::metric::kGcsDeliveryLatencyUs), h->count(), h->sum()});
        }
        result.profile = obs::LatencyProfiler{}.analyze(dump);
        write_trace_dump(dump, "saturation");
    }
    return result;
}

/// `steady_state` marks modes that drain their offered load; only those make
/// a net-allocation claim (a backlogged mode buffers its queue growth).
std::string json_mode(const char* name, bool steady_state, const SaturationOptions& options,
                      const SaturationResult& result) {
    std::string out = "{\"name\":\"";
    out += name;
    out += "\",\"steady_state\":";
    out += steady_state ? "true" : "false";
    out += ",\"order_window\":" + std::to_string(options.order_window);
    out += ",\"order_max_batch\":" + std::to_string(options.order_max_batch);
    out += ",\"delivered\":" + std::to_string(result.delivered);
    out += ",\"wire_messages\":" + std::to_string(result.wire_messages);
    out += ",\"invocations_per_sec\":" + std::to_string(result.invocations_per_sec);
    out += ",\"allocs_per_inv\":" + std::to_string(result.allocs_per_inv);
    out += ",\"net_allocs_per_inv\":" + std::to_string(result.net_allocs_per_inv);
    out += "}";
    return out;
}

void write_artifact(const SaturationOptions& unbatched_options,
                    const SaturationResult& unbatched,
                    const SaturationOptions& batched_options,
                    const SaturationResult& batched, double speedup,
                    const SaturationResult& profiled) {
    const obs::ProfileReport& profile = profiled.profile;
    std::ostringstream out;
    out << "{\"bench\":\"saturation\",\"setting\":\"lan\",\"seed\":"
        << unbatched_options.seed << ",\"modes\":["
        << json_mode("unbatched", false, unbatched_options, unbatched) << ","
        << json_mode("batched", true, batched_options, batched) << "],\"speedup\":" << speedup
        << ",\"profile\":{\"reconciled\":" << (profile.reconciled() ? "true" : "false")
        << ",\"delivered\":" << profiled.delivered << ",\"sequencer_turnaround\":{\"count\":"
        << profile.sequencer_turnaround_count
        << ",\"sum_us\":" << profile.sequencer_turnaround_sum_us << "}}}\n";
    write_bench_artifact(out.str(), "BENCH_saturation.json");
}

void BM_Saturation_Lan(benchmark::State& state) {
    for (auto _ : state) {
        SaturationOptions unbatched_options;
        unbatched_options.order_window = 0;  // pre-window behaviour
        const SaturationResult unbatched = run_saturation(unbatched_options);

        SaturationOptions batched_options;  // defaults: window 16, batch 64
        const SaturationResult batched = run_saturation(batched_options);

        // Shorter traced run: every ship/arrival/order/delivery event is
        // captured and the trace-derived ship->delivery sums must reconcile
        // with the gcs.delivery_latency_us histogram (the flood runs above
        // stay untraced so their throughput is undisturbed).
        SaturationOptions profiled_options;
        profiled_options.profile = true;
        profiled_options.burst = 8;
        profiled_options.warmup = 200_ms;
        profiled_options.measured = 400_ms;
        const SaturationResult profiled = run_saturation(profiled_options);

        const double speedup = unbatched.invocations_per_sec > 0
                                   ? batched.invocations_per_sec /
                                         unbatched.invocations_per_sec
                                   : 0.0;
        state.counters["unbatched_inv_per_s"] = unbatched.invocations_per_sec;
        state.counters["batched_inv_per_s"] = batched.invocations_per_sec;
        state.counters["speedup"] = speedup;
        state.counters["reconciled"] = profiled.profile.reconciled() ? 1.0 : 0.0;
        state.counters["allocs_per_inv"] = batched.allocs_per_inv;
        state.counters["net_allocs_per_inv"] = batched.net_allocs_per_inv;
        if (!profiled.profile.reconciled()) {
            std::cerr << "# RECONCILIATION FAILED for the traced saturation run\n"
                      << profiled.profile.to_text();
        }
        // Steady-state allocation discipline: after warm-up the data plane
        // runs on recycled arena buffers and pre-sized containers, so net
        // heap growth per delivered invocation must be ~0.  A small budget
        // absorbs map-node churn from the holdback/assignment indexes.
        if (batched.net_allocs_per_inv > kNetAllocBudgetPerInv) {
            std::cerr << "# ALLOC REGRESSION: net " << batched.net_allocs_per_inv
                      << " allocs/invocation in steady state (budget "
                      << kNetAllocBudgetPerInv << ")\n";
            state.SkipWithError("steady-state net allocations per invocation over budget");
        }
        write_artifact(unbatched_options, unbatched, batched_options, batched, speedup,
                       profiled);
        emit_metrics(batched.metrics_json);
    }
}
BENCHMARK(BM_Saturation_Lan)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
