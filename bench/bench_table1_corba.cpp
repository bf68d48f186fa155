// Table 1 — "Performance of CORBA": baseline one-to-one ORB invocations
// *without* the NewTop object group service, over the four paths the paper
// measures.  These anchor everything else: the LAN row should be ~1 ms and
// the NewTop overhead (other benches) ~2.5x of it.
#include <benchmark/benchmark.h>

#include <iostream>
#include <memory>
#include <string>

#include "net/calibration.hpp"
#include "newtop/world.hpp"
#include "serial/serial.hpp"
#include "util/rng.hpp"

namespace {

using namespace newtop;
using namespace newtop::sim_literals;

class RandomServant : public Servant {
public:
    Bytes dispatch(std::uint32_t, BytesView) override {
        return encode_to_bytes(rng_.next_u64());
    }

private:
    Rng rng_{7};
};

struct DirectResult {
    double latency_ms;
    double throughput_rps;
    std::string metrics_json;
};

DirectResult run_direct(SiteId client_site, SiteId server_site, Topology topology) {
    World world(std::move(topology), 3);
    Scheduler& scheduler = world.scheduler;
    Orb& server = world.add_orb(server_site);
    Orb& client = world.add_orb(client_site);
    const Ior target = server.adapter().activate(std::make_shared<RandomServant>(), "Random");

    constexpr int kWarmup = 5;
    constexpr int kMeasured = 100;
    int completed = 0;
    SimTime issued_at = 0;
    SimTime window_start = 0;
    SimDuration latency_sum = 0;

    std::function<void()> issue = [&] {
        issued_at = scheduler.now();
        if (completed == kWarmup) window_start = scheduler.now();
        client.invoke(target, 1, Bytes{}, [&](ReplyStatus, const Bytes&) {
            if (completed >= kWarmup) latency_sum += scheduler.now() - issued_at;
            if (++completed < kWarmup + kMeasured) issue();
        });
    };
    issue();
    world.run_for(60_s);

    DirectResult result{};
    result.latency_ms = to_ms(latency_sum) / kMeasured;
    result.throughput_rps = kMeasured / to_seconds(scheduler.now() - window_start);
    // The loop stops issuing when done; use last completion implicitly via
    // latency (closed loop => throughput = 1/latency for one client).
    result.throughput_rps = 1000.0 / result.latency_ms;
    result.metrics_json = world.net.metrics().to_json();
    return result;
}

void report(benchmark::State& state, const DirectResult& result) {
    state.counters["timed_request_ms"] = result.latency_ms;
    state.counters["req_per_s"] = result.throughput_rps;
    std::cout << "# metrics " << result.metrics_json << "\n";
}

void BM_Table1_LanDistinctNodes(benchmark::State& state) {
    for (auto _ : state) {
        auto sites = calibration::make_paper_topology();
        report(state, run_direct(sites.newcastle, sites.newcastle, std::move(sites.topology)));
    }
}
BENCHMARK(BM_Table1_LanDistinctNodes)->Iterations(1)->Unit(benchmark::kMillisecond);

void BM_Table1_PisaToNewcastle(benchmark::State& state) {
    for (auto _ : state) {
        auto sites = calibration::make_paper_topology();
        report(state, run_direct(sites.pisa, sites.newcastle, std::move(sites.topology)));
    }
}
BENCHMARK(BM_Table1_PisaToNewcastle)->Iterations(1)->Unit(benchmark::kMillisecond);

void BM_Table1_LondonToNewcastle(benchmark::State& state) {
    for (auto _ : state) {
        auto sites = calibration::make_paper_topology();
        report(state, run_direct(sites.london, sites.newcastle, std::move(sites.topology)));
    }
}
BENCHMARK(BM_Table1_LondonToNewcastle)->Iterations(1)->Unit(benchmark::kMillisecond);

void BM_Table1_PisaToLondon(benchmark::State& state) {
    for (auto _ : state) {
        auto sites = calibration::make_paper_topology();
        report(state, run_direct(sites.pisa, sites.london, std::move(sites.topology)));
    }
}
BENCHMARK(BM_Table1_PisaToLondon)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
