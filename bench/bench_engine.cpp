// Event-engine micro-benchmark: the scheduler and the CPU queue under the
// mix the ORB gives them, on the host clock (advisory: it writes no
// BENCH_*.json artifact and prints no simulated metrics).
//
// kCalls calls are always in flight across kNodes simulated hosts.  Each
// call arms a 60 s timeout, like Orb::invoke's GCS calls, and queues one
// ORB-dispatch-shaped CPU task on its host; when the task completes it
// cancels the call's timeout and starts the next call, passing its wire
// buffer on.  So half of all scheduled events are timeouts that are
// cancelled, and the other half are CPU completions that pop.  The
// closures carry what the ORB's do: the timeout a pointer and a request
// id, the dispatch task the request header fields and the moved wire
// buffer.
//
// Reports host events/s (scheduled events: timeouts plus completions) and
// heap allocations per scheduled event.
//
//     build/bench/bench_engine
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "alloc_hook.hpp"
#include "sim/cpu_queue.hpp"
#include "sim/scheduler.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace {

using namespace newtop;
using namespace newtop::sim_literals;

constexpr std::size_t kCalls = 64;
constexpr std::size_t kNodes = 4;
constexpr std::size_t kWireBytes = 96;
constexpr std::size_t kPopsPerIteration = 100'000;

class Mix {
public:
    Mix() : timeouts_(kCalls, 0) {
        for (std::size_t n = 0; n < kNodes; ++n) cpus_.push_back(std::make_unique<CpuQueue>(scheduler_));
        for (std::size_t slot = 0; slot < kCalls; ++slot) start(slot, Bytes(kWireBytes, 0x5a));
    }

    /// Run kPopsPerIteration events; returns the events scheduled meanwhile.
    std::uint64_t step() {
        const std::uint64_t before = scheduled_;
        scheduler_.run(kPopsPerIteration);
        return scheduled_ - before;
    }

    [[nodiscard]] std::uint64_t timeouts_fired() const { return timeouts_fired_; }

private:
    void start(std::size_t slot, Bytes wire) {
        const std::uint64_t request_id = next_request_id_++;
        timeouts_[slot] = scheduler_.schedule_after(60_s, [this, request_id] {
            benchmark::DoNotOptimize(request_id);
            ++timeouts_fired_;
        });
        const std::uint32_t from = static_cast<std::uint32_t>(slot % kNodes);
        const std::uint64_t key = request_id * 31;
        const std::uint32_t method = 100;
        const std::size_t args_off = 20;
        const std::size_t args_len = wire.size() - args_off;
        const auto cost = static_cast<SimDuration>(rng_.next_in(50, 200));
        cpus_[slot % kNodes]->execute(
            cost, [this, slot, from, request_id, oneway = false, key, method, wire = std::move(wire),
                   args_off, args_len]() mutable {
                benchmark::DoNotOptimize(from + request_id + key + method + args_off + args_len);
                benchmark::DoNotOptimize(oneway);
                finish(slot, std::move(wire));
            });
        scheduled_ += 2;
    }

    void finish(std::size_t slot, Bytes wire) {
        scheduler_.cancel(timeouts_[slot]);
        start(slot, std::move(wire));
    }

    Scheduler scheduler_;
    std::vector<std::unique_ptr<CpuQueue>> cpus_;
    std::vector<TimerId> timeouts_;
    Rng rng_{1};
    std::uint64_t next_request_id_{1};
    std::uint64_t scheduled_{0};
    std::uint64_t timeouts_fired_{0};
};

void BM_Engine_OrbMix(benchmark::State& state) {
    Mix mix;
    mix.step();  // warm-up: the slab, the heap and the CPU rings reach size
    std::uint64_t events = 0;
    const bench::alloc::Snapshot before = bench::alloc::snapshot();
    for (auto _ : state) events += mix.step();
    const bench::alloc::Snapshot after = bench::alloc::snapshot();
    if (mix.timeouts_fired() != 0) state.SkipWithError("a cancelled timeout fired");
    state.counters["events_per_s"] =
        benchmark::Counter(static_cast<double>(events), benchmark::Counter::kIsRate);
    state.counters["allocs_per_event"] =
        static_cast<double>(bench::alloc::allocs_between(before, after)) /
        static_cast<double>(events);
}

}  // namespace

BENCHMARK(BM_Engine_OrbMix)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
