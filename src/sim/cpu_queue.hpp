// Single-server CPU model.
//
// Each simulated host has one CPU on which all local work — marshalling,
// protocol processing, servant execution — is serialized.  This queueing is
// what makes throughput saturate: on a low-latency LAN a single client can
// keep a server's CPU permanently busy, exactly the behaviour the paper
// reports (§5.1.1).
#pragma once

#include <cstddef>
#include <vector>

#include "sim/scheduler.hpp"
#include "sim/task.hpp"
#include "util/time.hpp"

namespace newtop {

namespace obs {
class MetricsRegistry;
}  // namespace obs

class CpuQueue {
public:
    explicit CpuQueue(Scheduler& scheduler) : scheduler_(&scheduler) {}

    /// Attach the world's metrics registry (done by Network::add_node).
    /// Each submitted task then counts toward cpu.tasks / cpu.busy_us and
    /// its queueing delay feeds the cpu.queue_wait_us histogram.
    void attach_metrics(obs::MetricsRegistry* metrics) { metrics_ = metrics; }

    /// Run `fn` after `cost` microseconds of CPU time, queued FIFO behind
    /// any work already submitted.  Zero-cost work still round-trips
    /// through the scheduler so that handlers never run re-entrantly.
    void execute(SimDuration cost, Task fn);

    /// Scale the cost of every subsequently submitted task by `factor`
    /// (gray-failure injection: a slow-but-alive host).  1.0 restores
    /// nominal speed; already-queued work keeps its original cost.
    void set_slowdown(double factor);
    [[nodiscard]] double slowdown() const { return slowdown_; }

    /// Time at which currently queued work completes.
    [[nodiscard]] SimTime busy_until() const { return busy_until_; }

    /// Microseconds of accepted-but-unfinished work as seen at time `at`
    /// (0 when idle or dead) — the instantaneous queue depth the
    /// cpu.backlog_us gauge samples.
    [[nodiscard]] SimDuration backlog(SimTime at) const {
        return (dead_ || busy_until_ <= at) ? 0 : busy_until_ - at;
    }

    /// Total CPU time consumed so far (for utilisation reporting).
    [[nodiscard]] SimDuration consumed() const { return consumed_; }

    /// Drop all queued work (used when a node crashes).  Already-scheduled
    /// completions are suppressed via the epoch counter.
    void reset();

    /// Permanently stop the CPU: queued work is dropped and all future
    /// execute() calls become no-ops.  Models crash-stop — a dead process
    /// runs nothing (until the host is explicitly restarted, see revive()).
    void kill();

    /// Bring a killed CPU back to life with an empty queue, as if the host
    /// had been power-cycled: the epoch bump from the embedded reset()
    /// suppresses any completion that was in flight when the CPU died, and
    /// new execute() calls run normally again.  Restores the accounting to
    /// a fresh-boot state.
    void revive();

private:
    /// Completion event of the oldest queued task, submitted in `epoch`.
    void complete(std::uint64_t epoch);
    /// Double the task ring, keeping the queued tasks in order.
    void grow();

    Scheduler* scheduler_;
    obs::MetricsRegistry* metrics_{nullptr};
    SimTime busy_until_{0};
    SimDuration consumed_{0};
    double slowdown_{1.0};
    std::uint64_t epoch_{0};
    // Accepted, not yet completed tasks: a ring of recycled slots (the
    // size is a power of two), so a steady queue allocates nothing.
    std::vector<Task> tasks_;
    std::size_t head_{0};
    std::size_t queued_{0};
    bool dead_{false};
};

}  // namespace newtop
