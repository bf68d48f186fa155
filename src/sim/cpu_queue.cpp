#include "sim/cpu_queue.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "util/check.hpp"

namespace newtop {

void CpuQueue::execute(SimDuration cost, std::function<void()> fn) {
    NEWTOP_EXPECTS(cost >= 0, "CPU cost must be non-negative");
    NEWTOP_EXPECTS(fn != nullptr, "CPU work must be callable");
    if (dead_) return;
    // The slowdown multiply only happens while a gray fault is active, so
    // unslowed hosts compute byte-identical schedules to a build without
    // the feature.
    if (slowdown_ != 1.0) {
        cost = static_cast<SimDuration>(static_cast<double>(cost) * slowdown_);
    }
    const SimTime start = std::max(scheduler_->now(), busy_until_);
    if (metrics_ != nullptr) {
        metrics_->add(obs::metric::kCpuTasks);
        metrics_->add(obs::metric::kCpuBusyUs, static_cast<std::uint64_t>(cost));
        metrics_->observe(obs::metric::kCpuQueueWaitUs, start - scheduler_->now());
    }
    busy_until_ = start + cost;
    consumed_ += cost;
    tasks_.push_back(std::move(fn));
    // Tasks complete in submission order (busy_until_ only grows within an
    // epoch, and equal times run FIFO), so each completion runs the oldest
    // queued task.  The closure fits std::function's inline buffer: the
    // task's own callable is the only allocation it costs.
    scheduler_->schedule_at(busy_until_, [this, epoch = epoch_] { complete(epoch); });
}

void CpuQueue::complete(std::uint64_t epoch) {
    if (epoch != epoch_) return;  // dropped by reset(): tasks_ was cleared
    // Popped before it runs: the task may submit more work or reset the CPU.
    const std::function<void()> fn = std::move(tasks_.front());
    tasks_.pop_front();
    fn();
}

void CpuQueue::set_slowdown(double factor) {
    NEWTOP_EXPECTS(factor > 0.0, "CPU slowdown factor must be positive");
    slowdown_ = factor;
}

void CpuQueue::reset() {
    ++epoch_;
    tasks_.clear();
    busy_until_ = scheduler_->now();
    consumed_ = 0;
}

void CpuQueue::kill() {
    reset();
    dead_ = true;
}

void CpuQueue::revive() {
    reset();
    dead_ = false;
}

}  // namespace newtop
