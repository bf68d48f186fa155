#include "sim/cpu_queue.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "util/check.hpp"

namespace newtop {

void CpuQueue::execute(SimDuration cost, Task fn) {
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
    if (queued_ == tasks_.size()) grow();
    tasks_[(head_ + queued_) & (tasks_.size() - 1)] = std::move(fn);
    ++queued_;
    // Tasks complete in submission order (busy_until_ only grows within an
    // epoch, and equal times run FIFO), so each completion runs the oldest
    // queued task.
    scheduler_->schedule_at(busy_until_, [this, epoch = epoch_] { complete(epoch); });
}

void CpuQueue::complete(std::uint64_t epoch) {
    if (epoch != epoch_) return;  // dropped by reset(): the ring was cleared
    // Popped before it runs: the task may submit more work or reset the CPU.
    Task fn = std::move(tasks_[head_]);
    head_ = (head_ + 1) & (tasks_.size() - 1);
    --queued_;
    fn();
}

void CpuQueue::grow() {
    std::vector<Task> bigger(tasks_.empty() ? 16 : 2 * tasks_.size());
    for (std::size_t i = 0; i < queued_; ++i) {
        bigger[i] = std::move(tasks_[(head_ + i) & (tasks_.size() - 1)]);
    }
    tasks_ = std::move(bigger);
    head_ = 0;
}

void CpuQueue::set_slowdown(double factor) {
    NEWTOP_EXPECTS(factor > 0.0, "CPU slowdown factor must be positive");
    slowdown_ = factor;
}

void CpuQueue::reset() {
    ++epoch_;
    // Destroy the queued captures now; the ring keeps its slots.
    for (std::size_t i = 0; i < queued_; ++i) tasks_[(head_ + i) & (tasks_.size() - 1)].reset();
    head_ = 0;
    queued_ = 0;
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
