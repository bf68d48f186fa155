#include "sim/scheduler.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "util/check.hpp"

namespace newtop {

namespace {

// TimerId layout: generation in the high half, slot + 1 in the low half
// (so no id is ever 0).  A stale id could alias a live event only after
// 2^32 reuses of its slot.
TimerId pack_id(std::uint32_t slot, std::uint32_t generation) {
    return (TimerId{generation} << 32) | (TimerId{slot} + 1);
}

}  // namespace

TimerId Scheduler::schedule_at(SimTime at, Task fn) {
    NEWTOP_EXPECTS(fn != nullptr, "scheduled function must be callable");
    std::uint32_t slot = 0;
    if (free_slots_.empty()) {
        NEWTOP_EXPECTS(slots_.size() < std::numeric_limits<std::uint32_t>::max(),
                       "too many pending events");
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
    } else {
        slot = free_slots_.back();
        free_slots_.pop_back();
    }
    Slot& s = slots_[slot];
    s.fn = std::move(fn);
    heap_.push_back(Entry{std::max(at, now_), next_seq_++, slot});
    sift_up(heap_.size() - 1);
    return pack_id(slot, s.generation);
}

TimerId Scheduler::schedule_after(SimDuration delay, Task fn) {
    return schedule_at(now_ + std::max<SimDuration>(delay, 0), std::move(fn));
}

void Scheduler::cancel(TimerId id) {
    const TimerId low = id & 0xffffffffU;
    if (low == 0 || low > slots_.size()) return;
    const Slot& s = slots_[low - 1];
    // A fired or cancelled event's slot has moved on to a later generation.
    if (s.generation != static_cast<std::uint32_t>(id >> 32)) return;
    // The handler is destroyed only once the slot bookkeeping is done, so a
    // destructor that schedules or cancels sees a consistent engine.
    erase_at(s.heap_pos);
}

void Scheduler::place(std::size_t pos, const Entry& entry) {
    heap_[pos] = entry;
    slots_[entry.slot].heap_pos = static_cast<std::uint32_t>(pos);
}

void Scheduler::sift_up(std::size_t pos) {
    const Entry entry = heap_[pos];
    while (pos > 0) {
        const std::size_t parent = (pos - 1) / 2;
        if (!earlier(entry, heap_[parent])) break;
        place(pos, heap_[parent]);
        pos = parent;
    }
    place(pos, entry);
}

void Scheduler::sift_down(std::size_t pos) {
    const Entry entry = heap_[pos];
    const std::size_t n = heap_.size();
    while (true) {
        std::size_t child = 2 * pos + 1;
        if (child >= n) break;
        if (child + 1 < n && earlier(heap_[child + 1], heap_[child])) ++child;
        if (!earlier(heap_[child], entry)) break;
        place(pos, heap_[child]);
        pos = child;
    }
    place(pos, entry);
}

Task Scheduler::erase_at(std::size_t pos) {
    const std::uint32_t slot = heap_[pos].slot;
    const Entry last = heap_.back();
    heap_.pop_back();
    if (pos < heap_.size()) {
        place(pos, last);
        sift_down(pos);
        sift_up(pos);
    }
    Slot& s = slots_[slot];
    ++s.generation;
    free_slots_.push_back(slot);
    return std::move(s.fn);
}

void Scheduler::run_head() {
    now_ = heap_.front().at;
    // The handler leaves its slot before it runs: the slot is free for any
    // event the handler schedules, and cancelling this event's own id from
    // inside the handler is a no-op.
    Task fn = erase_at(0);
    fn();
}

bool Scheduler::step() {
    if (heap_.empty()) return false;
    run_head();
    return true;
}

std::size_t Scheduler::run(std::size_t limit) {
    std::size_t n = 0;
    while (n < limit && step()) ++n;
    return n;
}

void Scheduler::run_until(SimTime deadline) {
    while (!heap_.empty() && heap_.front().at <= deadline) run_head();
    now_ = std::max(now_, deadline);
}

}  // namespace newtop
