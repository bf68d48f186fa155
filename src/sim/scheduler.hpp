// The discrete-event scheduler at the heart of the simulator.
//
// Every asynchronous activity in the system — wire propagation, CPU work,
// protocol timers — is an event on this queue.  Events at equal timestamps
// run in scheduling order, which (together with the seeded RNG) makes whole
// experiments deterministic.
//
// Events live in a slab of recycled slots; an indexed binary heap orders
// them by (time, scheduling order).  Each heap entry carries its own
// (time, order) key beside its slot index, so a sift compares contiguous
// entries and touches a slot only to record the entry's new position.
// Cancelling removes the event from the heap at once, so memory tracks the
// live events only — not the history of timers that were armed and
// disarmed along the way.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "util/time.hpp"

namespace newtop {

/// Handle for a scheduled event, usable to cancel it.  Packs the event's
/// slot and that slot's generation; never 0, so 0 can mean "no timer".
using TimerId = std::uint64_t;

class Scheduler {
public:
    Scheduler() = default;

    Scheduler(const Scheduler&) = delete;
    Scheduler& operator=(const Scheduler&) = delete;

    /// Current simulated time.
    [[nodiscard]] SimTime now() const { return now_; }

    /// Schedule `fn` to run at absolute time `at` (clamped to now()).
    TimerId schedule_at(SimTime at, std::function<void()> fn);

    /// Schedule `fn` to run `delay` from now (negative delays run "now").
    TimerId schedule_after(SimDuration delay, std::function<void()> fn);

    /// Cancel a pending event: it is removed at once and its handler is
    /// destroyed.  Cancelling id 0, or an event that has already fired or
    /// was already cancelled, is a true no-op — a stale id never touches
    /// the event that later reuses its slot — so protocol code may cancel
    /// timers unconditionally.
    void cancel(TimerId id);

    /// Run the single earliest pending event.  Returns false if none remain.
    bool step();

    /// Run events until the queue is empty or `limit` events have run.
    /// Returns the number of events executed.  The limit is a guard against
    /// livelocked protocols in tests (e.g. lively groups that heartbeat
    /// forever); production experiment drivers use run_until().
    std::size_t run(std::size_t limit = SIZE_MAX);

    /// Run all events with timestamp <= deadline; simulated time ends up at
    /// `deadline` even if the queue drains early.
    void run_until(SimTime deadline);

    /// Number of events currently pending (exact: cancelled events are gone).
    [[nodiscard]] std::size_t pending() const { return heap_.size(); }

private:
    struct Slot {
        std::uint32_t generation{0};  // bumped each time the slot is freed
        std::uint32_t heap_pos{0};    // index into heap_ while pending
        std::function<void()> fn;
    };

    /// A pending event's heap entry: its ordering key and its slot.
    struct Entry {
        SimTime at;
        std::uint64_t seq;  // FIFO tie-break for equal timestamps
        std::uint32_t slot;
    };

    [[nodiscard]] static bool earlier(const Entry& x, const Entry& y) {
        return x.at != y.at ? x.at < y.at : x.seq < y.seq;
    }
    void place(std::size_t pos, const Entry& entry);
    void sift_up(std::size_t pos);
    void sift_down(std::size_t pos);
    /// Remove the heap entry at `pos`, return its slot to the free list and
    /// hand back the slot's handler.
    std::function<void()> erase_at(std::size_t pos);
    /// Pop the earliest event, advance now() to it and run its handler.
    void run_head();

    SimTime now_{0};
    std::uint64_t next_seq_{0};
    std::vector<Slot> slots_;
    std::vector<std::uint32_t> free_slots_;
    std::vector<Entry> heap_;  // min-heap on (at, seq)
};

}  // namespace newtop
