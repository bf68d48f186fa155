#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <vector>

#include "sim/cpu_queue.hpp"
#include "sim/scheduler.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace newtop {
namespace {

using namespace sim_literals;

TEST(Scheduler, StartsAtTimeZero) {
    Scheduler s;
    EXPECT_EQ(s.now(), 0);
}

TEST(Scheduler, RunsEventsInTimeOrder) {
    Scheduler s;
    std::vector<int> order;
    s.schedule_at(30, [&] { order.push_back(3); });
    s.schedule_at(10, [&] { order.push_back(1); });
    s.schedule_at(20, [&] { order.push_back(2); });
    s.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(s.now(), 30);
}

TEST(Scheduler, EqualTimestampsRunInSchedulingOrder) {
    Scheduler s;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i) s.schedule_at(10, [&order, i] { order.push_back(i); });
    s.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, ScheduleAfterIsRelative) {
    Scheduler s;
    SimTime fired_at = -1;
    s.schedule_at(100, [&] {
        s.schedule_after(50, [&] { fired_at = s.now(); });
    });
    s.run();
    EXPECT_EQ(fired_at, 150);
}

TEST(Scheduler, PastTimesClampToNow) {
    Scheduler s;
    SimTime fired_at = -1;
    s.schedule_at(100, [&] {
        s.schedule_at(10, [&] { fired_at = s.now(); });
    });
    s.run();
    EXPECT_EQ(fired_at, 100);
}

TEST(Scheduler, NegativeDelayClampsToNow) {
    Scheduler s;
    SimTime fired_at = -1;
    s.schedule_at(100, [&] {
        s.schedule_after(-5, [&] { fired_at = s.now(); });
    });
    s.run();
    EXPECT_EQ(fired_at, 100);
}

TEST(Scheduler, CancelPreventsExecution) {
    Scheduler s;
    bool ran = false;
    const TimerId id = s.schedule_at(10, [&] { ran = true; });
    s.cancel(id);
    s.run();
    EXPECT_FALSE(ran);
}

TEST(Scheduler, CancelAfterFiringIsHarmless) {
    Scheduler s;
    const TimerId id = s.schedule_at(10, [] {});
    s.run();
    EXPECT_NO_THROW(s.cancel(id));
}

TEST(Scheduler, CancelZeroIdIsNoop) {
    Scheduler s;
    EXPECT_NO_THROW(s.cancel(0));
}

TEST(Scheduler, StepReturnsFalseWhenEmpty) {
    Scheduler s;
    EXPECT_FALSE(s.step());
    s.schedule_at(1, [] {});
    EXPECT_TRUE(s.step());
    EXPECT_FALSE(s.step());
}

TEST(Scheduler, RunRespectsLimit) {
    Scheduler s;
    int count = 0;
    for (int i = 0; i < 10; ++i) s.schedule_at(i, [&] { ++count; });
    EXPECT_EQ(s.run(4), 4u);
    EXPECT_EQ(count, 4);
}

TEST(Scheduler, RunUntilStopsAtDeadline) {
    Scheduler s;
    std::vector<SimTime> fired;
    for (SimTime t : {10, 20, 30, 40}) s.schedule_at(t, [&, t] { fired.push_back(t); });
    s.run_until(25);
    EXPECT_EQ(fired, (std::vector<SimTime>{10, 20}));
    EXPECT_EQ(s.now(), 25);
    s.run_until(100);
    EXPECT_EQ(fired, (std::vector<SimTime>{10, 20, 30, 40}));
    EXPECT_EQ(s.now(), 100);
}

TEST(Scheduler, RunUntilAdvancesTimeEvenWhenIdle) {
    Scheduler s;
    s.run_until(500);
    EXPECT_EQ(s.now(), 500);
}

TEST(Scheduler, RunUntilWithCancelledHeadBeyondDeadline) {
    Scheduler s;
    bool late_ran = false;
    const TimerId head = s.schedule_at(10, [] {});
    s.schedule_at(50, [&] { late_ran = true; });
    s.cancel(head);
    s.run_until(20);
    EXPECT_FALSE(late_ran);
    s.run_until(60);
    EXPECT_TRUE(late_ran);
}

TEST(Scheduler, EventsScheduledDuringRunAreExecuted) {
    Scheduler s;
    int depth = 0;
    std::function<void()> recurse = [&] {
        if (++depth < 5) s.schedule_after(1, recurse);
    };
    s.schedule_at(0, recurse);
    s.run();
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(s.now(), 4);
}

TEST(Scheduler, NullFunctionRejected) {
    Scheduler s;
    EXPECT_THROW(s.schedule_at(1, nullptr), PreconditionError);
}

TEST(Scheduler, EmptyStdFunctionRejected) {
    Scheduler s;
    EXPECT_THROW(s.schedule_at(1, std::function<void()>{}), PreconditionError);
    EXPECT_EQ(s.pending(), 0u);
}

TEST(Scheduler, InlineAndHeapHandlersBothRun) {
    Scheduler s;
    const std::array<std::uint64_t, 4> small{1, 2, 3, 4};
    std::array<std::uint64_t, 32> large{};
    large.back() = 5;
    std::uint64_t sum = 0;
    auto fits = [&sum, small] { sum += small[3]; };
    auto spills = [&sum, large] { sum += large.back(); };
    static_assert(Task::fits_inline<decltype(fits)>);
    static_assert(!Task::fits_inline<decltype(spills)>);
    s.schedule_at(1, fits);
    s.schedule_at(2, spills);
    s.run();
    EXPECT_EQ(sum, 9u);
}

TEST(Scheduler, MoveOnlyCapturesWork) {
    Scheduler s;
    int got = 0;
    s.schedule_at(1, [&got, owned = std::make_unique<int>(7)] { got = *owned; });
    s.run();
    EXPECT_EQ(got, 7);
}

TEST(Scheduler, CancelDestroysCapturesAtOnce) {
    Scheduler s;
    const auto inline_held = std::make_shared<int>(1);
    const auto heap_held = std::make_shared<int>(2);
    std::array<std::uint64_t, 32> padding{};
    const TimerId a = s.schedule_at(10, [inline_held] { FAIL() << "cancelled"; });
    const TimerId b = s.schedule_at(10, [heap_held, padding] { FAIL() << padding[0]; });
    EXPECT_EQ(inline_held.use_count(), 2);
    EXPECT_EQ(heap_held.use_count(), 2);
    s.cancel(a);
    s.cancel(b);
    EXPECT_EQ(inline_held.use_count(), 1);
    EXPECT_EQ(heap_held.use_count(), 1);
    s.run();
}

TEST(Scheduler, PendingCountExcludesCancelled) {
    Scheduler s;
    const TimerId a = s.schedule_at(1, [] {});
    s.schedule_at(2, [] {});
    EXPECT_EQ(s.pending(), 2u);
    s.cancel(a);
    EXPECT_EQ(s.pending(), 1u);
}

// Regressions for the tombstone engine, which kept cancelled ids until their
// event was popped: a cancel after firing was never popped, so pending()
// undercounted, and two of them wrapped it below zero.
TEST(Scheduler, CancelAfterFiringKeepsPendingExact) {
    Scheduler s;
    const TimerId fired = s.schedule_at(1, [] {});
    s.schedule_at(10, [] {});
    ASSERT_TRUE(s.step());
    s.cancel(fired);
    EXPECT_EQ(s.pending(), 1u);
}

TEST(Scheduler, RepeatedStaleCancelsDoNotWrapPending) {
    Scheduler s;
    const TimerId a = s.schedule_at(1, [] {});
    const TimerId b = s.schedule_at(2, [] {});
    s.schedule_at(10, [] {});
    s.run_until(5);
    s.cancel(a);
    s.cancel(b);
    s.cancel(b);
    EXPECT_EQ(s.pending(), 1u);
}

TEST(Scheduler, StaleIdDoesNotCancelTheEventReusingItsSlot) {
    Scheduler s;
    const TimerId old_id = s.schedule_at(1, [] {});
    ASSERT_TRUE(s.step());
    bool ran = false;
    const TimerId new_id = s.schedule_at(5, [&] { ran = true; });
    EXPECT_NE(new_id, old_id);
    s.cancel(old_id);
    EXPECT_EQ(s.pending(), 1u);
    s.run();
    EXPECT_TRUE(ran);
}

TEST(Scheduler, CancelInsideOwnHandlerIsNoop) {
    Scheduler s;
    TimerId self = 0;
    bool later_ran = false;
    self = s.schedule_at(1, [&] {
        s.cancel(self);
        s.schedule_at(2, [&] { later_ran = true; });
    });
    s.run();
    EXPECT_TRUE(later_ran);
    EXPECT_EQ(s.pending(), 0u);
}

/// Naive reference engine for the equivalence property below: events in an
/// insertion-ordered vector, each with a live flag; every step scans for
/// the earliest live (time, scheduling order) pair.
class ReferenceScheduler {
public:
    [[nodiscard]] SimTime now() const { return now_; }

    TimerId schedule_at(SimTime at, std::function<void()> fn) {
        events_.push_back(Event{std::max(at, now_), std::move(fn), true});
        return events_.size();
    }
    TimerId schedule_after(SimDuration delay, std::function<void()> fn) {
        return schedule_at(now_ + std::max<SimDuration>(delay, 0), std::move(fn));
    }
    void cancel(TimerId id) {
        if (id != 0 && id <= events_.size()) events_[id - 1].live = false;
    }
    bool step() {
        const std::size_t next = earliest();
        if (next == events_.size()) return false;
        events_[next].live = false;
        now_ = events_[next].at;
        const std::function<void()> fn = events_[next].fn;
        fn();
        return true;
    }
    void run_until(SimTime deadline) {
        while (earliest() != events_.size() && events_[earliest()].at <= deadline) step();
        now_ = std::max(now_, deadline);
    }
    [[nodiscard]] std::size_t pending() const {
        return static_cast<std::size_t>(
            std::count_if(events_.begin(), events_.end(), [](const Event& e) { return e.live; }));
    }

private:
    struct Event {
        SimTime at;
        std::function<void()> fn;
        bool live;
    };
    // Index order is scheduling order, so the first minimum wins ties.
    [[nodiscard]] std::size_t earliest() const {
        std::size_t best = events_.size();
        for (std::size_t i = 0; i < events_.size(); ++i) {
            if (events_[i].live && (best == events_.size() || events_[i].at < events_[best].at)) {
                best = i;
            }
        }
        return best;
    }

    SimTime now_{0};
    std::vector<Event> events_;
};

/// One seeded script of schedules (many at equal times, some in the past),
/// cancels of live, fired, stale and zero ids, steps and run_until calls.
/// Handlers log their label and may schedule or cancel in turn.  Returns
/// the interleaved log of fired labels and (now, pending) after each op.
template <typename Engine>
std::vector<std::int64_t> run_engine_script(std::uint64_t seed) {
    struct Script {
        Engine engine;
        std::vector<TimerId> ids;
        std::vector<std::int64_t> log;
        std::int64_t next_label = 0;

        void add(SimTime at, bool relative) {
            const std::int64_t label = next_label++;
            auto fn = [this, label] { fire(label); };
            ids.push_back(relative ? engine.schedule_after(at, fn) : engine.schedule_at(at, fn));
        }
        void fire(std::int64_t label) {
            log.push_back(label);
            if (label % 3 == 0) add(label % 5, true);
            if (label % 7 == 0) engine.cancel(ids[static_cast<std::size_t>(label) % ids.size()]);
        }
    };
    Script script;
    Rng rng(seed);
    for (int op = 0; op < 200; ++op) {
        const std::uint64_t pick = rng.next_in(0, 99);
        const SimTime now = script.engine.now();
        if (pick < 35) {
            script.add(now + rng.next_in_signed(-3, 6), false);
        } else if (pick < 50) {
            script.add(rng.next_in_signed(-2, 6), true);
        } else if (pick < 70) {
            if (!script.ids.empty()) {
                script.engine.cancel(script.ids[rng.next_in(0, script.ids.size() - 1)]);
            }
        } else if (pick < 73) {
            script.engine.cancel(0);
        } else if (pick < 85) {
            script.log.push_back(script.engine.step() ? -1 : -2);
        } else {
            script.engine.run_until(now + rng.next_in_signed(-1, 8));
        }
        script.log.push_back(-1000 - script.engine.now());
        script.log.push_back(-1000000 - static_cast<std::int64_t>(script.engine.pending()));
    }
    script.engine.run_until(script.engine.now() + 100);
    script.log.push_back(static_cast<std::int64_t>(script.engine.pending()));
    return script.log;
}

TEST(Scheduler, MatchesReferenceEngineOnSeededScripts) {
    for (std::uint64_t seed = 1; seed <= 300; ++seed) {
        ASSERT_EQ(run_engine_script<Scheduler>(seed), run_engine_script<ReferenceScheduler>(seed))
            << "seed " << seed;
    }
}

// -- CpuQueue ---------------------------------------------------------------

TEST(CpuQueue, SerializesWork) {
    Scheduler s;
    CpuQueue cpu(s);
    std::vector<SimTime> completions;
    cpu.execute(100, [&] { completions.push_back(s.now()); });
    cpu.execute(50, [&] { completions.push_back(s.now()); });
    s.run();
    EXPECT_EQ(completions, (std::vector<SimTime>{100, 150}));
}

TEST(CpuQueue, IdleCpuStartsWorkImmediately) {
    Scheduler s;
    CpuQueue cpu(s);
    SimTime done = -1;
    s.schedule_at(1000, [&] { cpu.execute(10, [&] { done = s.now(); }); });
    s.run();
    EXPECT_EQ(done, 1010);
}

TEST(CpuQueue, QueueingCreatesBacklog) {
    Scheduler s;
    CpuQueue cpu(s);
    // Two submissions at t=0 and t=10; the second waits for the first.
    SimTime second_done = -1;
    cpu.execute(100, [] {});
    s.schedule_at(10, [&] { cpu.execute(20, [&] { second_done = s.now(); }); });
    s.run();
    EXPECT_EQ(second_done, 120);
}

TEST(CpuQueue, ZeroCostWorkStillDefers) {
    Scheduler s;
    CpuQueue cpu(s);
    bool ran_inline = true;
    cpu.execute(0, [&] { ran_inline = false; });
    EXPECT_TRUE(ran_inline);  // not yet run: handlers never run re-entrantly
    s.run();
    EXPECT_FALSE(ran_inline);
}

TEST(CpuQueue, TracksConsumedTime) {
    Scheduler s;
    CpuQueue cpu(s);
    cpu.execute(30, [] {});
    cpu.execute(70, [] {});
    s.run();
    EXPECT_EQ(cpu.consumed(), 100);
}

TEST(CpuQueue, ResetDropsQueuedWork) {
    Scheduler s;
    CpuQueue cpu(s);
    bool ran = false;
    cpu.execute(100, [&] { ran = true; });
    cpu.reset();
    s.run();
    EXPECT_FALSE(ran);
}

TEST(CpuQueue, WorkAfterResetRuns) {
    Scheduler s;
    CpuQueue cpu(s);
    cpu.execute(100, [] { FAIL() << "dropped work must not run"; });
    cpu.reset();
    bool ran = false;
    cpu.execute(10, [&] { ran = true; });
    s.run();
    EXPECT_TRUE(ran);
}

TEST(CpuQueue, EmptyStdFunctionRejected) {
    Scheduler s;
    CpuQueue cpu(s);
    EXPECT_THROW(cpu.execute(1, std::function<void()>{}), PreconditionError);
    EXPECT_EQ(cpu.busy_until(), 0);
}

TEST(CpuQueue, RunsMoveOnlyTasksInOrderAcrossRingGrowth) {
    Scheduler s;
    CpuQueue cpu(s);
    std::vector<int> order;
    // Enough queued tasks to grow the ring several times.
    for (int i = 0; i < 100; ++i) {
        cpu.execute(1, [&order, owned = std::make_unique<int>(i)] { order.push_back(*owned); });
    }
    s.run();
    ASSERT_EQ(order.size(), 100u);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(CpuQueue, ResetDestroysQueuedCapturesAtOnce) {
    Scheduler s;
    CpuQueue cpu(s);
    const auto held = std::make_shared<int>(1);
    cpu.execute(10, [held] {});
    cpu.execute(10, [held] {});
    EXPECT_EQ(held.use_count(), 3);
    cpu.reset();
    EXPECT_EQ(held.use_count(), 1);
    s.run();
}

TEST(CpuQueue, NegativeCostRejected) {
    Scheduler s;
    CpuQueue cpu(s);
    EXPECT_THROW(cpu.execute(-1, [] {}), PreconditionError);
}

}  // namespace
}  // namespace newtop
