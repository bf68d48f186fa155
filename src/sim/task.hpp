// A move-only `void()` callable with inline storage: the handler type of
// scheduler events and CPU-queue tasks.
//
// std::function copies its target and heap-allocates any capture larger
// than two pointers, which on the per-message path (a wire delivery, an
// ORB marshal leg, an application hand-off) means one allocation per
// event.  Task keeps captures up to kInlineSize bytes inside the object,
// so a scheduler slot or CPU-queue entry that is recycled recycles the
// closure's storage too.  Larger captures still work: they move to the
// heap, one allocation each, exactly as std::function would.
#pragma once

#include <cstddef>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

namespace newtop {

class Task {
public:
    /// Bytes of capture a closure may carry without a heap allocation:
    /// enough for the largest per-message closure (the application
    /// hand-off: its handler, one Delivery and the coalesced batch).
    static constexpr std::size_t kInlineSize = 104;

    /// True when a callable of type F is stored inside the Task.  Hot-path
    /// call sites static_assert this on their closures.
    template <class F>
    static constexpr bool fits_inline = sizeof(F) <= kInlineSize &&
                                        alignof(F) <= alignof(void*) &&
                                        std::is_nothrow_move_constructible_v<F>;

    Task() noexcept = default;
    Task(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

    /// Wrap any `void()` callable.  An empty std::function or null function
    /// pointer yields an empty Task, which the scheduler and CPU queue
    /// reject as not callable.
    template <class F>
        requires(!std::is_same_v<std::decay_t<F>, Task> && std::is_invocable_v<std::decay_t<F>&>)
    Task(F&& f) {  // NOLINT(google-explicit-constructor)
        using Fn = std::decay_t<F>;
        if constexpr (is_nullable<Fn>) {
            if (!f) return;
        }
        if constexpr (fits_inline<Fn>) {
            ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
            ops_ = &kInlineOps<Fn>;
        } else {
            ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(f)));
            ops_ = &kHeapOps<Fn>;
        }
    }

    Task(Task&& other) noexcept { take(other); }
    Task& operator=(Task&& other) noexcept {
        if (this != &other) {
            reset();
            take(other);
        }
        return *this;
    }
    Task(const Task&) = delete;
    Task& operator=(const Task&) = delete;
    ~Task() { reset(); }

    [[nodiscard]] explicit operator bool() const noexcept { return ops_ != nullptr; }
    friend bool operator==(const Task& task, std::nullptr_t) noexcept { return !task; }

    /// Run the callable; the Task must not be empty.
    void operator()() { ops_->invoke(storage_); }

    /// Destroy the callable (and so its captures) now, leaving the Task
    /// empty.
    void reset() noexcept {
        if (ops_ != nullptr) std::exchange(ops_, nullptr)->destroy(storage_);
    }

private:
    template <class Fn>
    static constexpr bool is_nullable =
        std::is_pointer_v<Fn> || std::is_member_pointer_v<Fn> ||
        std::is_same_v<Fn, std::function<void()>>;

    struct Ops {
        void (*invoke)(void* storage);
        /// Move-construct the callable into `to` and destroy it at `from`.
        void (*relocate)(void* from, void* to) noexcept;
        void (*destroy)(void* storage) noexcept;
    };

    template <class Fn>
    static constexpr Ops kInlineOps{
        [](void* s) { (*static_cast<Fn*>(s))(); },
        [](void* from, void* to) noexcept {
            Fn& src = *static_cast<Fn*>(from);
            ::new (to) Fn(std::move(src));
            src.~Fn();
        },
        [](void* s) noexcept { static_cast<Fn*>(s)->~Fn(); },
    };

    template <class Fn>
    static constexpr Ops kHeapOps{
        [](void* s) { (**static_cast<Fn**>(s))(); },
        [](void* from, void* to) noexcept { ::new (to) Fn*(*static_cast<Fn**>(from)); },
        [](void* s) noexcept { delete *static_cast<Fn**>(s); },
    };

    void take(Task& other) noexcept {
        if (other.ops_ == nullptr) return;
        other.ops_->relocate(other.storage_, storage_);
        ops_ = std::exchange(other.ops_, nullptr);
    }

    alignas(void*) unsigned char storage_[kInlineSize];
    const Ops* ops_{nullptr};
};

}  // namespace newtop
