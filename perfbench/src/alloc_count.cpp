#include "alloc_count.hpp"

#include <cstdlib>
#include <new>

namespace {

// The simulator is single-threaded and so is the benchmark; plain counters
// suffice.
std::uint64_t g_allocs = 0;
std::uint64_t g_frees = 0;

void* counted_alloc(std::size_t size) noexcept {
    ++g_allocs;
    return std::malloc(size == 0 ? 1 : size);
}

void counted_free(void* p) noexcept {
    if (p == nullptr) return;
    ++g_frees;
    std::free(p);
}

}  // namespace

namespace perfbench::alloc {

Counts counts() { return {g_allocs, g_frees}; }

}  // namespace perfbench::alloc

void* operator new(std::size_t size) {
    void* p = counted_alloc(size);
    if (p == nullptr) throw std::bad_alloc{};
    return p;
}
void* operator new[](std::size_t size) {
    void* p = counted_alloc(size);
    if (p == nullptr) throw std::bad_alloc{};
    return p;
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept { return counted_alloc(size); }
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept { return counted_alloc(size); }
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { counted_free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { counted_free(p); }
