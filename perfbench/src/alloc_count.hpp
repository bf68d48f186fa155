// Heap-allocation counters for the benchmark binary.
//
// alloc_count.cpp replaces the global operator new/delete with counting
// forwarders to malloc/free (the same idea as the simulator benches'
// allocation hook, kept in the benchmark's own sources).  Snapshot around a
// window: `allocs` is churn, `allocs - frees` is net heap growth.
#pragma once

#include <cstdint>

namespace perfbench::alloc {

struct Counts {
    std::uint64_t allocs{0};
    std::uint64_t frees{0};
};

/// Process-wide counters, monotonic since start.
Counts counts();

}  // namespace perfbench::alloc
