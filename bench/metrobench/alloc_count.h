#pragma once

// Heap allocations made by the calling thread. alloc_count.cpp replaces the
// global operator new family for the metrobench executable; the count is
// thread-local, so counting adds no shared cache line to multi-threaded
// workloads.

#include <cstdint>

namespace metrobench {

std::uint64_t ThreadAllocs();

}  // namespace metrobench
