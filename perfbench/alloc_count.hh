/**
 * @file
 * Process-wide heap allocation counter. alloc_count.cc replaces the
 * global operator new family with versions that count every call, on
 * any thread, before allocating with malloc/aligned_alloc.
 */

#ifndef PERFBENCH_ALLOC_COUNT_HH
#define PERFBENCH_ALLOC_COUNT_HH

#include <cstdint>

namespace perfbench {

/** operator new calls so far, process-wide (relaxed). */
std::uint64_t allocations();

} // namespace perfbench

#endif // PERFBENCH_ALLOC_COUNT_HH
