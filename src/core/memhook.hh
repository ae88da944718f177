/**
 * @file
 * Counting allocator hook for the benches.
 *
 * Translation units that reference this API pull in memhook.cc from the
 * static library, which replaces the global operator new/delete with
 * malloc/free forwarders that bump atomic counters while counting is
 * enabled. Binaries that never reference the API (the tests, the
 * sanitizer jobs) link the toolchain's default allocator untouched.
 *
 * The counters make "the hot path allocates nothing" a measured number:
 * bench_fabric_microbench reports allocations per item, bench_soak per
 * steady-window event, and nimblock_memhook_tests (MemhookZeroAlloc)
 * asserts zero in every steady-state window.
 */

#ifndef NIMBLOCK_CORE_MEMHOOK_HH
#define NIMBLOCK_CORE_MEMHOOK_HH

#include <cstdint>

namespace nimblock {
namespace memhook {

/** Begin/stop counting allocations. Counting starts disabled. */
void setEnabled(bool on);

/** True while allocations are being counted. */
bool enabled();

/** Number of operator-new calls observed while enabled. */
std::uint64_t allocCount();

/** Number of operator-delete calls observed while enabled. */
std::uint64_t freeCount();

/** Bytes requested from operator new while enabled. */
std::uint64_t allocBytes();

/** Zero all counters. */
void reset();

} // namespace memhook
} // namespace nimblock

#endif // NIMBLOCK_CORE_MEMHOOK_HH
