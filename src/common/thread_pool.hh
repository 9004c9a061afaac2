/**
 * @file
 * A chunked, dynamically scheduled parallelFor over one process-wide
 * worker pool — the serving-side counterpart of the paper's
 * query-level parallelism (EXMA keeps hundreds of searches in flight;
 * on the CPU we fan a query batch out across hardware threads). The
 * pool itself is private to thread_pool.cc: every caller goes through
 * parallelFor.
 *
 * Scheduling is "work-stealing-ish": parallelFor publishes one shared
 * atomic cursor over [0, n) and every participant (each worker plus the
 * calling thread) repeatedly claims the next `grain`-sized chunk, so a
 * straggler chunk never serialises the tail the way static striping
 * would. Each participant is handed a stable slot index, which callers
 * use for mutex-free per-thread accumulation (e.g. SearchStats).
 */

#ifndef EXMA_COMMON_THREAD_POOL_HH
#define EXMA_COMMON_THREAD_POOL_HH

#include <functional>

#include "common/types.hh"

namespace exma {

/** std::thread::hardware_concurrency with a sane floor of 1. */
unsigned hardwareThreads();

/**
 * Run `fn(begin, end, slot)` over disjoint chunks covering [0, n),
 * `grain` indices at a time, on the process pool (hardwareThreads()
 * workers, created on first use) plus the calling thread. `slot` <
 * parallelForSlots(threads) is stable per participant for the
 * duration of the call. Chunks are claimed dynamically; the call
 * returns once all of [0, n) is processed. The caller claims chunks
 * too, so a loop of c chunks wakes at most c - 1 workers: one that
 * fits one chunk runs on the caller alone. The first exception thrown
 * by any chunk is rethrown here (remaining chunks are drained, not
 * cancelled mid-chunk).
 *
 * `threads` == 1 runs inline on the caller (slot 0) with no
 * synchronisation at all; `threads` == 0 uses the whole pool. When
 * `threads` is smaller than the pool only that many slots participate,
 * so per-slot accumulators sized with parallelForSlots() see the
 * reduced width.
 */
void parallelFor(u64 n, u64 grain,
                 const std::function<void(u64, u64, unsigned)> &fn,
                 unsigned threads = 0);

/**
 * Slot-array size needed by parallelFor() for a given thread request:
 * at most one per pool worker plus one for the calling thread.
 */
unsigned parallelForSlots(unsigned threads = 0);

} // namespace exma

#endif // EXMA_COMMON_THREAD_POOL_HH
