/**
 * @file
 * A small fixed-size worker pool with a chunked, dynamically scheduled
 * parallelFor — the serving-side counterpart of the paper's query-level
 * parallelism (EXMA keeps hundreds of searches in flight; on the CPU we
 * fan a query batch out across hardware threads).
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

#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/thread_annotations.hh"
#include "common/types.hh"

namespace exma {

/** std::thread::hardware_concurrency with a sane floor of 1. */
unsigned hardwareThreads();

class ThreadPool
{
  public:
    /**
     * @param threads number of worker threads; 0 picks
     *        hardwareThreads(). A pool of 1 still spawns one worker so
     *        pool semantics (asynchrony, slot indices) stay uniform.
     */
    explicit ThreadPool(unsigned threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    unsigned threadCount() const { return static_cast<unsigned>(workers_.size()); }

    /**
     * Number of participant slots parallelFor may hand out: one per
     * worker plus one for the calling thread.
     */
    unsigned slotCount() const { return threadCount() + 1; }

    /** Enqueue a fire-and-forget task. */
    void submit(std::function<void()> task);

    /** Block until every submitted task has finished. */
    void wait();

    /**
     * Run `fn(begin, end, slot)` over disjoint chunks covering [0, n),
     * `grain` indices at a time, on the workers plus the calling
     * thread. `slot` < slotCount() is stable per participant for the
     * duration of the call. Chunks are claimed dynamically; the call
     * returns once all of [0, n) is processed. The caller claims chunks
     * too, so a loop of c chunks wakes at most c - 1 workers: one that
     * fits one chunk runs on the caller alone. The first exception
     * thrown by any chunk is rethrown here (remaining chunks are
     * drained, not cancelled mid-chunk).
     */
    void parallelFor(u64 n, u64 grain,
                     const std::function<void(u64, u64, unsigned)> &fn);

    /** Process-wide shared pool (created on first use). */
    static ThreadPool &global();

  private:
    void workerLoop();

    std::vector<std::thread> workers_;
    Mutex mtx_;
    CondVar task_ready_;
    CondVar idle_;
    std::deque<std::function<void()>> tasks_ EXMA_GUARDED_BY(mtx_);
    u64 unfinished_ EXMA_GUARDED_BY(mtx_) = 0; ///< queued + running tasks
    bool stop_ EXMA_GUARDED_BY(mtx_) = false;
};

/**
 * Convenience wrapper over ThreadPool::global(): chunked parallel loop
 * over [0, n) with `fn(begin, end, slot)`. `threads` == 1 runs inline
 * on the caller (slot 0) with no synchronisation at all; `threads` == 0
 * uses the global pool at full width. When `threads` is smaller than
 * the global pool only that many slots participate, so per-slot
 * accumulators sized with parallelForSlots() see the reduced width.
 */
void parallelFor(u64 n, u64 grain,
                 const std::function<void(u64, u64, unsigned)> &fn,
                 unsigned threads = 0);

/** Slot-array size needed by parallelFor() for a given thread request. */
unsigned parallelForSlots(unsigned threads = 0);

} // namespace exma

#endif // EXMA_COMMON_THREAD_POOL_HH
