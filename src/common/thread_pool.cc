#include "common/thread_pool.hh"

#include <algorithm>
#include <atomic>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include "common/thread_annotations.hh"

namespace exma {

unsigned
hardwareThreads()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n ? n : 1;
}

namespace {

/**
 * The process pool: hardwareThreads() workers running submitted tasks
 * in FIFO order. Its only tasks are parallelFor helpers, and a loop
 * waits on its own LoopState, never on the pool.
 */
class ThreadPool
{
  public:
    ThreadPool();
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Number of participant slots a loop may hand out: one per worker
     * plus one for the calling thread.
     */
    unsigned
    slotCount() const
    {
        return static_cast<unsigned>(workers_.size()) + 1;
    }

    /** Enqueue a fire-and-forget task. */
    void submit(std::function<void()> task);

    /** The pool (created on first use). */
    static ThreadPool &global();

  private:
    void workerLoop();

    Mutex mtx_;
    CondVar task_ready_;
    std::deque<std::function<void()>> tasks_ EXMA_GUARDED_BY(mtx_);
    bool stop_ EXMA_GUARDED_BY(mtx_) = false;
    /** Declared after the state the workers use. */
    std::vector<std::thread> workers_;
};

ThreadPool::ThreadPool()
{
    const unsigned threads = hardwareThreads();
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        MutexLock lock(mtx_);
        stop_ = true;
    }
    task_ready_.notify_all();
    for (auto &w : workers_)
        w.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        MutexLock lock(mtx_);
        tasks_.push_back(std::move(task));
    }
    task_ready_.notify_one();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            // An explicit wait loop (rather than the predicate-lambda
            // overload) keeps the guarded reads inside the annotated
            // function body, where -Wthread-safety analyses them
            // against the held MutexLock.
            MutexLock lock(mtx_);
            while (!stop_ && tasks_.empty())
                task_ready_.wait(lock);
            if (tasks_.empty())
                return; // stop_ and drained
            task = std::move(tasks_.front());
            tasks_.pop_front();
        }
        task();
    }
}

ThreadPool &
ThreadPool::global()
{
    static ThreadPool pool;
    return pool;
}

/**
 * Shared state of one parallelFor invocation. Completion is defined on
 * the chunks, not the spawned tasks: the chunk count is known exactly
 * up front, every sub-n cursor claim maps to exactly one chunk, and
 * the loop is done when the completed-chunk count reaches the total —
 * there is no window between claiming a chunk and being visible to the
 * completion predicate. Spawned helper tasks that only get scheduled
 * after that point see an exhausted cursor and exit immediately —
 * nobody has to wait for them, which keeps nested parallelFor calls on
 * a shared pool deadlock-free.
 */
struct LoopState
{
    u64 n = 0;
    u64 grain = 1;
    u64 total_chunks = 0;
    const std::function<void(u64, u64, unsigned)> *fn = nullptr;

    std::atomic<u64> next{0};
    Mutex mtx;
    CondVar done_cv;
    u64 completed_chunks EXMA_GUARDED_BY(mtx) = 0;
    std::exception_ptr first_error EXMA_GUARDED_BY(mtx);

    /** Claim and run chunks until the cursor is exhausted. */
    void
    participate(unsigned slot)
    {
        for (;;) {
            const u64 begin = next.fetch_add(grain);
            if (begin >= n)
                return;
            const u64 end = std::min(begin + grain, n);
            try {
                (*fn)(begin, end, slot);
            } catch (...) {
                MutexLock lock(mtx);
                if (!first_error)
                    first_error = std::current_exception();
            }
            bool last = false;
            {
                MutexLock lock(mtx);
                last = ++completed_chunks == total_chunks;
            }
            if (last)
                done_cv.notify_all();
        }
    }

    void
    waitDone()
    {
        MutexLock lock(mtx);
        while (completed_chunks != total_chunks)
            done_cv.wait(lock);
    }

    /** First chunk error, read under the lock once the loop is done. */
    std::exception_ptr
    takeError() EXMA_EXCLUDES(mtx)
    {
        MutexLock lock(mtx);
        return first_error;
    }
};

/**
 * Run [0, n) on the pool with @p width participant slots total (the
 * caller is slot 0, helpers take 1..width-1), then rethrow the first
 * chunk error. The caller claims a chunk itself, so a loop of c chunks
 * wakes at most c - 1 helpers: a one-chunk loop runs on the caller.
 */
void
runLoop(u64 n, u64 grain,
        const std::function<void(u64, u64, unsigned)> &fn, unsigned width)
{
    auto state = std::make_shared<LoopState>();
    state->n = n;
    state->grain = grain;
    state->total_chunks = (n + grain - 1) / grain;
    state->fn = &fn;

    const unsigned helpers = static_cast<unsigned>(std::min<u64>(
        width > 0 ? width - 1 : 0, state->total_chunks - 1));
    for (unsigned h = 0; h < helpers; ++h)
        ThreadPool::global().submit(
            [state, slot = h + 1] { state->participate(slot); });

    state->participate(0);
    state->waitDone();
    if (auto err = state->takeError())
        std::rethrow_exception(err);
}

} // namespace

unsigned
parallelForSlots(unsigned threads)
{
    if (threads == 1)
        return 1;
    const unsigned width = ThreadPool::global().slotCount();
    return threads == 0 ? width : std::min(threads, width);
}

void
parallelFor(u64 n, u64 grain,
            const std::function<void(u64, u64, unsigned)> &fn,
            unsigned threads)
{
    if (n == 0)
        return;
    grain = std::max<u64>(grain, 1);
    const unsigned width = parallelForSlots(threads);
    if (width == 1) {
        for (u64 begin = 0; begin < n; begin += grain)
            fn(begin, std::min(begin + grain, n), 0);
        return;
    }
    runLoop(n, grain, fn, width);
}

} // namespace exma
