/**
 * @file
 * The transport-agnostic worker seam, and the one serving lane every
 * replica runs. A Transport is one replica's endpoint: submit a
 * WorkerRequest with a completion, and the completion runs exactly
 * once with a typed WorkerResponse — Ok, Failed (the worker's compute
 * threw; the message rides along), or WorkerDown (the worker died or
 * was destroyed before serving it). Failures are data, not
 * exceptions, and no submitted request is ever dropped unanswered.
 *
 * Two implementations exist: ShardWorker (answers in process — the
 * default, and the differential oracle) and SocketTransport (a
 * spawned exma-worker child process behind a Unix socket speaking
 * length-prefixed canary-stamped frames). ReplicaSet,
 * WorkerSupervisor and ShardRouter only ever talk through this
 * interface, so the process boundary is a construction-time choice,
 * not a routing-code fork. The EXMA paper builds one search engine
 * and repeats it per DRAM channel; likewise the lane below exists
 * once and a subclass only says how one request is answered
 * (serveRequest) and how an in-flight answer is cut short
 * (interrupt).
 *
 * The lane: an inbox (deque + mutex + condvar) drained in submission
 * order by one owned thread. A caller with nothing else to do may
 * instead serve one request on its own thread (serveHere) through the
 * same serve path; only the inbox and its wake are skipped. Every
 * request served either way probes the process-wide FaultInjector at
 * the replica's name, so one fault plan drives both transports and
 * both paths identically:
 *   - kill     the replica dies before serving (kill(): for a socket
 *              replica, a real SIGKILL);
 *   - hang     the serving thread stalls with no heartbeat until a
 *              kill (or the supervisor) cancels the sleep; then the
 *              replica is gone;
 *   - delay    the serving thread stalls, then serves — unless killed
 *              mid-sleep;
 *   - throw    a Failed response without contacting the compute (the
 *              fault models compute throwing, not the channel: the
 *              replica survives and nothing respawns);
 *   - corrupt  the payload is flipped *after* the canary was stamped,
 *              which the router must catch by recompute.
 * An exception escaping serveRequest means the replica itself broke
 * (a socket child crashed, its stream was shut down, a frame failed
 * validation): the request resolves WorkerDown and the replica is put
 * down. A replica killed mid-request never answers Ok.
 *
 * Every response reaches its caller through one function, resolve():
 * counters first, then the completion, with no transport lock held.
 * A submitted request's completion runs on the lane thread, on the
 * thread that called kill() (or destroyed the transport), or — for a
 * replica already dead — on the submitting thread before submit()
 * returns. A serveHere() completion always runs on the calling
 * thread before serveHere() returns. Because no lock is held, a
 * completion may submit again, even to the same transport.
 *
 * Liveness (inboxDepth / heartbeat / processed / isDead / kill) is
 * part of the interface because the failover tier is built on it:
 * power-of-two-choices reads inboxDepth, the supervisor reads
 * heartbeat, and kill() is the one idempotent crash switch every
 * layer (supervisor, ReplicaSet::killReplica, tests) may pull. The
 * heartbeat ticks as each request starts being served, on every
 * completion and on every compute chunk (tickHeartbeat), which is how
 * a supervisor tells a slow replica from a hung one; a serveHere()
 * request counts in inboxDepth while it runs, so a hang on the
 * caller's thread is seen too. Counters move before the completion
 * runs, so a caller that has its response sees the post-request
 * counters.
 *
 * Start/stop ordering: a subclass calls startLane() as the last step
 * of its constructor and stopLane() as the first step of its
 * destructor. The lane thread calls the subclass's virtual hooks, so
 * it may only run while the object is fully built: started earlier,
 * it could reach a half-built object; stopped later, a half-destroyed
 * one.
 *
 * Thread-safety analysis: the inbox deque is EXMA_GUARDED_BY the lane
 * mutex; the counters and the dead flag are lock-free atomics.
 */

#ifndef EXMA_TRANSPORT_TRANSPORT_HH
#define EXMA_TRANSPORT_TRANSPORT_HH

#include <atomic>
#include <deque>
#include <functional>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "batch/batch_searcher.hh"
#include "common/search_stats.hh"
#include "common/thread_annotations.hh"
#include "common/types.hh"
#include "fault/fault_injector.hh"
#include "transport/query_batch.hh"

namespace exma {

/** One unit of worker work: serve the batch with these knobs. */
struct WorkerRequest
{
    /** The queries to serve plus their router-side ids. */
    QueryBatchView batch;
    /** Per-request search knobs (threads are forced to 1: the
     *  worker's parallelism is the worker, cross-shard). */
    BatchConfig cfg;
};

enum class WorkerStatus : u8 {
    Ok,         ///< hits are valid (canary-checkable)
    Failed,     ///< worker compute threw; error holds the message
    WorkerDown, ///< worker died/destroyed before serving this
};

/** Outcome, index-aligned with the request's batch ids. */
struct WorkerResponse
{
    WorkerStatus status = WorkerStatus::Ok;
    std::string error; ///< diagnostic for Failed / WorkerDown
    std::vector<u32> ids;
    /** Global match positions per id, sorted ascending. Within one
     *  shard a global position occurs at most once (a shard is one
     *  slice), so no per-shard dedup is run. */
    std::vector<std::vector<u64>> hits;
    /** Integrity stamp over ids+hits (responseCanary); the router
     *  recomputes it and discards mismatching responses the way it
     *  would a failed checksum on a wire transport. */
    u64 canary = 0;
    SearchStats stats;
    double seconds = 0.0; ///< worker-side wall clock for the batch

    bool ok() const { return status == WorkerStatus::Ok; }
};

/** The integrity stamp WorkerResponse::canary carries (FNV-1a). */
u64 responseCanary(const WorkerResponse &r);

/** One replica endpoint; see file comment for the contract. */
class Transport
{
  public:
    /** The subclass must have called stopLane() already. */
    virtual ~Transport();

    Transport(const Transport &) = delete;
    Transport &operator=(const Transport &) = delete;

    /** Receives one request's response; see submit(). */
    using Completion = std::function<void(WorkerResponse)>;

    /**
     * Enqueue a request; @p done runs exactly once with its response
     * once the replica has served it or gone down (see the file
     * comment for the thread it runs on). Submitted requests are
     * served in submission order. Never blocks; submitting to a dead
     * replica runs @p done with WorkerDown before returning.
     */
    void submit(WorkerRequest req, Completion done);

    /** submit(), with the response delivered through a future. */
    std::future<WorkerResponse> submit(WorkerRequest req);

    /**
     * Serve a request on the calling thread instead of the lane: the
     * lane's own serve path (fault dispatch, counters, kill semantics),
     * so @p done runs exactly once, on this thread, before serveHere()
     * returns. The request counts in inboxDepth() while it runs and
     * does not queue behind submitted ones; a kill() from another
     * thread cuts an injected sleep short, and a replica already dead
     * answers WorkerDown. Blocks for the whole request: only for a
     * replica whose serveRequest may run beside its lane (ShardWorker
     * over immutable shard state; a socket replica's lane owns its
     * socket).
     */
    void serveHere(WorkerRequest req, Completion done);

    /**
     * Put the replica down: mark dead, interrupt whatever it is
     * doing, and resolve every queued request with WorkerDown.
     * Idempotent — the supervisor, ReplicaSet::killReplica and tests
     * may call it repeatedly on an already-dead replica.
     */
    void kill();

    bool isDead() const { return dead_.load(std::memory_order_acquire); }

    /** Queued + in-flight requests — the power-of-two-choices load
     *  signal. */
    u64 inboxDepth() const
    {
        return inbox_depth_.load(std::memory_order_relaxed);
    }

    /** Liveness counter: ticks as a request starts being served and
     *  per processed chunk. A replica with inboxDepth() > 0 and a
     *  frozen heartbeat is hung. */
    u64 heartbeat() const
    {
        return heartbeat_.load(std::memory_order_relaxed);
    }

    /** Requests served to completion (Ok or Failed; monotonic). */
    u64 processed() const
    {
        return processed_.load(std::memory_order_relaxed);
    }

    /** Stable replica name; also the fault-injection site. */
    const std::string &name() const { return name_; }

    bool hasTable() const { return has_table_; }
    bool isEmpty() const { return is_empty_; }

  protected:
    Transport(std::string name, bool has_table, bool is_empty);

    /** Spawn the lane thread: the last step of a subclass ctor. */
    void startLane();

    /**
     * kill() the replica and join the lane thread: the first step of
     * a subclass dtor. Every queued or in-flight request resolves
     * WorkerDown.
     */
    void stopLane();

    /**
     * Answer one request on the lane thread (or a serveHere() caller's):
     * Ok with a stamped canary, or Failed when the compute threw. Throw
     * only when the replica itself is broken; the request then resolves
     * WorkerDown and the replica is put down.
     */
    virtual WorkerResponse serveRequest(const WorkerRequest &req) = 0;

    /**
     * Cut an in-flight serveRequest short; called by every kill(),
     * from any thread, so it must be idempotent.
     */
    virtual void interrupt() {}

    /** Liveness from inside serveRequest (per compute chunk). */
    void tickHeartbeat()
    {
        heartbeat_.fetch_add(1, std::memory_order_relaxed);
    }

  private:
    struct Pending
    {
        WorkerRequest req;
        Completion done;
    };

    void run();
    void serve(Pending p);
    /** Resolve @p p with WorkerDown. */
    void resolveDown(Pending &p);
    /** Release @p p's inbox slot and run its completion with @p r. */
    void resolve(Pending &p, WorkerResponse r);

    const std::string name_;
    const bool has_table_;
    const bool is_empty_;

    std::atomic<u64> processed_{0};
    std::atomic<u64> heartbeat_{0};
    std::atomic<u64> inbox_depth_{0};
    std::atomic<bool> dead_{false};
    CancelToken cancel_;

    Mutex mtx_;
    CondVar cv_;
    std::deque<Pending> inbox_ EXMA_GUARDED_BY(mtx_);
    std::thread thread_;
};

} // namespace exma

#endif // EXMA_TRANSPORT_TRANSPORT_HH
