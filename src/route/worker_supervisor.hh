/**
 * @file
 * Background health-checker for a router's replica tier: one thread
 * sweeps every ReplicaSet on a fixed interval, respawning dead
 * replicas and putting down hung ones (ReplicaSet::superviseOnce).
 * It is the only hang handler, so every router runs one. A hang
 * becomes a kill, a kill completes the victim's queued requests as
 * WorkerDown, and the router's retry path re-routes those requests to
 * a live replica — so in-flight work survives a frozen worker, and a
 * hung replica does not keep failing the searches routed to it.
 *
 * The supervisor only ever talks to workers through ReplicaSet's
 * public surface, the same surface an out-of-process transport would
 * expose (liveness + respawn), so moving workers out of process later
 * leaves this layer unchanged.
 */

#ifndef EXMA_ROUTE_WORKER_SUPERVISOR_HH
#define EXMA_ROUTE_WORKER_SUPERVISOR_HH

#include <thread>
#include <vector>

#include "common/thread_annotations.hh"
#include "route/replica_set.hh"

namespace exma {

class WorkerSupervisor
{
  public:
    struct Config
    {
        u64 interval_ms = 20;      ///< sweep period
        u64 hang_timeout_ms = 1000; ///< frozen-heartbeat threshold
    };

    /** Starts the sweep thread. @p sets must outlive the supervisor. */
    WorkerSupervisor(std::vector<ReplicaSet *> sets, Config cfg);

    /** Stops and joins the sweep thread. */
    ~WorkerSupervisor();

    WorkerSupervisor(const WorkerSupervisor &) = delete;
    WorkerSupervisor &operator=(const WorkerSupervisor &) = delete;

  private:
    void loop();

    const std::vector<ReplicaSet *> sets_;
    const Config cfg_;
    Mutex mtx_;
    CondVar cv_;
    bool stop_ EXMA_GUARDED_BY(mtx_) = false;
    std::thread thread_;
};

} // namespace exma

#endif // EXMA_ROUTE_WORKER_SUPERVISOR_HH
