/**
 * @file
 * The in-process Transport: a ShardWorker answers each request by
 * running serveShardRequest against its ShardState — the same compute
 * the out-of-process exma-worker binary runs, which is what makes this
 * worker the differential oracle for the socket transport. A submitted
 * request is served on the lane thread; a serveHere() request on the
 * caller's thread, possibly while the lane serves another, which is
 * safe because serving reads only the immutable ShardState (the router
 * serves a lone in-process shard call this way). Requests carry a
 * QueryBatchView borrowed zero-copy from the router's batch. The lane
 * itself (inbox, fault dispatch, liveness, the completion contract) is
 * Transport's; see transport.hh.
 *
 * Every kLaneSlice queries and every kLaneSlice located rows
 * (BatchConfig::progress) tick the heartbeat, so a supervisor sees
 * progress inside a long batch. Nothing interrupts
 * in-process compute: a kill mid-batch lets the batch finish and then
 * answers WorkerDown. The ShardState pointers are immutable after
 * construction; route new mutable state through a mutex or an atomic
 * (the thread-safety analysis gate is on the clang CI leg), and keep
 * serveRequest safe on two threads at once.
 */

#ifndef EXMA_TRANSPORT_SHARD_WORKER_HH
#define EXMA_TRANSPORT_SHARD_WORKER_HH

#include <string>

#include "transport/transport.hh"
#include "transport/worker_core.hh"

namespace exma {

class ShardWorker final : public Transport
{
  public:
    /**
     * @param name   stable worker name; also the fault-injection site
     *               ("<shard>/r<i>" in a ReplicaSet).
     * @param state  the shard's table or scan text (borrowed;
     *               must outlive the worker).
     */
    ShardWorker(std::string name, ShardState state);

    /** Stops the lane; an in-flight batch finishes, then answers
     *  WorkerDown. */
    ~ShardWorker() override;

  private:
    WorkerResponse serveRequest(const WorkerRequest &req) override;

    const ShardState state_;
};

} // namespace exma

#endif // EXMA_TRANSPORT_SHARD_WORKER_HH
