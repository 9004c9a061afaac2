/**
 * @file
 * The in-process Transport: a ShardWorker answers each request on its
 * lane thread by running serveShardRequest against its ShardState —
 * the same compute the out-of-process exma-worker binary runs, which
 * is what makes this worker the differential oracle for the socket
 * transport. Requests carry a QueryBatchView borrowed zero-copy from
 * the router's batch. The lane itself (inbox, fault dispatch,
 * liveness, the completion contract) is Transport's; see
 * transport.hh.
 *
 * Every compute chunk (BatchConfig::progress) ticks the heartbeat, so
 * a supervisor sees chunk-granular progress. Nothing interrupts
 * in-process compute: a kill mid-batch lets the batch finish and then
 * answers WorkerDown. The ShardState pointers are immutable after
 * construction; route new mutable state through a mutex or an atomic
 * (the thread-safety analysis gate is on the clang CI leg).
 */

#ifndef EXMA_TRANSPORT_SHARD_WORKER_HH
#define EXMA_TRANSPORT_SHARD_WORKER_HH

#include <string>
#include <vector>

#include "transport/transport.hh"
#include "transport/worker_core.hh"

namespace exma {

class ShardWorker final : public Transport
{
  public:
    /**
     * @param name      stable worker name; also the fault-injection
     *                  site ("<shard>/r<i>" in a ReplicaSet).
     * @param table     the shard's segment-mapped ExmaTable, or null
     *                  when the shard is too small to index.
     * @param scan_ref  extracted local reference for table-less shards
     *                  (served by direct scanning), or null.
     * @param segments  the shard's segment map; may be empty/null only
     *                  with both @p table and @p scan_ref null — an
     *                  empty shard, which answers every query with no
     *                  hits.
     */
    ShardWorker(std::string name, const ExmaTable *table,
                const std::vector<Base> *scan_ref,
                const std::vector<TextSegment> *segments);

    /** Stops the lane; an in-flight batch finishes, then answers
     *  WorkerDown. */
    ~ShardWorker() override;

  private:
    WorkerResponse serveRequest(const WorkerRequest &req) override;

    const ShardState state_;
};

} // namespace exma

#endif // EXMA_TRANSPORT_SHARD_WORKER_HH
