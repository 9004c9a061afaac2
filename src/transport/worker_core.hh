/**
 * @file
 * The shard-serving compute, factored out of the transport layer so
 * the in-process ShardWorker and the out-of-process exma-worker
 * binary run the *same* code on a request — which is what makes the
 * socket path differentially testable against the inbox path.
 *
 * A ShardState is one shard's immutable serving state: a
 * segment-mapped ExmaTable, or an extracted scan reference plus its
 * segment map (shards too small to index), or neither (an empty
 * shard, which answers every query with no hits).
 */

#ifndef EXMA_TRANSPORT_WORKER_CORE_HH
#define EXMA_TRANSPORT_WORKER_CORE_HH

#include <functional>
#include <string>
#include <vector>

#include "core/exma_table.hh"
#include "transport/transport.hh"

namespace exma {

/** One shard's immutable serving state (pointers are borrowed). */
struct ShardState
{
    /** Segment-mapped table, or null when the shard is too small. */
    const ExmaTable *table = nullptr;
    /** Extracted local reference for table-less shards, or null. */
    const std::vector<Base> *scan_ref = nullptr;
    /** Segment map; may be null only for an empty shard. */
    const std::vector<TextSegment> *segments = nullptr;
};

/** Asserts the table/scan_ref/segments combination is coherent. */
void validateShardState(const std::string &name, const ShardState &st);

/**
 * Serve @p req against @p st: search (or scan) every query in the
 * batch and return global hit positions index-aligned with the
 * request ids, with the canary stamped. A compute exception becomes a
 * Failed response carrying its message — the same answer in process
 * and across the wire. @p progress ticks per processed chunk — both
 * sides turn it into heartbeats so a supervisor can tell a slow batch
 * from a hung worker.
 */
WorkerResponse serveShardRequest(const ShardState &st,
                                 const WorkerRequest &req,
                                 const std::function<void()> &progress);

} // namespace exma

#endif // EXMA_TRANSPORT_WORKER_CORE_HH
