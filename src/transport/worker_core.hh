/**
 * @file
 * The shard-serving compute, factored out of the transport layer so
 * the in-process ShardWorker and the out-of-process exma-worker
 * binary run the *same* code on a request — which is what makes the
 * socket path differentially testable against the inbox path.
 *
 * A ShardState is one shard's immutable serving state: an ExmaTable
 * over the shard's slice, or the slice's text plus its global offset
 * (shards too small to index, served by scanning), or neither (an
 * empty state, which answers every query with no hits; only
 * `exma-worker --state empty` still builds one, and no router does).
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
    /** The table over the shard's slice, or null when it is too small. */
    const ExmaTable *table = nullptr;
    /** The slice's text for table-less shards, or null. */
    const std::vector<Base> *scan_ref = nullptr;
    /** Global position of scan_ref's first base. */
    u64 scan_begin = 0;
};

/** Asserts the table/scan_ref combination is coherent. */
void validateShardState(const std::string &name, const ShardState &st);

/**
 * Serve @p req against @p st: search (or scan) every query in the
 * batch and return global hit positions index-aligned with the
 * request ids, with the canary stamped. A compute exception becomes a
 * Failed response carrying its message — the same answer in process
 * and across the wire — and so does a batch holding an empty query.
 * @p progress ticks per processed chunk — both sides turn it into
 * heartbeats so a supervisor can tell a slow batch from a hung
 * worker.
 */
WorkerResponse serveShardRequest(const ShardState &st,
                                 const WorkerRequest &req,
                                 const std::function<void()> &progress);

} // namespace exma

#endif // EXMA_TRANSPORT_WORKER_CORE_HH
