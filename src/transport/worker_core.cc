#include "transport/worker_core.hh"

#include <algorithm>
#include <chrono>
#include <exception>

#include "common/logging.hh"

namespace exma {
namespace {

void
scanQuery(const ShardState &st, const std::vector<Base> &query,
          std::vector<u64> &hits)
{
    // Tiny shards are not worth an ExmaTable: scan each segment
    // directly. A match must fit inside one segment, which the
    // per-segment search range enforces by construction; segments
    // ascend in both coordinate spaces, so hits come out sorted.
    for (const TextSegment &seg : *st.segments) {
        if (seg.length < query.size())
            continue;
        const auto begin = st.scan_ref->begin() +
                           static_cast<std::ptrdiff_t>(seg.local_begin);
        const auto end = begin + static_cast<std::ptrdiff_t>(seg.length);
        for (auto it = std::search(begin, end, query.begin(), query.end());
             it != end;
             it = std::search(it + 1, end, query.begin(), query.end()))
            hits.push_back(seg.global_begin + static_cast<u64>(it - begin));
    }
}

/** Search (or scan) every query; hits index-aligned with the ids. */
WorkerResponse
searchShard(const ShardState &st, const WorkerRequest &req,
            const std::function<void()> &progress)
{
    WorkerResponse out;
    out.ids = req.batch.ids();

    if (st.table) {
        BatchConfig cfg = req.cfg;
        cfg.threads = 1; // the worker thread IS the execution lane
        cfg.locate = true;
        cfg.per_query_stats = false;
        // Caps are the router's job, applied after the cross-shard
        // merge; a per-shard cap would keep a shard-dependent subset.
        cfg.locate_limit = 0;
        // Chunk-granular liveness: the supervisor reads this to tell
        // "slow batch" from "hung worker".
        cfg.progress = progress;
        BatchResult br = BatchSearcher(*st.table, cfg)
                             .search(req.batch.storage(),
                                     req.batch.storageIds());
        out.hits = std::move(br.positions);
        out.stats = br.stats;
    } else {
        out.hits.resize(req.batch.size());
        if (st.scan_ref) {
            for (size_t j = 0; j < req.batch.size(); ++j) {
                scanQuery(st, req.batch.query(j), out.hits[j]);
                if (progress)
                    progress();
            }
        }
        // Empty shard: its prefix range has no occurrences, so no
        // query routed here can match — every response is hitless.
    }
    return out;
}

} // namespace

void
validateShardState(const std::string &name, const ShardState &st)
{
    exma_assert(!(st.table && st.scan_ref),
                "worker '%s' got both a table and a scan reference",
                name.c_str());
    if (st.table)
        exma_assert(st.table->segmented(),
                    "worker '%s' needs a segment-mapped table to "
                    "translate hits into global coordinates",
                    name.c_str());
    if (st.scan_ref) {
        exma_assert(st.segments && !st.segments->empty(),
                    "worker '%s' scans but has no segment map",
                    name.c_str());
        exma_assert(st.scan_ref->size() ==
                        segmentsLocalLength(*st.segments),
                    "worker '%s': scan reference holds %zu bases but "
                    "the segment map covers %llu",
                    name.c_str(), st.scan_ref->size(),
                    (unsigned long long)segmentsLocalLength(*st.segments));
    }
}

WorkerResponse
serveShardRequest(const ShardState &st, const WorkerRequest &req,
                  const std::function<void()> &progress)
{
    const auto t0 = std::chrono::steady_clock::now();
    WorkerResponse out;
    try {
        out = searchShard(st, req, progress);
    } catch (const std::exception &e) {
        // Compute threw: a typed Failed response, never an exception
        // across the seam.
        out.status = WorkerStatus::Failed;
        out.error = e.what();
        out.ids = req.batch.ids();
        return out;
    }
    out.canary = responseCanary(out);

    const auto t1 = std::chrono::steady_clock::now();
    out.seconds = std::chrono::duration<double>(t1 - t0).count();
    return out;
}

} // namespace exma
