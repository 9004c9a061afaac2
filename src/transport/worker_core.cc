#include "transport/worker_core.hh"

#include <algorithm>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <string>

#include "common/logging.hh"

namespace exma {
namespace {

void
scanQuery(const ShardState &st, const std::vector<Base> &query,
          std::vector<u64> &hits)
{
    // Tiny shards are not worth an ExmaTable: scan the slice directly.
    // Matches come out in ascending order.
    const std::vector<Base> &text = *st.scan_ref;
    for (auto it = std::search(text.begin(), text.end(), query.begin(),
                               query.end());
         it != text.end();
         it = std::search(it + 1, text.end(), query.begin(), query.end()))
        hits.push_back(st.scan_begin + static_cast<u64>(it - text.begin()));
}

/** Search (or scan) every query; hits index-aligned with the ids. */
WorkerResponse
searchShard(const ShardState &st, const WorkerRequest &req,
            const std::function<void()> &progress)
{
    WorkerResponse out;
    out.ids = req.batch.ids();
    // An empty pattern matches at every position (one past the last
    // base included); the router never sends one, so refuse it here
    // for every state rather than answer it.
    for (size_t j = 0; j < req.batch.size(); ++j)
        if (req.batch.query(j).empty())
            throw std::invalid_argument(
                "query " + std::to_string(out.ids[j]) + " is empty");

    if (st.table) {
        // A fresh config: nothing a request carries shapes a lane's
        // search. The lane locates every hit: the cap is the router's
        // job, applied once after the cross-shard merge.
        BatchConfig cfg;
        cfg.threads = 1; // the worker thread IS the execution lane
        cfg.locate = true;
        // Liveness per kLaneSlice queries and per kLaneSlice located
        // rows: the supervisor reads this to tell "slow batch" from
        // "hung worker".
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
        // Empty state: no text, so every response is hitless.
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
