#include "route/shard_router.hh"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <string_view>
#include <utility>

#include "common/logging.hh"
#include "common/thread_annotations.hh"
#include "common/thread_pool.hh"
#include "fault/fault_injector.hh"
#include "io/table_io.hh"
#include "transport/shard_worker.hh"
#include "transport/socket_transport.hh"

namespace exma {

namespace {

using Clock = std::chrono::steady_clock;

/** Queries per chunk of the merge's dedup/cap pass, at full pool width. */
constexpr u64 kDedupGrain = 16;

void
checkQueries(const ShardPlan &plan,
             const std::vector<std::vector<Base>> &queries)
{
    exma_assert(queries.size() <= ~u32{0},
                "batch of %zu queries exceeds the u32 routing id space",
                queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
        const auto &q = queries[i];
        exma_assert(!q.empty(), "routed search: empty query");
        if (plan.boundsQueries())
            exma_assert(q.size() <= plan.maxQueryLen(),
                        "routed search: %zu-base query exceeds the "
                        "plan's max_query_len of %llu — re-plan with a "
                        "larger max_query_len",
                        q.size(),
                        (unsigned long long)plan.maxQueryLen());
        // Codes 0..3 only: a larger code would alias a base in a k-mer
        // and read past a rank block's checkpoints in a 1-step, and the
        // wire cannot frame it. The OR of valid codes stays <= 3.
        Base any = 0;
        for (const Base b : q)
            any |= b;
        exma_assert(any <= 3,
                    "routed search: query %zu holds base code %u; bases "
                    "must be coded 0..3 (A, C, G, T)",
                    i,
                    (unsigned)*std::find_if(q.begin(), q.end(),
                                            [](Base b) { return b > 3; }));
    }
}

TransportKind
resolveTransportKind(TransportKind kind)
{
    if (kind != TransportKind::Auto)
        return kind;
    const char *env = std::getenv("EXMA_TRANSPORT");
    if (env == nullptr || *env == '\0')
        return TransportKind::InProcess;
    const std::string_view v(env);
    if (v == "socket")
        return TransportKind::Socket;
    if (v != "inproc")
        exma_warn("EXMA_TRANSPORT='%s' is not 'socket' or 'inproc' — "
                  "serving in-process",
                  env);
    return TransportKind::InProcess;
}

/** One shard's slice of the batch, across however many attempts its
 *  resolution takes. */
struct ShardCall
{
    size_t shard = 0;
    std::vector<u32> ids; ///< kept for resubmission
    std::shared_ptr<Transport> last; ///< the latest attempt's replica
    unsigned in_flight = 0; ///< attempts whose response is still out
    unsigned retries = 0;
    bool hedged = false;
    bool done = false; ///< answered, or out of retries
    bool ok = false;   ///< resp holds the accepted, verified response
    WorkerResponse resp;
    /** The next due time: a retry while no attempt is in flight, else
     *  a hedge; max when neither is pending. */
    Clock::time_point due = Clock::time_point::max();
};

/**
 * One search's completion queue: every attempt's completion pushes its
 * response here, tagged with its shard call's index, and the gather
 * loop sleeps on it. The completions share ownership, so an attempt
 * that outlives its search (a hedge loser, a call abandoned at the
 * deadline) still lands somewhere — with the batch copy it reads from.
 * The queue never owns a Transport: a replica would then own itself
 * through its own inbox.
 */
struct CompletionQueue
{
    Mutex mtx;
    CondVar cv;
    std::vector<std::pair<size_t, WorkerResponse>> ready
        EXMA_GUARDED_BY(mtx);
    /** The batch attempts read when they may outlive the search. */
    std::vector<std::vector<Base>> queries;

    void
    push(size_t call, WorkerResponse r)
    {
        {
            MutexLock lock(mtx);
            ready.emplace_back(call, std::move(r));
        }
        cv.notify_one();
    }

    /** Wait until a response is ready or @p wake passes, then take
     *  every ready response. */
    std::vector<std::pair<size_t, WorkerResponse>>
    takeUntil(Clock::time_point wake)
    {
        MutexLock lock(mtx);
        while (ready.empty()) {
            if (wake == Clock::time_point::max())
                cv.wait(lock); // nothing is due: only a response wakes us
            else if (cv.wait_until(lock, wake) == std::cv_status::timeout)
                break;
        }
        return std::exchange(ready, {});
    }
};

} // namespace

ShardRouter::ShardRouter(const std::vector<Base> &ref, const ShardPlan &plan,
                         const RouterConfig &cfg)
    : plan_(plan), cfg_(cfg)
{
    installFaultInjectorFromEnvOnce();
    exma_assert(plan_.size() > 0, "shard plan holds no shards");
    exma_assert(plan_.refLength() == ref.size(),
                "shard plan covers %llu bases but the reference holds "
                "%zu",
                (unsigned long long)plan_.refLength(), ref.size());

    // One table (or scan text) per distinct slice, built at the first
    // shard that has it: every shard of a prefix plan shares shard 0's.
    const size_t n_shards = plan_.size();
    tables_.resize(n_shards);
    scan_refs_.resize(n_shards);
    const auto t0 = Clock::now();
    parallelFor(n_shards, 1, [&](u64 begin, u64 end, unsigned) {
        for (u64 s = begin; s < end; ++s) {
            if (plan_.textOf(s) != s)
                continue;
            const TextSegment slice = plan_.sliceOf(s);
            if (cfg_.indexesSlice(slice))
                tables_[s] = std::make_unique<ExmaTable>(ref, slice,
                                                         cfg_.table);
            else
                scan_refs_[s] = extractSegment(ref, slice);
        }
    });
    const auto t1 = Clock::now();
    build_seconds_ = std::chrono::duration<double>(t1 - t0).count();

    spawnReplicas();
}

ShardRouter::ShardRouter(ShardPlan plan, RouterConfig cfg,
                         std::vector<std::unique_ptr<ExmaTable>> tables,
                         std::vector<std::vector<Base>> scan_refs,
                         double load_seconds)
    : plan_(std::move(plan)), cfg_(std::move(cfg)),
      tables_(std::move(tables)), scan_refs_(std::move(scan_refs)),
      build_seconds_(load_seconds)
{
    installFaultInjectorFromEnvOnce();
    const size_t n_shards = plan_.size();
    exma_assert(n_shards > 0, "shard plan holds no shards");
    exma_assert(tables_.size() == n_shards && scan_refs_.size() == n_shards,
                "adopted per-shard arrays disagree with the %zu-shard "
                "plan",
                n_shards);
    for (size_t s = 0; s < n_shards; ++s) {
        if (plan_.textOf(s) != s) {
            exma_assert(!tables_[s] && scan_refs_[s].empty(),
                        "shard %zu adopted a text it shares with shard "
                        "%zu",
                        s, plan_.textOf(s));
            continue;
        }
        const u64 length = plan_.sliceOf(s).length;
        if (tables_[s]) {
            exma_assert(scan_refs_[s].empty(),
                        "shard %zu adopted both a table and a scan ref",
                        s);
            exma_assert(tables_[s]->rows() == length + 1,
                        "adopted table for shard %zu covers %llu rows, "
                        "its slice holds %llu bases",
                        s, (unsigned long long)tables_[s]->rows(),
                        (unsigned long long)length);
        } else {
            exma_assert(scan_refs_[s].size() == length,
                        "adopted scan ref for shard %zu holds %zu "
                        "bases, its slice %llu",
                        s, scan_refs_[s].size(),
                        (unsigned long long)length);
        }
    }
    spawnReplicas();
}

ShardRouter::~ShardRouter()
{
    // Workers go first: socket children serve off mmaps of the shard
    // files, so the directory outlives every child reap. (POSIX would
    // keep removed-but-mapped files readable anyway; this just keeps
    // the teardown order honest.)
    supervisor_.reset();
    sets_.clear();
    if (!temp_dir_.empty()) {
        std::error_code ec;
        std::filesystem::remove_all(temp_dir_, ec);
        if (ec)
            exma_warn("router: failed to remove temp shard dir '%s': "
                      "%s",
                      temp_dir_.c_str(), ec.message().c_str());
    }
}

void
ShardRouter::prepareWorkerFiles()
{
    worker_binary_ = discoverWorkerBinary(cfg_.transport.worker_binary);
    if (!cfg_.transport.worker_dir.empty()) {
        // Shard files already on disk (a loaded index): the children
        // mmap the very same files the router loaded from.
        worker_dir_ = cfg_.transport.worker_dir;
        return;
    }
    // Built in memory: save the shards once into an owned temp
    // directory so children can mmap them; removed in the destructor.
    static std::atomic<u64> dir_seq{0};
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         ("exma-shards-" +
          std::to_string(static_cast<long long>(::getpid())) + "-" +
          std::to_string(dir_seq.fetch_add(1))))
            .string();
    std::filesystem::create_directories(dir);
    // Each distinct text once, at its first shard's stem, which the
    // workers of every shard sharing it load.
    for (size_t s = 0; s < plan_.size(); ++s) {
        if (tables_[s])
            saveTableFiles(*tables_[s], io_detail::shardStem(dir, s));
        else if (!scan_refs_[s].empty())
            saveScanFiles(scan_refs_[s], plan_.sliceOf(s),
                          io_detail::shardStem(dir, s));
    }
    worker_dir_ = dir;
    temp_dir_ = dir;
}

TransportFactory
ShardRouter::shardFactory(size_t s)
{
    const size_t text = plan_.textOf(s);
    const ExmaTable *table = tables_[text].get();
    if (transport_kind_ == TransportKind::InProcess) {
        const ShardState st{table, table ? nullptr : &scan_refs_[text],
                            plan_.sliceOf(s).global_begin};
        return [st](const std::string &name) -> std::shared_ptr<Transport> {
            return std::make_shared<ShardWorker>(name, st);
        };
    }
    SocketTransportConfig scfg;
    scfg.binary = worker_binary_;
    scfg.state = table ? "table" : "scan";
    scfg.stem = io_detail::shardStem(worker_dir_, text);
    const bool has_table = table != nullptr;
    return [scfg, has_table](const std::string &name)
               -> std::shared_ptr<Transport> {
        return std::make_shared<SocketTransport>(name, scfg, has_table,
                                                 false);
    };
}

void
ShardRouter::spawnReplicas()
{
    exma_assert(cfg_.failover.supervisor_interval_ms > 0,
                "failover.supervisor_interval_ms must be > 0: the "
                "supervisor is the only hang handler, and without it a "
                "hung replica would stall every call routed to it");
    transport_kind_ = resolveTransportKind(cfg_.transport.kind);
    if (transport_kind_ == TransportKind::Socket)
        prepareWorkerFiles();
    for (size_t s = 0; s < plan_.size(); ++s)
        sets_.push_back(std::make_unique<ReplicaSet>(
            plan_.shards()[s].name, shardFactory(s),
            cfg_.failover.replicas));
    std::vector<ReplicaSet *> raw;
    raw.reserve(sets_.size());
    for (const auto &set : sets_)
        raw.push_back(set.get());
    supervisor_ = std::make_unique<WorkerSupervisor>(
        std::move(raw),
        WorkerSupervisor::Config{cfg_.failover.supervisor_interval_ms,
                                 cfg_.failover.hang_timeout_ms});
}

u64
ShardRouter::totalLocalBases() const
{
    u64 n = 0;
    for (size_t s = 0; s < plan_.size(); ++s)
        if (plan_.textOf(s) == s)
            n += plan_.sliceOf(s).length;
    return n;
}

u64
ShardRouter::totalRows() const
{
    u64 rows = 0;
    for (const auto &t : tables_) // shards sharing a text hold null
        if (t)
            rows += t->rows();
    return rows;
}

RoutedResult
ShardRouter::search(const std::vector<std::vector<Base>> &queries,
                    u64 locate_limit) const
{
    checkQueries(plan_, queries);

    const FailoverConfig &fo = cfg_.failover;
    RoutedResult out;
    out.queries = queries.size();
    out.hits.resize(queries.size());
    out.degraded.assign(queries.size(), 0);
    out.per_shard.assign(sets_.size(), SearchStats{});
    for (const auto &q : queries)
        out.bases += q.size();

    const auto t0 = Clock::now();

    // Classify: one id list per shard. A prefix plan's shards all hold
    // the whole text, so each query goes to one of them — the owner of
    // the lowest code its padded prefix range holds. A text plan sends
    // every query to every shard.
    std::vector<std::vector<u32>> ids(sets_.size());
    if (plan_.kind() == ShardPlanKind::KmerPrefix) {
        for (size_t i = 0; i < queries.size(); ++i) {
            const PrefixRange r = plan_.queryPrefixRange(
                queries[i].data(), queries[i].size());
            ids[plan_.ownerOf(r.lo)].push_back(static_cast<u32>(i));
        }
        out.routed_queries = queries.size();
    } else {
        for (auto &shard_ids : ids)
            for (size_t i = 0; i < queries.size(); ++i)
                shard_ids.push_back(static_cast<u32>(i));
        if (sets_.size() == 1)
            out.routed_queries = queries.size();
        else
            out.broadcast_queries = queries.size();
    }

    u64 respawns_before = 0;
    for (const auto &set : sets_)
        respawns_before += set->respawns();

    // Fan out: every shard with work becomes one ShardCall submitted
    // to a P2C-picked replica; the replicas' dedicated threads (or
    // worker processes) run concurrently.
    std::vector<ShardCall> calls;
    calls.reserve(sets_.size());
    for (size_t s = 0; s < sets_.size(); ++s) {
        if (ids[s].empty())
            continue;
        ShardCall c;
        c.shard = s;
        c.ids = std::move(ids[s]);
        calls.push_back(std::move(c));
    }
    // An attempt outlives the search only when the deadline abandons
    // its call or a hedge leaves it running as the loser; only then
    // do attempts read a copy of the batch. Otherwise every attempt
    // has answered before search() returns, so they borrow the
    // caller's batch.
    const bool hedging = fo.hedge_ms > 0 && fo.replicas > 1;
    const bool outlives = fo.deadline_ms > 0 || hedging;
    const auto queue = std::make_shared<CompletionQueue>();
    if (outlives)
        queue->queries = queries;
    const auto &batch = outlives ? queue->queries : queries;
    // A lone in-process call whose attempts all answer before search()
    // returns runs each attempt on this thread: the caller would only
    // sleep until the lane answered, so serving here skips the inbox
    // wake and the completion wake. Its completion still lands in the
    // queue, so the gather below is the same either way.
    const bool here = !outlives && calls.size() == 1 &&
                      transport_kind_ == TransportKind::InProcess;
    // No lock is held here: a dead replica completes inside submit(),
    // and serveHere() completes before it returns.
    const auto submitTo = [&](size_t i, std::shared_ptr<Transport> w) {
        ShardCall &c = calls[i];
        ++c.in_flight;
        c.due = hedging && !c.hedged
                    ? Clock::now() + std::chrono::milliseconds(fo.hedge_ms)
                    : Clock::time_point::max();
        c.last = w;
        WorkerRequest req{QueryBatchView::borrow(batch, c.ids), {}};
        auto done = [queue, i](WorkerResponse r) {
            queue->push(i, std::move(r));
        };
        if (here)
            w->serveHere(std::move(req), std::move(done));
        else
            w->submit(std::move(req), std::move(done));
    };
    for (size_t i = 0; i < calls.size(); ++i)
        submitTo(i, sets_[calls[i].shard]->pick());

    // Gather with failover: sleep until a response arrives or the
    // earliest due time (the deadline, a hedge, a retry), then act on
    // what is ready. First verified Ok per call wins.
    const auto deadline =
        fo.deadline_ms > 0 ? t0 + std::chrono::milliseconds(fo.deadline_ms)
                           : Clock::time_point::max();
    size_t open = calls.size();
    while (open > 0) {
        Clock::time_point wake = deadline;
        for (const ShardCall &c : calls)
            if (!c.done)
                wake = std::min(wake, c.due);
        for (auto &[i, r] : queue->takeUntil(wake)) {
            ShardCall &c = calls[i];
            --c.in_flight;
            if (c.done)
                continue; // a hedge loser: one response per call merges
            if (r.ok() && responseCanary(r) == r.canary) {
                c.resp = std::move(r);
                c.done = c.ok = true;
                --open;
                continue;
            }
            switch (r.status) {
            case WorkerStatus::WorkerDown:
                ++out.failover.worker_down;
                break;
            case WorkerStatus::Failed:
                ++out.failover.failed;
                break;
            case WorkerStatus::Ok: // canary mismatch
                ++out.failover.corrupt;
                break;
            }
            if (c.in_flight > 0)
                continue; // the other attempt may still answer
            // Every attempt came back bad: retry on another replica
            // once the backoff has passed, or give up and degrade.
            if (c.retries >= fo.max_retries) {
                c.done = true;
                --open;
                continue;
            }
            const u64 backoff =
                fo.retry_backoff_ms ? fo.retry_backoff_ms << c.retries : 0;
            ++c.retries;
            ++out.failover.retries;
            c.due = Clock::now() + std::chrono::milliseconds(backoff);
        }

        const auto now = Clock::now();
        if (now >= deadline)
            break; // calls still open are abandoned: deadline misses
        for (size_t i = 0; i < calls.size(); ++i) {
            ShardCall &c = calls[i];
            if (c.done || now < c.due)
                continue;
            if (c.in_flight > 0) {
                // Straggler: duplicate on a second replica.
                c.hedged = true;
                ++out.failover.hedges;
            } else {
                // Retry: the backoff has passed.
                sets_[c.shard]->reviveDead();
            }
            submitTo(i, sets_[c.shard]->pickOther(c.last.get()));
        }
    }

    // Merge: a call without a verified response flags its queries
    // degraded; single-shard hits move straight in (already sorted and
    // duplicate-free within one shard); broadcast queries collect every
    // shard's hits and dedup below.
    for (ShardCall &c : calls) {
        if (!c.ok) {
            if (!c.done) // still open when the deadline passed
                ++out.failover.deadline_misses;
            for (const u32 id : c.ids)
                out.degraded[id] = 1;
            continue;
        }
        WorkerResponse &resp = c.resp;
        out.per_shard[c.shard] = resp.stats;
        for (size_t j = 0; j < resp.ids.size(); ++j) {
            auto &dst = out.hits[resp.ids[j]];
            if (dst.empty())
                dst = std::move(resp.hits[j]);
            else
                dst.insert(dst.end(), resp.hits[j].begin(),
                           resp.hits[j].end());
        }
    }
    for (const u8 d : out.degraded)
        out.degraded_queries += d;
    // Dedup/cap pass — skipped entirely when every query ran on one
    // shard and no cap applies (single-shard hits are already sorted
    // and duplicate-free), which is the routed fast path.
    const bool broadcast = out.broadcast_queries > 0;
    if (broadcast || locate_limit > 0) {
        parallelFor(queries.size(), kDedupGrain,
                    [&](u64 begin, u64 end, unsigned) {
                        for (u64 i = begin; i < end; ++i) {
                            auto &h = out.hits[i];
                            if (broadcast) {
                                std::sort(h.begin(), h.end());
                                h.erase(std::unique(h.begin(), h.end()),
                                        h.end());
                            }
                            if (locate_limit && h.size() > locate_limit)
                                h.resize(locate_limit);
                        }
                    });
    }
    const auto t1 = Clock::now();

    u64 respawns_after = 0;
    for (const auto &set : sets_)
        respawns_after += set->respawns();
    out.failover.respawns = respawns_after - respawns_before;

    out.seconds = std::chrono::duration<double>(t1 - t0).count();
    for (const SearchStats &s : out.per_shard)
        out.stats += s;
    return out;
}

std::vector<u64>
ShardRouter::findAll(const std::vector<Base> &query,
                     SearchStats *stats) const
{
    const RoutedResult r = search({query});
    if (stats)
        *stats += r.stats;
    return r.hits.empty() ? std::vector<u64>{} : r.hits[0];
}

} // namespace exma
