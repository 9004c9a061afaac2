#include "route/shard_router.hh"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <string_view>
#include <thread>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "fault/fault_injector.hh"
#include "io/table_io.hh"
#include "transport/shard_worker.hh"
#include "transport/socket_transport.hh"

namespace exma {

namespace {

using Clock = std::chrono::steady_clock;

void
checkQueries(const ShardPlan &plan,
             const std::vector<std::vector<Base>> &queries)
{
    exma_assert(queries.size() <= ~u32{0},
                "batch of %zu queries exceeds the u32 routing id space",
                queries.size());
    for (const auto &q : queries) {
        exma_assert(!q.empty(), "routed search: empty query");
        if (plan.boundsQueries())
            exma_assert(q.size() <= plan.maxQueryLen(),
                        "routed search: %zu-base query exceeds the "
                        "plan's max_query_len of %llu — matches could "
                        "run past a shard's context windows; re-plan "
                        "with a larger max_query_len",
                        q.size(),
                        (unsigned long long)plan.maxQueryLen());
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

/** One submission of a shard call to a specific replica. */
struct Attempt
{
    std::shared_ptr<Transport> worker;
    std::future<WorkerResponse> fut;
};

/** One shard's slice of the batch, across however many attempts its
 *  resolution takes. */
struct ShardCall
{
    size_t shard = 0;
    std::vector<u32> ids; ///< kept for resubmission
    std::vector<Attempt> attempts;
    unsigned retries = 0;
    bool hedged = false;
    bool done = false;
    bool failed = false; ///< done without a verified response
    WorkerResponse resp; ///< the accepted response iff !failed
    Clock::time_point last_submit;
};

bool
anyAttemptInFlight(const ShardCall &c)
{
    for (const Attempt &a : c.attempts)
        if (a.fut.valid())
            return true;
    return false;
}

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

    const size_t n_shards = plan_.size();
    tables_.resize(n_shards);
    scan_refs_.resize(n_shards);
    const auto t0 = Clock::now();
    parallelFor(
        n_shards, 1,
        [&](u64 begin, u64 end, unsigned) {
            for (u64 s = begin; s < end; ++s) {
                const auto &segs = plan_.segmentsOf(s);
                const u64 local = segmentsLocalLength(segs);
                if (local == 0)
                    continue; // empty prefix range: hitless worker
                if (local < cfg_.min_table_bases)
                    scan_refs_[s] = extractSegments(ref, segs);
                else
                    tables_[s] =
                        std::make_unique<ExmaTable>(ref, segs, cfg_.table);
            }
        },
        cfg_.build_threads);
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
        const u64 local = segmentsLocalLength(plan_.segmentsOf(s));
        if (tables_[s]) {
            exma_assert(scan_refs_[s].empty(),
                        "shard %zu adopted both a table and a scan ref",
                        s);
            exma_assert(tables_[s]->rows() == local + 1,
                        "adopted table for shard %zu covers %llu rows, "
                        "its segment map holds %llu bases",
                        s, (unsigned long long)tables_[s]->rows(),
                        (unsigned long long)local);
        } else {
            exma_assert(scan_refs_[s].size() == local,
                        "adopted scan ref for shard %zu holds %zu "
                        "bases, its segment map %llu",
                        s, scan_refs_[s].size(),
                        (unsigned long long)local);
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
    for (size_t s = 0; s < plan_.size(); ++s) {
        if (tables_[s])
            saveTableFiles(*tables_[s], io_detail::shardStem(dir, s));
        else if (!scan_refs_[s].empty())
            saveScanFiles(scan_refs_[s], plan_.segmentsOf(s),
                          io_detail::shardStem(dir, s));
    }
    worker_dir_ = dir;
    temp_dir_ = dir;
}

TransportFactory
ShardRouter::shardFactory(size_t s)
{
    if (transport_kind_ == TransportKind::InProcess) {
        const ExmaTable *table = tables_[s].get();
        const std::vector<Base> *scan =
            scan_refs_[s].empty() ? nullptr : &scan_refs_[s];
        const std::vector<TextSegment> *segs = &plan_.segmentsOf(s);
        return [table, scan,
                segs](const std::string &name) -> std::shared_ptr<Transport> {
            return std::make_shared<ShardWorker>(name, table, scan, segs);
        };
    }
    const bool has_table = tables_[s] != nullptr;
    const bool is_empty = !has_table && scan_refs_[s].empty();
    SocketTransportConfig scfg;
    scfg.binary = worker_binary_;
    scfg.state = has_table ? "table" : is_empty ? "empty" : "scan";
    if (!is_empty)
        scfg.stem = io_detail::shardStem(worker_dir_, s);
    return [scfg, has_table,
            is_empty](const std::string &name) -> std::shared_ptr<Transport> {
        return std::make_shared<SocketTransport>(name, scfg, has_table,
                                                 is_empty);
    };
}

void
ShardRouter::spawnReplicas()
{
    transport_kind_ = resolveTransportKind(cfg_.transport.kind);
    if (transport_kind_ == TransportKind::Socket)
        prepareWorkerFiles();
    for (size_t s = 0; s < plan_.size(); ++s)
        sets_.push_back(std::make_unique<ReplicaSet>(
            plan_.shards()[s].name, shardFactory(s),
            cfg_.failover.replicas));
    if (cfg_.failover.supervisor_interval_ms > 0) {
        std::vector<ReplicaSet *> raw;
        raw.reserve(sets_.size());
        for (const auto &set : sets_)
            raw.push_back(set.get());
        supervisor_ = std::make_unique<WorkerSupervisor>(
            std::move(raw),
            WorkerSupervisor::Config{cfg_.failover.supervisor_interval_ms,
                                     cfg_.failover.hang_timeout_ms});
    }
}

u64
ShardRouter::totalLocalBases() const
{
    u64 n = 0;
    for (size_t s = 0; s < plan_.size(); ++s)
        n += segmentsLocalLength(plan_.segmentsOf(s));
    return n;
}

u64
ShardRouter::totalRows() const
{
    u64 rows = 0;
    for (const auto &t : tables_)
        if (t)
            rows += t->rows();
    return rows;
}

RoutedResult
ShardRouter::search(const std::vector<std::vector<Base>> &queries,
                    const BatchConfig &cfg) const
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

    const bool broadcast_only =
        cfg_.force_broadcast || plan_.kind() != ShardPlanKind::KmerPrefix;

    const auto t0 = Clock::now();

    // Classify: one id list per shard, and per query the number of
    // shards serving it (hits from fan-out > 1 need deduplication).
    std::vector<std::vector<u32>> ids(sets_.size());
    std::vector<u8> fanout(queries.size(), 0);
    for (size_t i = 0; i < queries.size(); ++i) {
        size_t first = 0;
        size_t last = sets_.size() - 1;
        if (!broadcast_only) {
            const PrefixRange r = plan_.queryPrefixRange(
                queries[i].data(), queries[i].size());
            std::tie(first, last) = plan_.ownersOfRange(r.lo, r.hi);
        }
        for (size_t s = first; s <= last; ++s)
            ids[s].push_back(static_cast<u32>(i));
        const size_t n_owners = last - first + 1;
        fanout[i] = static_cast<u8>(std::min<size_t>(n_owners, 255));
        if (n_owners == 1)
            ++out.routed_queries;
        else
            ++out.broadcast_queries;
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
    const auto submitTo = [&queries, &cfg](ShardCall &c,
                                           std::shared_ptr<Transport> w) {
        Attempt at;
        at.fut =
            w->submit({QueryBatchView::borrow(queries, c.ids), cfg});
        at.worker = std::move(w);
        c.attempts.push_back(std::move(at));
        c.last_submit = Clock::now();
    };
    for (ShardCall &c : calls)
        submitTo(c, sets_[c.shard]->pick());

    // Gather with failover. Every future wait is bounded (wait_for);
    // a .get() only ever follows an observed ready state.
    const bool bounded = fo.deadline_ms > 0;
    const auto deadline = t0 + std::chrono::milliseconds(fo.deadline_ms);
    size_t open = calls.size();
    while (open > 0) {
        if (bounded && Clock::now() >= deadline) {
            for (ShardCall &c : calls) {
                if (c.done)
                    continue;
                c.done = true;
                c.failed = true;
                --open;
                ++out.failover.deadline_misses;
            }
            break;
        }

        bool progressed = false;
        for (ShardCall &c : calls) {
            if (c.done)
                continue;
            // Poll every in-flight attempt; first verified Ok wins.
            for (Attempt &at : c.attempts) {
                if (!at.fut.valid())
                    continue;
                if (at.fut.wait_for(std::chrono::seconds(0)) !=
                    std::future_status::ready)
                    continue;
                WorkerResponse r = at.fut.get();
                progressed = true;
                if (r.ok() && responseCanary(r) == r.canary) {
                    c.resp = std::move(r);
                    c.done = true;
                    --open;
                    break;
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
            }
            if (c.done)
                continue;

            if (!anyAttemptInFlight(c)) {
                // Every attempt came back bad: retry on another
                // replica, or give up and degrade.
                if (c.retries >= fo.max_retries) {
                    c.done = true;
                    c.failed = true;
                    --open;
                    continue;
                }
                const u64 backoff = fo.retry_backoff_ms
                                        ? fo.retry_backoff_ms
                                              << c.retries
                                        : 0;
                ++c.retries;
                ++out.failover.retries;
                if (backoff)
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(backoff));
                sets_[c.shard]->reviveDead();
                const Transport *last =
                    c.attempts.back().worker.get();
                submitTo(c, sets_[c.shard]->pickOther(last));
                progressed = true;
            } else if (fo.hedge_ms > 0 && !c.hedged &&
                       sets_[c.shard]->size() > 1 &&
                       Clock::now() - c.last_submit >=
                           std::chrono::milliseconds(fo.hedge_ms)) {
                // Straggler: duplicate on a second replica.
                c.hedged = true;
                ++out.failover.hedges;
                const Transport *primary =
                    c.attempts.back().worker.get();
                submitTo(c, sets_[c.shard]->pickOther(primary));
                progressed = true;
            }
        }

        if (open > 0 && !progressed) {
            // Nothing resolved this sweep: block briefly on one
            // in-flight future instead of spinning. The slice keeps
            // deadline/hedge checks responsive.
            for (ShardCall &c : calls) {
                if (c.done)
                    continue;
                bool waited = false;
                for (Attempt &at : c.attempts) {
                    if (!at.fut.valid())
                        continue;
                    at.fut.wait_for(std::chrono::milliseconds(2));
                    waited = true;
                    break;
                }
                if (waited)
                    break;
            }
        }
    }

    // Reap: every still-outstanding attempt (hedge losers, abandoned
    // deadline-missed calls) must resolve before we return — its
    // worker may still be reading the caller's query batch. A worker
    // that stays unresponsive past the hang timeout is killed, which
    // cancels injected sleeps and resolves its inbox as WorkerDown.
    for (ShardCall &c : calls) {
        for (Attempt &at : c.attempts) {
            if (!at.fut.valid())
                continue;
            u64 waited_ms = 0;
            while (at.fut.wait_for(std::chrono::milliseconds(10)) !=
                   std::future_status::ready) {
                waited_ms += 10;
                if (waited_ms >= fo.hang_timeout_ms)
                    at.worker->kill(); // idempotent
            }
            at.fut.get(); // discard the duplicate/late response
        }
        if (c.failed) {
            for (const u32 id : c.ids)
                out.degraded[id] = 1;
        }
    }
    for (const u8 d : out.degraded)
        out.degraded_queries += d;

    // Merge: single-owner hits move straight in (already sorted and
    // duplicate-free within one shard); fanned-out queries collect all
    // owners' hits and dedup below.
    for (ShardCall &c : calls) {
        if (c.failed)
            continue;
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
    // Dedup/cap pass — skipped entirely when every query ran on one
    // shard and no cap applies (single-shard hits are already sorted
    // and duplicate-free), which is the routed fast path.
    if (out.broadcast_queries > 0 || cfg.locate_limit > 0) {
        const u64 grain = std::max<u64>(cfg.grain, 1);
        parallelFor(
            queries.size(), grain,
            [&](u64 begin, u64 end, unsigned) {
                for (u64 i = begin; i < end; ++i) {
                    auto &h = out.hits[i];
                    if (fanout[i] > 1) {
                        std::sort(h.begin(), h.end());
                        h.erase(std::unique(h.begin(), h.end()),
                                h.end());
                    }
                    if (cfg.locate_limit && h.size() > cfg.locate_limit)
                        h.resize(cfg.locate_limit);
                }
            },
            cfg.threads);
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
