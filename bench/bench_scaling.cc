/**
 * @file
 * Scaling of the batched search front end, two axes:
 *
 *  - threads (the serving-side analogue of Fig. 18's query-level
 *    parallelism): Mbases/s of BatchSearcher over the human dataset at
 *    1, 2, 4, ..., hardware_concurrency threads, against the
 *    sequential ExmaTable::search loop as the 1-thread reference,
 *    verified bit-identical at every width;
 *
 *  - shards (the paper's multi-channel scale-out, §V): the same batch
 *    served through a ShardRouter over a kmerPrefix plan at the shard
 *    counts in EXMA_SHARDS (default 1,2,4,8), so every query runs on
 *    the one shard owning its prefix — in process, then across
 *    exma-worker child processes, then over replicated shards — with
 *    every hit set verified against the monolithic table.
 */

#include "bench_util.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <thread>

#include "batch/batch_searcher.hh"
#include "common/thread_pool.hh"
#include "io/format.hh"
#include "persist/index_io.hh"
#include "route/shard_router.hh"

using namespace exma;

namespace {

/** EXMA_SHARDS: comma-separated shard counts to sweep (default 1,2,4,8). */
std::vector<unsigned>
shardSweep()
{
    std::vector<unsigned> counts;
    // NOLINTNEXTLINE(concurrency-mt-unsafe): read once at startup,
    // before any worker thread exists; nothing writes the env.
    const char *env = std::getenv("EXMA_SHARDS");
    std::string spec = env && *env ? env : "1,2,4,8";
    size_t pos = 0;
    while (pos < spec.size()) {
        const size_t comma = spec.find(',', pos);
        const std::string tok =
            spec.substr(pos, comma == std::string::npos ? std::string::npos
                                                        : comma - pos);
        const long v = std::atol(tok.c_str());
        if (v > 0)
            counts.push_back(static_cast<unsigned>(v));
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    if (counts.empty())
        counts = {1, 2, 4, 8};
    return counts;
}

/**
 * Says on stderr why a served batch failed its differential check: a
 * degraded answer (queries no replica could serve) is not a wrong one,
 * so the message names the degraded count or the diverging hits. The
 * caller exits non-zero either way.
 */
void
reportMismatch(const std::string &tier, const RoutedResult &r,
               const std::string &where)
{
    if (r.degraded_queries != 0)
        std::cerr << "FATAL: " << tier << " serving degraded "
                  << r.degraded_queries << " of " << r.hits.size()
                  << " queries at " << where << "\n";
    else
        std::cerr << "FATAL: " << tier << " hit set diverges from the "
                  << "single-table reference at " << where << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    bench::init(argc, argv);
    bench::banner("Scaling", "batched search throughput vs thread count "
                             "(human dataset)");

    const Dataset &ds = bench::dataset("human");
    const ExmaTable &table = bench::exmaTable("human", OccIndexMode::Mtl);
    const u64 n_queries =
        std::max<u64>(256, static_cast<u64>(4000.0 * bench::scale()));
    const auto queries = bench::patterns(ds, n_queries);

    // Sequential reference (and correctness baseline).
    BatchConfig seq_cfg;
    seq_cfg.threads = 1;
    const BatchResult seq = BatchSearcher(table, seq_cfg).search(queries);

    const unsigned hw = hardwareThreads();
    std::vector<unsigned> widths{1};
    for (unsigned w = 2; w < hw; w *= 2)
        widths.push_back(w);
    if (hw > 1)
        widths.push_back(hw);

    TextTable t;
    t.header({"threads", "Mbases/s", "speedup", "kstep_iters", "match"});
    double base_mbases = 0.0;
    for (unsigned w : widths) {
        BatchConfig cfg;
        cfg.threads = w;
        // Best-of-3 to de-noise the wall-clock measurement.
        BatchResult best;
        for (int rep = 0; rep < 3; ++rep) {
            BatchResult r = BatchSearcher(table, cfg).search(queries);
            if (rep == 0 || r.seconds < best.seconds)
                best = std::move(r);
        }
        const bool match = best.intervals == seq.intervals &&
                           best.stats == seq.stats;
        const double mbases = best.mbasesPerSecond();
        if (w == 1)
            base_mbases = mbases;
        const double speedup = base_mbases > 0.0 ? mbases / base_mbases
                                                 : 0.0;
        bench::note("mbases_per_s_t" + std::to_string(w), mbases);
        t.row({std::to_string(w), TextTable::num(mbases, 2),
               TextTable::num(speedup, 2),
               std::to_string(best.stats.kstep_iterations),
               match ? "yes" : "NO"});
        if (!match) {
            std::cerr << "FATAL: batched results diverge from the "
                         "sequential reference at "
                      << w << " threads\n";
            return 1;
        }
    }
    bench::printTable(t);
    std::cout << "\n(" << n_queries << " queries of "
              << (queries.empty() ? 0 : queries[0].size())
              << " bp; hardware_concurrency=" << hw
              << ". The paper's accelerator gets its throughput from "
                 "query-level parallelism — this is the CPU analogue.)\n";

    const u64 query_len = queries.empty() ? 101 : queries[0].size();

    // Single-table ground truth: located, sorted hit set per query.
    std::vector<std::vector<u64>> expect_hits;
    expect_hits.reserve(queries.size());
    for (const auto &q : queries) {
        auto hits = table.locateAll(table.search(q));
        std::sort(hits.begin(), hits.end());
        expect_hits.push_back(std::move(hits));
    }

    // ------------------------------------------------------------------
    // Routed sweep: the same batch through a ShardRouter over a
    // kmerPrefix plan. Every query executes on the single shard owning
    // its prefix (its worker's dedicated thread), so per-query work
    // stays constant as shards grow.
    // ------------------------------------------------------------------
    bench::banner("Routed shard scaling",
                  "k-mer-prefix routing vs shard count (human dataset)");

    TextTable rt;
    rt.header({"shards", "p", "build_s", "repl", "routed_MB/s", "hits",
               "match"});
    std::map<unsigned, double> routed_mbases;
    for (unsigned n_shards : shardSweep()) {
        const auto plan =
            ShardPlan::kmerPrefix(ds.ref, n_shards, query_len);
        RouterConfig rcfg;
        rcfg.table = bench::exmaConfig(ds, OccIndexMode::Mtl);
        const ShardRouter router(ds.ref, plan, rcfg);

        RoutedResult best;
        for (int rep = 0; rep < 3; ++rep) {
            RoutedResult r = router.search(queries);
            if (rep == 0 || r.seconds < best.seconds)
                best = std::move(r);
        }
        const bool match = best.hits == expect_hits;
        const double mbases = best.mbasesPerSecond();
        routed_mbases[n_shards] = mbases;
        // Replication factor: searchable bases over distinct shard
        // texts, each counted once. Prefix shards share one
        // whole-reference table, so this reads 1.0 at every N.
        const double repl = static_cast<double>(router.totalLocalBases()) /
                            static_cast<double>(ds.ref.size());
        bench::note("mbases_per_s_routed" + std::to_string(n_shards),
                    mbases);
        bench::note("build_s_routed" + std::to_string(n_shards),
                    router.buildSeconds());
        bench::note("replication_routed" + std::to_string(n_shards),
                    repl);
        rt.row({std::to_string(plan.size()),
                std::to_string(plan.prefixLen()),
                TextTable::num(router.buildSeconds(), 2),
                TextTable::num(repl, 2), TextTable::num(mbases, 2),
                std::to_string(best.totalHits()),
                match ? "yes" : "NO"});
        if (!match) {
            std::cerr << "FATAL: routed hit set diverges from the "
                         "single-table reference at "
                      << n_shards << " shards\n";
            return 1;
        }
    }
    bench::printTable(rt, "routed sweep");
    std::cout << "\n(All " << n_queries << " queries are >= the routing "
              << "prefix, so each runs on exactly one shard worker; "
                 "`repl` is searchable bases over distinct shard texts "
                 "per reference base — 1.0, since every prefix shard is "
                 "a lane over one shared table.)\n";

    // ------------------------------------------------------------------
    // Multi-process sweep: the same routed plans, but every shard is a
    // real exma-worker child process reached over the socket transport
    // — the paper's independently-addressed channels with actual
    // OS-level isolation. Hit sets must stay identical to the
    // monolith; the MB/s ratio against the in-process router is the
    // price of serialization + process hops.
    // ------------------------------------------------------------------
    bench::banner("Multi-process serving",
                  "routed serving via exma-worker child processes "
                  "(human dataset)");

    TextTable mt;
    mt.header({"workers", "p", "inproc_MB/s", "multiproc_MB/s", "ratio",
               "hits", "match"});
    double multiproc_peak = 0.0;
    for (unsigned n_shards : shardSweep()) {
        const auto plan =
            ShardPlan::kmerPrefix(ds.ref, n_shards, query_len);
        RouterConfig mcfg;
        mcfg.table = bench::exmaConfig(ds, OccIndexMode::Mtl);
        mcfg.transport.kind = TransportKind::Socket;
        const ShardRouter router(ds.ref, plan, mcfg);

        RoutedResult best;
        for (int rep = 0; rep < 3; ++rep) {
            RoutedResult r = router.search(queries);
            if (rep == 0 || r.seconds < best.seconds)
                best = std::move(r);
        }
        const bool match =
            best.hits == expect_hits && best.degraded_queries == 0;
        const double mbases = best.mbasesPerSecond();
        multiproc_peak = std::max(multiproc_peak, mbases);
        const double inproc = routed_mbases.count(n_shards)
                                  ? routed_mbases[n_shards]
                                  : 0.0;
        bench::note("mbases_per_s_multiproc" + std::to_string(n_shards),
                    mbases);
        mt.row({std::to_string(plan.size()),
                std::to_string(plan.prefixLen()),
                TextTable::num(inproc, 2), TextTable::num(mbases, 2),
                TextTable::num(inproc > 0.0 ? mbases / inproc : 0.0, 2),
                std::to_string(best.totalHits()),
                match ? "yes" : "NO"});
        if (!match) {
            reportMismatch("multi-process", best,
                           std::to_string(n_shards) + " workers");
            return 1;
        }
    }
    bench::note("mbases_per_s_multiproc", multiproc_peak);
    bench::printTable(mt, "multi-process sweep");
    std::cout << "\n(Each shard's replica is a separate exma-worker "
                 "process mmap-loading its persisted shard files; "
                 "queries travel as 2-bit-packed, canary-stamped "
                 "frames over Unix sockets. `ratio` is multi-process "
                 "over in-process routed throughput at the same shard "
                 "count.)\n";

    // ------------------------------------------------------------------
    // Replicated serving: the routed tier with R=2 replicas per shard
    // and the supervisor running. Throughput must hold up (same
    // differential check), and killing a replica must be absorbed:
    // failover_recovery_ms is the worst observed time from a kill to
    // the supervisor respawning the corpse plus a clean probe serve.
    // ------------------------------------------------------------------
    bench::banner("Replicated serving",
                  "R=2 replica tier: throughput and kill-to-recovery "
                  "(human dataset)");

    const unsigned repl_shards = std::min<unsigned>(shardSweep().back(), 4);
    const auto repl_plan =
        ShardPlan::kmerPrefix(ds.ref, repl_shards, query_len);
    RouterConfig repl_cfg;
    repl_cfg.table = bench::exmaConfig(ds, OccIndexMode::Mtl);
    repl_cfg.failover.replicas = 2;
    repl_cfg.failover.supervisor_interval_ms = 5;
    repl_cfg.failover.retry_backoff_ms = 1;
    const ShardRouter replicated(ds.ref, repl_plan, repl_cfg);

    RoutedResult repl_best;
    for (int rep = 0; rep < 3; ++rep) {
        RoutedResult r = replicated.search(queries);
        if (rep == 0 || r.seconds < repl_best.seconds)
            repl_best = std::move(r);
    }
    const bool repl_match = repl_best.hits == expect_hits &&
                            repl_best.degraded_queries == 0;
    const double repl_mbases = repl_best.mbasesPerSecond();
    bench::note("mbases_per_s_replicated", repl_mbases);
    if (!repl_match) {
        reportMismatch("replicated", repl_best,
                       std::to_string(repl_plan.size()) + " shards");
        return 1;
    }

    // Kill-to-recovery: a few rounds, worst case reported. Each round
    // kills one replica, waits for the supervisor to respawn it, then
    // requires one clean probe serve (no degraded queries, no failover
    // machinery fired).
    const std::vector<std::vector<Base>> probe(
        queries.begin(),
        queries.begin() +
            static_cast<std::ptrdiff_t>(std::min<size_t>(queries.size(), 8)));
    double recovery_ms = 0.0;
    for (unsigned round = 0; round < 3; ++round) {
        ReplicaSet &set =
            replicated.replicaSet(round % replicated.shardCount());
        const u64 respawns0 = set.respawns();
        const auto k0 = std::chrono::steady_clock::now();
        set.killReplica(round % 2);
        while (set.respawns() == respawns0)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        for (;;) {
            const RoutedResult r = replicated.search(probe);
            if (r.degraded_queries == 0 && r.failover == FailoverStats{})
                break;
        }
        const double ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - k0)
                .count();
        recovery_ms = std::max(recovery_ms, ms);
    }
    bench::note("failover_recovery_ms", recovery_ms);

    TextTable ft;
    ft.header({"shards", "replicas", "repl_MB/s", "recovery_ms", "match"});
    ft.row({std::to_string(repl_plan.size()), "2",
            TextTable::num(repl_mbases, 2), TextTable::num(recovery_ms, 1),
            repl_match ? "yes" : "NO"});
    bench::printTable(ft, "replicated serving");
    std::cout << "\n(Each shard served by 2 workers behind "
                 "power-of-two-choices; `recovery_ms` is the worst of 3 "
                 "kill rounds — supervisor respawn plus one clean probe "
                 "batch. The soak variant lives in bench_failover.)\n";

    // ------------------------------------------------------------------
    // Index persistence: save a 1-shard kmerPrefix router over an
    // Exact table (the index `exma-index build` writes by default)
    // once, mmap-load it back, and record load-vs-build cost against
    // the Exact build the load replaces. With EXMA_INDEX_DIR naming an
    // already-populated directory (CI restores one from cache), the
    // build and save are skipped and the bench measures the load path
    // alone — starting a worker from files instead of rebuilding.
    // ------------------------------------------------------------------
    bench::banner("Index persistence",
                  "persistent .exma.* save + mmap load (human dataset)");

    const double table_build_s =
        bench::exmaBuildSeconds("human", OccIndexMode::Exact);
    // NOLINTNEXTLINE(concurrency-mt-unsafe): read once; nothing writes.
    const char *index_env = std::getenv("EXMA_INDEX_DIR");
    const std::string index_dir =
        index_env && *index_env ? index_env : "bench_scaling_index";
    double index_save_s = 0.0;
    if (!std::filesystem::exists(std::filesystem::path(index_dir) /
                                 kManifestName)) {
        RouterConfig icfg;
        icfg.table = bench::exmaConfig(ds, OccIndexMode::Exact);
        const ShardRouter router(
            ds.ref, ShardPlan::kmerPrefix(ds.ref, 1, query_len), icfg);
        const auto t0 = std::chrono::steady_clock::now();
        saveIndex(router, index_dir);
        index_save_s = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
    }
    const LoadedIndex loaded = loadIndex(index_dir);
    const double index_load_s = loaded.load_seconds;
    const double load_ratio =
        table_build_s > 0.0 ? index_load_s / table_build_s : 0.0;

    // Differential: the loaded index must serve the ground-truth hit
    // set of the freshly built table.
    const bool load_match =
        loaded.router->search(queries).hits == expect_hits;

    bench::note("table_build_s", table_build_s);
    bench::note("index_save_s", index_save_s);
    bench::note("index_load_s", index_load_s);
    bench::note("index_load_ratio", load_ratio);
    TextTable it;
    it.header({"table_build_s", "index_save_s", "index_load_s", "ratio",
               "match"});
    it.row({TextTable::num(table_build_s, 3),
            TextTable::num(index_save_s, 3),
            TextTable::num(index_load_s, 4),
            TextTable::num(load_ratio, 4), load_match ? "yes" : "NO"});
    bench::printTable(it, "index persistence");
    std::cout << "\n(Index at " << index_dir
              << (index_save_s > 0.0 ? " — written by this run"
                                     : " — pre-existing, save skipped")
              << "; `ratio` is mmap-load over the in-memory Exact "
                 "build it replaces, the restart-cost saving the "
                 "persistent format buys.)\n";
    if (!load_match) {
        std::cerr << "FATAL: the mmap-loaded index diverges from the "
                     "freshly built table\n";
        return 1;
    }
    return 0;
}
