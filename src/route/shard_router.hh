/**
 * @file
 * Sharded serving: the one front end for every ShardPlan, built to
 * make shard count buy throughput instead of costing it — and to
 * survive the workers it buys it from.
 *
 * Broadcasting every query to every shard makes one core do
 * shard-count times the work per query. The ShardRouter instead serves
 * a kmerPrefix ShardPlan as lanes over one table: every shard's text
 * is the whole reference, so the router builds one ExmaTable (or scan
 * text) per distinct shard text and shares it across the shards that
 * have it, and a prefix plan holds exactly one whatever its shard
 * count. A query's first prefixLen() bases name its shard, so the
 * router classifies a batch by prefix, hands each shard's ReplicaSet
 * only the queries it owns, and merges the responses into sorted
 * global positions under a global locate_limit. A query shorter than
 * the routing prefix goes to the owner of the lowest code its padded
 * range holds: any owner can serve it, since every owner holds the
 * whole text.
 *
 * Transports (RouterConfig::transport): each replica is either an
 * in-process ShardWorker sharing the router's address space (the
 * default, and the differential oracle) or a SocketTransport speaking
 * the length-prefixed wire protocol to an out-of-process exma-worker
 * that mmap-loads the same shard files — the paper's per-channel
 * parallelism with real OS-level isolation. Index files hold no
 * learned model, so a worker's table resolves Occ exactly. In the
 * default Exact mode the two are bit-identical: same hits, same
 * stats, same canary. A router built in MTL or naive mode gets the
 * same hits from its workers, with Exact-mode stats.
 *
 * Fault tolerance (RouterConfig::failover): each prefix range is
 * served by an R-way ReplicaSet with power-of-two-choices routing, a
 * WorkerSupervisor — the one hang handler, always running — kills
 * hung replicas and respawns dead ones in the background, and
 * search() itself retries failed shard calls on a different replica
 * after a backoff, hedges stragglers, and — when a range stays down
 * past the per-request deadline — returns partial results with the
 * affected queries flagged in RoutedResult::degraded instead of
 * blocking. What fired is tallied in RoutedResult::failover.
 *
 * Gather: every attempt's completion pushes its response onto one
 * completion queue per search, and search() sleeps on that queue
 * until a response arrives or the next due time — the deadline, a
 * hedge, a retry — comes. Nothing polls and nothing sleeps out a
 * backoff, so a hedge returns on its winner and the deadline is the
 * deadline. An attempt still out when search() returns (a hedge
 * loser, a call abandoned at the deadline) lands in the queue later,
 * which its completion keeps alive; such attempts read a copy of the
 * batch, made only when a deadline or hedging is configured. Without
 * either, a search that makes exactly one in-process shard call (a
 * one-read request) serves each of that call's attempts on the
 * calling thread (Transport::serveHere), which would otherwise only
 * sleep until the lane answered: the response is in the queue before
 * the gather looks, and the search pays no thread handoff. A search
 * of two or more calls, a socket replica, and a deadline or hedged
 * search keep the lanes, so shard calls still run side by side and
 * the caller stays free to give up.
 *
 * Text-partitioned plans (fixedWidth, perRecord) have no routing
 * prefix and are the only plans served broadcast: each shard's table
 * covers one text slice, fixed-width overlaps let every match of up to
 * maxQueryLen() bases lie inside some shard, and the merge reports a
 * match found by two overlapping shards once.
 *
 * Thread-safety analysis: search() is const and keeps all cross-thread
 * traffic inside annotated machinery — requests ride the workers'
 * annotated inbox queues (or, for a lone in-process call, are served
 * on the caller), responses come back through the search's
 * annotated completion queue (never locked across a submit()), replica
 * swaps stay behind ReplicaSet's annotated mutex, and the merge writes
 * out.hits on the calling thread only (the dedup/cap parallelFor
 * touches disjoint queries per chunk). The router itself therefore has
 * no EXMA_GUARDED_BY state; new mutable members (e.g. a hot-k-mer
 * result cache) must bring an exma::Mutex and annotations.
 */

#ifndef EXMA_ROUTE_SHARD_ROUTER_HH
#define EXMA_ROUTE_SHARD_ROUTER_HH

#include <memory>
#include <string>
#include <vector>

#include "fault/failover_stats.hh"
#include "route/replica_set.hh"
#include "route/worker_supervisor.hh"
#include "shard/shard_plan.hh"

namespace exma {

/**
 * Replication and failover policy for the serving tier. Defaults are
 * the pre-replication behaviour: one replica, no deadline, but retries
 * enabled — even an R=1 router recovers from a killed worker by
 * reviving it and resubmitting.
 */
struct FailoverConfig
{
    /** Workers per shard. 1 = no redundancy (still self-healing). */
    unsigned replicas = 1;
    /**
     * Per-search wall-clock budget in ms; 0 = none. When it expires,
     * unresolved shard calls are abandoned and their queries come back
     * flagged degraded rather than blocking the caller; search()
     * returns at the deadline, not after its abandoned attempts.
     */
    u64 deadline_ms = 0;
    /** Resubmissions per shard call after a failed attempt. */
    unsigned max_retries = 2;
    /** First retry backoff in ms (doubles per retry; 0 = immediate).
     *  A due time for that call alone: other calls and the deadline
     *  keep running while it waits. */
    u64 retry_backoff_ms = 2;
    /**
     * Hedge threshold in ms; 0 = off. A shard call still unresolved
     * this long after submission is duplicated on a second replica and
     * the first Ok response wins (classic tail-at-scale hedging).
     */
    u64 hedge_ms = 0;
    /**
     * Supervisor sweep period in ms; must be > 0. The supervisor is
     * the only hang handler, so the router rejects 0 at construction.
     */
    u64 supervisor_interval_ms = 20;
    /**
     * A replica with queued work whose heartbeat stalls this long is
     * declared hung, killed, and respawned by the supervisor. A search
     * never waits on it: its deadline, not this timeout, bounds it.
     */
    u64 hang_timeout_ms = 1000;
};

/** How replicas execute shard requests. */
enum class TransportKind : u8
{
    /** EXMA_TRANSPORT env: "socket" → Socket, else InProcess. */
    Auto = 0,
    InProcess = 1, ///< ShardWorker threads in the router's process
    Socket = 2,    ///< exma-worker child processes over Unix sockets
};

/** Out-of-process serving knobs (all ignored for InProcess). */
struct TransportConfig
{
    TransportKind kind = TransportKind::Auto;
    /**
     * Directory already holding per-shard `shardNNNN.exma.*` files for
     * workers to mmap-load (set by loadIndex on routed directories).
     * Empty = the router saves each distinct shard text once into a
     * temp directory it owns for the workers' lifetime. Either way a
     * shard's workers load the stem of the first shard sharing its
     * text (ShardPlan::textOf).
     */
    std::string worker_dir;
    /**
     * exma-worker binary; empty = the build tree next to the running
     * binary, then $PATH.
     */
    std::string worker_binary;
};

struct RouterConfig
{
    /** Per-shard table configuration (same k for every shard). */
    ExmaTable::Config table;
    /**
     * Shards whose text is shorter than this are served by direct
     * scanning instead of an ExmaTable of their own.
     */
    u64 min_table_bases = ShardPlan::kMinShardBases;
    /** Replication / failover policy (see FailoverConfig). */
    FailoverConfig failover;
    /** Replica execution: in-process threads or worker processes. */
    TransportConfig transport;

    /**
     * Whether a shard over @p slice is served by an ExmaTable (else by
     * scanning its text): the one rule the router build and
     * loadIndex share, so an index directory needs no per-shard state.
     */
    bool indexesSlice(const TextSegment &slice) const
    {
        return slice.length >= min_table_bases;
    }
};

/** Outcome of one routed batch: index-aligned with the input queries. */
struct RoutedResult
{
    /** Per query: sorted, deduplicated global match positions. */
    std::vector<std::vector<u64>> hits;
    /**
     * Per query: 1 when at least one owner shard never produced a
     * verified response (all replicas down past the deadline/retry
     * budget), so hits[i] may be incomplete. Always all-zero when the
     * batch completed cleanly.
     */
    std::vector<u8> degraded;
    u64 degraded_queries = 0; ///< number of 1s in degraded
    SearchStats stats;                  ///< merged across all shards
    std::vector<SearchStats> per_shard; ///< one per shard, in plan order
    FailoverStats failover; ///< recovery machinery fired for this batch
    u64 queries = 0;
    u64 bases = 0;             ///< total query symbols searched
    u64 routed_queries = 0; ///< served by exactly one shard
    /** Served by two or more shards: only a text plan of two or more
     *  shards broadcasts, and then it broadcasts every query. */
    u64 broadcast_queries = 0;
    double seconds = 0.0;

    u64
    totalHits() const
    {
        u64 n = 0;
        for (const auto &h : hits)
            n += h.size();
        return n;
    }

    double
    mbasesPerSecond() const
    {
        return seconds > 0.0
                   ? static_cast<double>(bases) / seconds / 1e6
                   : 0.0;
    }
};

class ShardRouter
{
  public:
    /**
     * Build one replica set per shard of @p plan over @p ref, serving
     * one ExmaTable per distinct shard text (built pool-parallel
     * across texts), or a scan text for a slice the config does not
     * index (RouterConfig::indexesSlice). Shards with equal texts and
     * all replicas share that state; only workers are duplicated.
     */
    ShardRouter(const std::vector<Base> &ref, const ShardPlan &plan,
                const RouterConfig &cfg);

    /**
     * Adopt pre-restored state (src/persist/index_io.cc) instead of
     * building: @p tables / @p scan_refs are index-parallel with
     * @p plan's shards, and shard s holds a table or a scan ref iff
     * plan.textOf(s) == s — what the building constructor would have
     * produced. Workers are spawned over the adopted state;
     * @p load_seconds is reported as buildSeconds().
     */
    ShardRouter(ShardPlan plan, RouterConfig cfg,
                std::vector<std::unique_ptr<ExmaTable>> tables,
                std::vector<std::vector<Base>> scan_refs,
                double load_seconds);

    /** Joins/reaps all replicas, then removes the owned temp shard
     *  directory if socket workers needed one. */
    ~ShardRouter();

    size_t shardCount() const { return sets_.size(); }
    const ShardPlan &plan() const { return plan_; }
    const RouterConfig &config() const { return cfg_; }

    /** The transport kind replicas actually use (Auto resolved). */
    TransportKind transportKind() const { return transport_kind_; }

    /**
     * Shard @p i's replica set. Non-const ref from a const router:
     * ReplicaSet is internally synchronized, and callers (tests,
     * benches, the kill-loop soak) use it to kill/inspect replicas
     * while searches run.
     */
    ReplicaSet &replicaSet(size_t i) const { return *sets_[i]; }

    /**
     * Shard @p i's table, or null for a scan shard (serialization).
     * Shards sharing a text return the same table.
     */
    const ExmaTable *shardTable(size_t i) const
    {
        return tables_[plan_.textOf(i)].get();
    }

    /** Shard @p i's scan text (empty unless a scan shard). */
    const std::vector<Base> &shardScanRef(size_t i) const
    {
        return scan_refs_[plan_.textOf(i)];
    }

    /** Wall-clock seconds the (parallel) shard builds took. */
    double buildSeconds() const { return build_seconds_; }

    /**
     * Searchable bases summed over distinct shard texts, each counted
     * once. A prefix plan's shards share the whole reference, so this
     * equals the reference length; fixed-width overlaps make it
     * exceed it slightly. The ratio is the plan's replication factor.
     */
    u64 totalLocalBases() const;

    /** BW-matrix rows summed over distinct tables, each counted once:
     *  a prefix router over an indexed reference holds n + 1. */
    u64 totalRows() const;

    /**
     * Classify @p queries by prefix, run each on its owner shard (on
     * every shard for a text plan) through the replica tier, and merge
     * into global positions.
     * Queries must be non-empty and no longer than
     * plan().maxQueryLen(). @p locate_limit caps each query's hits
     * (0 = no cap); it applies globally after the merge (the lowest
     * positions survive), never per shard, which would keep a
     * shard-count-dependent subset.
     *
     * Failover contract: a shard call that fails (worker down, thrown
     * exception, corrupt canary) is retried on a different replica up
     * to failover.max_retries times with doubling backoff; calls still
     * unresolved failover.hedge_ms after submission are hedged, and
     * the first verified answer wins. When a call exhausts its budget
     * — or failover.deadline_ms expires, at which point search()
     * returns — its queries are flagged in RoutedResult::degraded and
     * whatever the other shards produced is returned. Queries are never lost
     * and never double-merged: exactly one verified response per shard
     * call is accepted.
     *
     * Threads: shard calls run on the replicas' lanes (or worker
     * processes), except that a search with no deadline and no
     * hedging whose only shard call is in-process runs that call's
     * attempts on the calling thread. Hits, degraded flags and
     * failover counts are the same either way.
     */
    RoutedResult search(const std::vector<std::vector<Base>> &queries,
                        u64 locate_limit = 0) const;

    /** One query: sorted global match positions; stats merged if given. */
    std::vector<u64> findAll(const std::vector<Base> &query,
                             SearchStats *stats = nullptr) const;

  private:
    /** Spawn the replica sets over tables_/scan_refs_, plus the
     *  supervisor. */
    void spawnReplicas();
    /** Factory for shard @p s's replicas under transport_kind_. */
    TransportFactory shardFactory(size_t s);
    /** Ensure shard files exist on disk for socket workers; sets
     *  worker_dir_ (and temp_dir_ when the router saves them itself). */
    void prepareWorkerFiles();

    ShardPlan plan_;
    RouterConfig cfg_;
    /** Per shard; only the first shard of each distinct text
     *  (plan_.textOf(s) == s) holds it. In-process workers hold
     *  pointers into them, so they outlive sets_. */
    std::vector<std::unique_ptr<ExmaTable>> tables_;
    std::vector<std::vector<Base>> scan_refs_;
    TransportKind transport_kind_ = TransportKind::InProcess;
    /** Directory socket workers load their shard files from. */
    std::string worker_dir_;
    /** Resolved exma-worker path (socket transport only). */
    std::string worker_binary_;
    /** Non-empty iff the router saved worker_dir_ itself and must
     *  remove it on destruction. */
    std::string temp_dir_;
    std::vector<std::unique_ptr<ReplicaSet>> sets_;
    /** Declared after sets_ so it stops sweeping before they die. */
    std::unique_ptr<WorkerSupervisor> supervisor_;
    double build_seconds_ = 0.0;
};

} // namespace exma

#endif // EXMA_ROUTE_SHARD_ROUTER_HH
