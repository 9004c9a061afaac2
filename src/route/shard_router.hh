/**
 * @file
 * Sharded serving: the one front end for every ShardPlan, built to
 * make shard count buy throughput instead of costing it — and to
 * survive the workers it buys it from.
 *
 * Broadcasting every query to every shard makes one core do
 * shard-count times the work per query. The ShardRouter instead serves
 * a kmerPrefix ShardPlan: a query's first prefixLen() bases name the
 * one shard owning every position its matches can start at, so the
 * router classifies a batch by prefix, hands each shard's ReplicaSet
 * only the queries it owns, and merges the responses into sorted,
 * deduplicated global positions under a global locate_limit. Queries
 * shorter than the routing prefix whose padded code range straddles a
 * partition boundary fall back to a broadcast across the straddled
 * shards (their matches' owners all lie in that range).
 *
 * Transports (RouterConfig::transport): each replica is either an
 * in-process ShardWorker sharing the router's address space (the
 * default, and the differential oracle) or a SocketTransport speaking
 * the length-prefixed wire protocol to an out-of-process exma-worker
 * that mmap-loads the same shard files — the paper's per-channel
 * parallelism with real OS-level isolation. The two are
 * bit-identical: same hits, same stats, same canary.
 *
 * Fault tolerance (RouterConfig::failover): each prefix range is
 * served by an R-way ReplicaSet with power-of-two-choices routing, a
 * WorkerSupervisor respawns dead/hung replicas in the background, and
 * search() itself retries failed shard calls on a different replica
 * with backoff, hedges stragglers, and — when a range stays down past
 * the per-request deadline — returns partial results with the
 * affected queries flagged in RoutedResult::degraded instead of
 * blocking. What fired is tallied in RoutedResult::failover.
 *
 * Text-partitioned plans (fixedWidth, perRecord) have no routing
 * prefix and are served broadcast-only through the same workers: each
 * shard's table covers one text slice, fixed-width overlaps let every
 * match of up to maxQueryLen() bases lie inside some shard, and the
 * merge reports a match found by two overlapping shards once.
 *
 * Thread-safety analysis: search() is const and keeps all cross-thread
 * traffic inside annotated machinery — requests ride the workers'
 * annotated inbox queues, responses come back through futures, replica
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
     * flagged degraded rather than blocking the caller.
     */
    u64 deadline_ms = 0;
    /** Resubmissions per shard call after a failed attempt. */
    unsigned max_retries = 2;
    /** First retry backoff in ms (doubles per retry; 0 = immediate). */
    u64 retry_backoff_ms = 2;
    /**
     * Hedge threshold in ms; 0 = off. A shard call still unresolved
     * this long after submission is duplicated on a second replica and
     * the first Ok response wins (classic tail-at-scale hedging).
     */
    u64 hedge_ms = 0;
    /** Supervisor sweep period in ms; 0 = no supervisor thread. */
    u64 supervisor_interval_ms = 20;
    /**
     * A replica with queued work whose heartbeat stalls this long is
     * declared hung, killed, and respawned (by the supervisor, or by
     * the router's reap path when no supervisor runs).
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
     * Empty = the router saves its shards into a temp directory it
     * owns for the workers' lifetime.
     */
    std::string worker_dir;
    /**
     * exma-worker binary; empty = $EXMA_WORKER_BIN, then the build
     * tree next to the running binary, then $PATH.
     */
    std::string worker_binary;
};

struct RouterConfig
{
    /** Per-shard table configuration (same k for every shard). */
    ExmaTable::Config table;
    /** Shard-build parallelism: 0 = pool width, 1 = serial. */
    unsigned build_threads = 0;
    /**
     * Serve every query via every shard (measurement baseline; also
     * the only mode text-partitioned plans support).
     */
    bool force_broadcast = false;
    /**
     * Shards whose searchable text is shorter than this are served by
     * direct segment scanning instead of an ExmaTable of their own.
     */
    u64 min_table_bases = ShardPlan::kMinShardBases;
    /** Replication / failover policy (see FailoverConfig). */
    FailoverConfig failover;
    /** Replica execution: in-process threads or worker processes. */
    TransportConfig transport;
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
    u64 routed_queries = 0;    ///< served by exactly one shard
    u64 broadcast_queries = 0; ///< served by two or more shards
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
     * Build one replica set per shard of @p plan over @p ref:
     * segment-mapped ExmaTables built pool-parallel for indexable
     * shards, scan workers for tiny ones, hitless workers for empty
     * prefix ranges. Replicas share the shard state; only workers are
     * duplicated.
     */
    ShardRouter(const std::vector<Base> &ref, const ShardPlan &plan,
                const RouterConfig &cfg);

    /**
     * Adopt pre-restored per-shard state (src/persist/index_io.cc)
     * instead of building: @p tables / @p scan_refs are index-parallel
     * with @p plan's shards (a shard has a table, a scan ref, or
     * neither — matching what the building constructor would have
     * produced over plan.segmentsOf()). Workers are spawned over the
     * adopted state; @p load_seconds is reported as buildSeconds().
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

    /** Shard @p i's table, or null for scan/empty shards (serialization). */
    const ExmaTable *shardTable(size_t i) const { return tables_[i].get(); }

    /** Shard @p i's extracted scan text (empty unless a scan shard). */
    const std::vector<Base> &shardScanRef(size_t i) const
    {
        return scan_refs_[i];
    }

    /** Wall-clock seconds the (parallel) shard builds took. */
    double buildSeconds() const { return build_seconds_; }

    /**
     * Sum of per-shard searchable bases. Prefix shards replicate
     * context windows, so this exceeds the reference length; the ratio
     * is the plan's replication factor.
     */
    u64 totalLocalBases() const;

    /** Sum of per-shard BW-matrix row counts (indexed shards only). */
    u64 totalRows() const;

    /**
     * Classify @p queries by prefix, run each on its owner shard(s)
     * through the replica tier, and merge into global positions.
     * Queries must be non-empty and no longer than
     * plan().maxQueryLen(). cfg.locate_limit applies globally after
     * the merge (the lowest positions survive), never per shard,
     * which would keep a shard-count-dependent subset.
     *
     * Failover contract: a shard call that fails (worker down, thrown
     * exception, corrupt canary) is retried on a different replica up
     * to failover.max_retries times with doubling backoff; calls still
     * unresolved failover.hedge_ms after submission are hedged. When a
     * call exhausts its budget — or failover.deadline_ms expires — its
     * queries are flagged in RoutedResult::degraded and whatever the
     * other shards produced is returned. Queries are never lost and
     * never double-merged: exactly one verified response per shard
     * call is accepted.
     */
    RoutedResult search(const std::vector<std::vector<Base>> &queries,
                        const BatchConfig &cfg = {}) const;

    /** One query: sorted global match positions; stats merged if given. */
    std::vector<u64> findAll(const std::vector<Base> &query,
                             SearchStats *stats = nullptr) const;

  private:
    /** Spawn the replica sets over tables_/scan_refs_, plus the
     *  supervisor when configured. */
    void spawnReplicas();
    /** Factory for shard @p s's replicas under transport_kind_. */
    TransportFactory shardFactory(size_t s);
    /** Ensure shard files exist on disk for socket workers; sets
     *  worker_dir_ (and temp_dir_ when the router saves them itself). */
    void prepareWorkerFiles();

    /** Owns the per-shard segment maps; in-process workers hold
     *  pointers into them, so it outlives sets_. */
    ShardPlan plan_;
    RouterConfig cfg_;
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
