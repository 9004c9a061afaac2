/**
 * @file
 * R-way replication of one shard: a ReplicaSet owns R transports
 * serving the same prefix range off the same immutable shard state (a
 * table or scan text, which every shard of a kmerPrefix plan shares,
 * mmap-backed when the index was loaded, so a respawn is pointer
 * reuse, not a rebuild; the software analogue of the paper's
 * per-channel redundancy the hardware never needed).
 *
 * The set is transport-agnostic: it spawns replicas through a
 * TransportFactory, so the same routing/supervision machinery drives
 * in-process ShardWorkers and out-of-process SocketTransports — a
 * respawn of the latter is a real fork/exec of a fresh worker process.
 *
 * Routing is power-of-two-choices by inbox depth: pick() samples two
 * live replicas and returns the shallower one, which keeps hot-prefix
 * load spread without global coordination. Replica names are stable
 * across respawns ("<shard>/r<i>"), so fault-injection sites and their
 * hit counters survive a respawn — kill-every-Nth keeps firing on the
 * replacement, which is exactly what the kill-loop soak wants.
 *
 * Health: superviseOnce() replaces dead replicas and puts down hung
 * ones (inbox non-empty but heartbeat frozen past the timeout) before
 * replacing them too. The router additionally calls reviveDead()
 * inline on failover so a request never waits for the supervisor tick
 * to find a live replica.
 */

#ifndef EXMA_ROUTE_REPLICA_SET_HH
#define EXMA_ROUTE_REPLICA_SET_HH

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_annotations.hh"
#include "transport/transport.hh"

namespace exma {

/**
 * Spawns one replica transport given its stable name
 * ("<shard>/r<i>"). Called under the set's lock, so it must not
 * block on the set itself; spawning a child process is fine.
 */
using TransportFactory =
    std::function<std::shared_ptr<Transport>(const std::string &name)>;

class ReplicaSet
{
  public:
    /**
     * Spawns @p replicas transports named "<shard_name>/r<i>" via
     * @p factory over shared shard state the factory closes over.
     */
    ReplicaSet(std::string shard_name, TransportFactory factory,
               unsigned replicas);

    ReplicaSet(const ReplicaSet &) = delete;
    ReplicaSet &operator=(const ReplicaSet &) = delete;

    const std::string &shardName() const { return shard_name_; }
    unsigned size() const { return replica_count_; }

    /**
     * Power-of-two-choices: sample two live replicas, return the one
     * with the shallower inbox. Falls back to reviving a dead replica
     * inline when none is live — pick() always returns a transport
     * that was live at selection time.
     */
    std::shared_ptr<Transport> pick();

    /** pick(), but avoiding @p not_this (for retries and hedges) when
     *  any other live replica exists. */
    std::shared_ptr<Transport> pickOther(const Transport *not_this);

    /** Snapshot of replica @p i (present even when dead). */
    std::shared_ptr<Transport> replica(unsigned i) const;

    /** Crash switch for tests, benches, and the kill-loop soak; the
     *  victim's queued completions run on this thread, with no set
     *  lock held. */
    void killReplica(unsigned i);

    /** Respawn every dead replica now; returns how many. */
    u64 reviveDead();

    /**
     * One supervisor pass: respawn dead replicas, and kill-then-respawn
     * any replica whose inbox is non-empty but whose heartbeat has not
     * moved for @p hang_timeout_ms. Returns respawn count.
     */
    u64 superviseOnce(u64 hang_timeout_ms);

    /** Replicas respawned over the set's lifetime (monotonic). */
    u64 respawns() const
    {
        return respawns_.load(std::memory_order_relaxed);
    }

    /** Whether the shard serves a table (else it scans); uniform
     *  across replicas. */
    bool hasTable() const { return has_table_; }

    /** Requests served across all replicas, dead incarnations
     *  included (monotonic). */
    u64 processedTotal() const;

  private:
    std::shared_ptr<Transport> spawnLocked(unsigned i)
        EXMA_REQUIRES(mtx_);
    /**
     * Respawn every dead replica, moving the dead incarnations into
     * @p retired instead of destroying them: a transport's destructor
     * joins its serving thread (and reaps its child process), and a
     * join must never run under mtx_ (the blocked-under-lock
     * analyzer's rule). Callers declare `retired` *before* their
     * MutexLock so the retirees destruct after the lock releases.
     */
    u64 reviveDeadLocked(std::vector<std::shared_ptr<Transport>> &retired)
        EXMA_REQUIRES(mtx_);
    /** Uniform index in [0, n) off the lock-free pick sequence. */
    u64 draw(u64 n);

    const std::string shard_name_;
    const TransportFactory factory_;
    const unsigned replica_count_;
    /** Shard-state flag, captured from the first spawn (uniform). */
    bool has_table_ = false;

    /** Per-replica heartbeat watermark for hang detection. */
    struct Health
    {
        u64 heartbeat = 0;
        std::chrono::steady_clock::time_point changed;
    };

    mutable Mutex mtx_;
    std::vector<std::shared_ptr<Transport>> replicas_
        EXMA_GUARDED_BY(mtx_);
    std::vector<Health> health_ EXMA_GUARDED_BY(mtx_);
    std::atomic<u64> respawns_{0};
    std::atomic<u64> retired_processed_{0};
    std::atomic<u64> pick_seq_{0};
};

} // namespace exma

#endif // EXMA_ROUTE_REPLICA_SET_HH
