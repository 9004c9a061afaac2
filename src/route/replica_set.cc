#include "route/replica_set.hh"

#include <utility>

#include "common/logging.hh"
#include "common/rng.hh"

namespace exma {

ReplicaSet::ReplicaSet(std::string shard_name, TransportFactory factory,
                       unsigned replicas)
    : shard_name_(std::move(shard_name)), factory_(std::move(factory)),
      replica_count_(replicas == 0 ? 1 : replicas)
{
    exma_assert(factory_ != nullptr,
                "replica set '%s' needs a transport factory",
                shard_name_.c_str());
    MutexLock lock(mtx_);
    replicas_.reserve(replica_count_);
    health_.resize(replica_count_);
    const auto now = std::chrono::steady_clock::now();
    for (unsigned i = 0; i < replica_count_; ++i) {
        replicas_.push_back(spawnLocked(i));
        health_[i] = {0, now};
    }
    // The shard-state flag is a property of the shared shard state,
    // not of any one incarnation, so the first spawn's answer stands.
    has_table_ = replicas_[0]->hasTable();
}

std::shared_ptr<Transport>
ReplicaSet::spawnLocked(unsigned i)
{
    // Stable name: respawns keep the fault-injection site (and its hit
    // counters) of the incarnation they replace.
    return factory_(shard_name_ + "/r" + std::to_string(i));
}

u64
ReplicaSet::draw(u64 n)
{
    // A stateless hash of the pick sequence: deterministic enough for
    // reproducibility, uncorrelated enough for load spreading, and no
    // shared Rng state to guard.
    return SplitMix64(pick_seq_.fetch_add(1, std::memory_order_relaxed))
               .next() %
           n;
}

std::shared_ptr<Transport>
ReplicaSet::pick()
{
    // Declared before the lock: dead incarnations retired by the
    // revive below destruct (and join their threads) only after the
    // lock releases at return.
    std::vector<std::shared_ptr<Transport>> retired;
    MutexLock lock(mtx_);
    std::vector<unsigned> live;
    live.reserve(replica_count_);
    for (unsigned i = 0; i < replica_count_; ++i) {
        if (!replicas_[i]->isDead())
            live.push_back(i);
    }
    if (live.empty()) {
        reviveDeadLocked(retired);
        for (unsigned i = 0; i < replica_count_; ++i)
            live.push_back(i);
    }
    if (live.size() == 1)
        return replicas_[live[0]];
    // Two choices, distinct, least-loaded wins.
    const u64 a = draw(live.size());
    u64 b = draw(live.size() - 1);
    if (b >= a)
        ++b;
    const auto &wa = replicas_[live[a]];
    const auto &wb = replicas_[live[b]];
    return wa->inboxDepth() <= wb->inboxDepth() ? wa : wb;
}

std::shared_ptr<Transport>
ReplicaSet::pickOther(const Transport *not_this)
{
    {
        MutexLock lock(mtx_);
        std::vector<unsigned> live;
        live.reserve(replica_count_);
        for (unsigned i = 0; i < replica_count_; ++i) {
            if (!replicas_[i]->isDead() && replicas_[i].get() != not_this)
                live.push_back(i);
        }
        if (!live.empty())
            return replicas_[live[draw(live.size())]];
    }
    // No live alternative: fall back to pick(), which revives.
    return pick();
}

std::shared_ptr<Transport>
ReplicaSet::replica(unsigned i) const
{
    MutexLock lock(mtx_);
    exma_assert(i < replicas_.size(), "replica %u of %zu", i,
                replicas_.size());
    return replicas_[i];
}

void
ReplicaSet::killReplica(unsigned i)
{
    // Snapshot under the lock, kill outside it: kill() runs the queued
    // requests' completions, which must not run under mtx_.
    std::shared_ptr<Transport> w = replica(i);
    w->kill();
}

u64
ReplicaSet::reviveDeadLocked(
    std::vector<std::shared_ptr<Transport>> &retired)
{
    u64 revived = 0;
    for (unsigned i = 0; i < replica_count_; ++i) {
        if (!replicas_[i]->isDead())
            continue;
        retired_processed_.fetch_add(replicas_[i]->processed(),
                                     std::memory_order_relaxed);
        // Move the dead incarnation out instead of dropping it here:
        // the last shared_ptr runs the transport's destructor, which
        // joins the serving thread, and that join must happen after
        // the caller releases mtx_.
        retired.push_back(std::move(replicas_[i]));
        replicas_[i] = spawnLocked(i);
        health_[i] = {0, std::chrono::steady_clock::now()};
        respawns_.fetch_add(1, std::memory_order_relaxed);
        ++revived;
    }
    return revived;
}

u64
ReplicaSet::reviveDead()
{
    std::vector<std::shared_ptr<Transport>> retired;
    MutexLock lock(mtx_);
    return reviveDeadLocked(retired);
}

u64
ReplicaSet::superviseOnce(u64 hang_timeout_ms)
{
    const auto now = std::chrono::steady_clock::now();
    std::vector<std::shared_ptr<Transport>> hung;
    {
        MutexLock lock(mtx_);
        for (unsigned i = 0; i < replica_count_; ++i) {
            const auto &w = replicas_[i];
            if (w->isDead())
                continue;
            const u64 hb = w->heartbeat();
            if (w->inboxDepth() == 0 || hb != health_[i].heartbeat) {
                health_[i] = {hb, now};
                continue;
            }
            if (now - health_[i].changed >=
                std::chrono::milliseconds(hang_timeout_ms))
                hung.push_back(w);
        }
    }
    // Kill outside the lock (it runs completions), then respawn.
    for (const auto &w : hung) {
        exma_warn("supervisor: replica '%s' hung (inbox %llu, no "
                  "heartbeat for %llu ms) — killing",
                  w->name().c_str(),
                  static_cast<unsigned long long>(w->inboxDepth()),
                  static_cast<unsigned long long>(hang_timeout_ms));
        w->kill();
    }
    std::vector<std::shared_ptr<Transport>> retired;
    MutexLock lock(mtx_);
    return reviveDeadLocked(retired);
}

u64
ReplicaSet::processedTotal() const
{
    u64 total = retired_processed_.load(std::memory_order_relaxed);
    MutexLock lock(mtx_);
    for (const auto &w : replicas_)
        total += w->processed();
    return total;
}

} // namespace exma
