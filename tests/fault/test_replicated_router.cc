// The acceptance suite for replicated fault-tolerant serving: with
// R >= 2, any single injected fault (worker death, hang, throw, slow
// replica, corrupt response) must leave the routed hit set identical
// to a monolithic table — zero lost queries, zero duplicated hits,
// nothing flagged degraded. With every replica of a range down, the
// router must return deadline-bounded partial results with exactly the
// affected queries flagged in RoutedResult::degraded. A one-query
// search, which the router serves on the caller's thread unless a
// deadline keeps it on the lane, must answer the same either way.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hh"
#include "fault/fault_injector.hh"
#include "genome/reference.hh"
#include "route/shard_router.hh"

namespace exma {
namespace {

constexpr u64 kMaxQueryLen = 24;

ExmaTable::Config
tableCfg(int k)
{
    ExmaTable::Config cfg;
    cfg.k = k;
    return cfg;
}

/** Ground truth: one monolithic table's located, sorted hit set. */
std::vector<u64>
singleTableHits(const ExmaTable &table, const std::vector<Base> &query)
{
    auto hits = table.locateAll(table.search(query));
    std::sort(hits.begin(), hits.end());
    return hits;
}

/** Same mixed batch the router differential tests use. */
std::vector<std::vector<Base>>
queryMix(const std::vector<Base> &ref, int prefix_len, u64 seed)
{
    Rng rng(seed);
    std::vector<std::vector<Base>> qs;
    for (u64 i = 0; i < 60; ++i) {
        u64 len;
        if (i % 4 == 3)
            len = 1 + rng.below(std::max<u64>(
                          1, static_cast<u64>(prefix_len) - 1));
        else
            len = static_cast<u64>(prefix_len) +
                  rng.below(kMaxQueryLen - static_cast<u64>(prefix_len));
        if (i % 5 == 4) {
            std::vector<Base> q(len);
            for (auto &b : q)
                b = static_cast<Base>(rng.below(4));
            qs.push_back(std::move(q));
        } else {
            const u64 pos = rng.below(ref.size() - len + 1);
            qs.emplace_back(ref.begin() + static_cast<std::ptrdiff_t>(pos),
                            ref.begin() +
                                static_cast<std::ptrdiff_t>(pos + len));
        }
    }
    return qs;
}

/**
 * queryMix without its sub-prefix queries, for the timed cases. Those
 * short queries match thousands of positions, and locating them costs
 * a Debug TSan build 250-350 ms per search on a 4-vCPU host — as long
 * as the deadlines under test; without them a search costs 2-5 ms, so
 * the timed window holds the router's waiting, not locate work.
 * RangeFullyDownDegradesExactlyItsQueries covers the short queries.
 */
std::vector<std::vector<Base>>
routedMix(const std::vector<Base> &ref, int prefix_len, u64 seed)
{
    auto qs = queryMix(ref, prefix_len, seed);
    std::erase_if(qs, [prefix_len](const std::vector<Base> &q) {
        return q.size() < static_cast<size_t>(prefix_len);
    });
    return qs;
}

/** The shared fixture: one dataset, one monolith, one plan. */
struct Fixture
{
    Dataset ds = makeDataset("human", 0.001);
    ExmaTable::Config cfg = tableCfg(ds.exma_k);
    ExmaTable single{ds.ref, cfg};
    ShardPlan plan = ShardPlan::kmerPrefix(ds.ref, 4, kMaxQueryLen);
};

const Fixture &
fixture()
{
    static const Fixture fx;
    return fx;
}

/** Replicated router tuned for fast recovery in tests. */
RouterConfig
replicatedCfg(unsigned replicas = 2)
{
    const Fixture &fx = fixture();
    RouterConfig rcfg;
    rcfg.table = fx.cfg;
    rcfg.failover.replicas = replicas;
    rcfg.failover.max_retries = 3;
    rcfg.failover.retry_backoff_ms = 1;
    rcfg.failover.supervisor_interval_ms = 5;
    rcfg.failover.hang_timeout_ms = 250;
    return rcfg;
}

/** Every query's hits match the monolith and nothing is degraded. */
void
expectIdenticalToMonolith(const RoutedResult &r,
                          const std::vector<std::vector<Base>> &qs)
{
    const Fixture &fx = fixture();
    ASSERT_EQ(r.hits.size(), qs.size());
    EXPECT_EQ(r.degraded_queries, 0u);
    for (size_t i = 0; i < qs.size(); ++i) {
        EXPECT_EQ(r.degraded[i], 0) << "query " << i;
        EXPECT_EQ(r.hits[i], singleTableHits(fx.single, qs[i]))
            << "query " << i;
        EXPECT_TRUE(std::adjacent_find(r.hits[i].begin(),
                                       r.hits[i].end()) ==
                    r.hits[i].end())
            << "duplicated hits for query " << i;
    }
}

/** The one shard serving @p q under the fixture plan. */
size_t
ownerOf(const std::vector<Base> &q)
{
    const ShardPlan &plan = fixture().plan;
    return plan.ownerOf(plan.queryPrefixRange(q.data(), q.size()).lo);
}

/**
 * Exactly the queries shard @p target serves come back degraded, with
 * no hits; every other query is identical to the monolith.
 */
void
expectExactlyRangeDegraded(const RoutedResult &r,
                           const std::vector<std::vector<Base>> &qs,
                           size_t target)
{
    const Fixture &fx = fixture();
    ASSERT_EQ(r.hits.size(), qs.size());
    EXPECT_GT(r.degraded_queries, 0u);
    EXPECT_LT(r.degraded_queries, qs.size())
        << "only the dead range's queries may degrade";
    u64 flagged = 0;
    for (size_t i = 0; i < qs.size(); ++i) {
        const bool expect_degraded = ownerOf(qs[i]) == target;
        EXPECT_EQ(r.degraded[i] != 0, expect_degraded) << "query " << i;
        flagged += r.degraded[i];
        if (expect_degraded)
            EXPECT_TRUE(r.hits[i].empty())
                << "degraded query " << i << " invented hits";
        else
            EXPECT_EQ(r.hits[i], singleTableHits(fx.single, qs[i]))
                << "query " << i;
    }
    EXPECT_EQ(r.degraded_queries, flagged);
}

/** Every replica of shard @p target fires @p kind on every request. */
std::shared_ptr<FaultInjector>
wholeRangeFault(const ShardRouter &router, size_t target, FaultKind kind)
{
    FaultRule rule;
    rule.kind = kind;
    rule.site = router.plan().shards()[target].name + "*";
    rule.every = 1; // every hit, so respawned replicas fail too
    rule.ms = 600'000; // a hang never ends on its own
    return std::make_shared<FaultInjector>(std::vector<FaultRule>{rule});
}

/** Wall-clock ms of one search of @p qs, whose result lands in @p out. */
u64
timedSearch(const ShardRouter &router,
            const std::vector<std::vector<Base>> &qs, RoutedResult &out)
{
    const auto t0 = std::chrono::steady_clock::now();
    out = router.search(qs);
    return static_cast<u64>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
}

TEST(ReplicatedRouter, WorkerDeathFailsOverWithIdenticalHits)
{
    // Every replica dies on its first served request; retries land on
    // the respawned incarnations (same site names, hit counters carry
    // over, so the rule never re-fires).
    const Fixture &fx = fixture();
    const ShardRouter router(fx.ds.ref, fx.plan, replicatedCfg());
    const auto qs = queryMix(fx.ds.ref, fx.plan.prefixLen(), 31);

    {
        ScopedFaultInjector scope(std::make_shared<FaultInjector>(
            FaultInjector::parseSpec("kill@*")));
        const RoutedResult r = router.search(qs);
        expectIdenticalToMonolith(r, qs);
        EXPECT_GT(r.failover.worker_down, 0u);
        EXPECT_GT(r.failover.retries, 0u);
        EXPECT_GT(r.failover.respawns, 0u);
    }
    // The respawned tier serves the next batch without any machinery.
    const RoutedResult again = router.search(qs);
    expectIdenticalToMonolith(again, qs);
    EXPECT_EQ(again.failover.retries, 0u);
}

TEST(ReplicatedRouter, HungReplicaIsKilledBySupervisorAndFailedOver)
{
    // Every replica hangs mid-request on its first serve; the
    // supervisor's heartbeat watchdog must declare it hung, kill it
    // (cancelling the injected sleep), and the router must fail over.
    const Fixture &fx = fixture();
    const ShardRouter router(fx.ds.ref, fx.plan, replicatedCfg());
    const auto qs = queryMix(fx.ds.ref, fx.plan.prefixLen(), 32);

    ScopedFaultInjector scope(std::make_shared<FaultInjector>(
        FaultInjector::parseSpec("hang@*")));
    const RoutedResult r = router.search(qs);
    expectIdenticalToMonolith(r, qs);
    EXPECT_GT(r.failover.worker_down, 0u);
    EXPECT_GT(r.failover.respawns, 0u);
}

TEST(ReplicatedRouter, ThrowingProcessRetriesWithoutDeadlock)
{
    const Fixture &fx = fixture();
    const ShardRouter router(fx.ds.ref, fx.plan, replicatedCfg());
    const auto qs = queryMix(fx.ds.ref, fx.plan.prefixLen(), 33);

    ScopedFaultInjector scope(std::make_shared<FaultInjector>(
        FaultInjector::parseSpec("throw@*")));
    const RoutedResult r = router.search(qs);
    expectIdenticalToMonolith(r, qs);
    EXPECT_GT(r.failover.failed, 0u);
    EXPECT_GT(r.failover.retries, 0u);
    EXPECT_EQ(r.failover.respawns, 0u)
        << "a thrown exception must not cost the worker its life";
}

TEST(ReplicatedRouter, SlowReplicaIsHedgedWithIdenticalHits)
{
    const Fixture &fx = fixture();
    RouterConfig rcfg = replicatedCfg();
    rcfg.failover.hedge_ms = 10;
    // The injected 150 ms delay must read as "slow", never "hung":
    // under TSan the delay plus instrumentation overhead can exceed
    // the default 250 ms hang timeout, and a supervisor kill would
    // turn this hedging test into a failover one.
    rcfg.failover.hang_timeout_ms = 10000;
    const ShardRouter router(fx.ds.ref, fx.plan, rcfg);
    const auto qs = queryMix(fx.ds.ref, fx.plan.prefixLen(), 34);

    ScopedFaultInjector scope(std::make_shared<FaultInjector>(
        FaultInjector::parseSpec("delay@*:ms=150")));
    const RoutedResult r = router.search(qs);
    expectIdenticalToMonolith(r, qs);
    EXPECT_GT(r.failover.hedges, 0u);
    EXPECT_EQ(r.failover.worker_down, 0u);
}

TEST(ReplicatedRouter, CorruptResponseIsRejectedByCanaryAndRetried)
{
    const Fixture &fx = fixture();
    const ShardRouter router(fx.ds.ref, fx.plan, replicatedCfg());
    const auto qs = queryMix(fx.ds.ref, fx.plan.prefixLen(), 35);

    ScopedFaultInjector scope(std::make_shared<FaultInjector>(
        FaultInjector::parseSpec("corrupt@*")));
    const RoutedResult r = router.search(qs);
    expectIdenticalToMonolith(r, qs);
    EXPECT_GT(r.failover.corrupt, 0u);
    EXPECT_GT(r.failover.retries, 0u);
}

TEST(ReplicatedRouter, RangeFullyDownDegradesExactlyItsQueries)
{
    // Both replicas of one shard die on every request, forever; its
    // queries must come back flagged degraded and empty while every
    // other query stays identical to the monolith.
    const Fixture &fx = fixture();
    RouterConfig rcfg = replicatedCfg();
    rcfg.failover.max_retries = 2;
    rcfg.failover.deadline_ms = 20'000; // generous; retries fail first
    const ShardRouter router(fx.ds.ref, fx.plan, rcfg);
    const auto qs = queryMix(fx.ds.ref, fx.plan.prefixLen(), 36);

    const size_t target = ownerOf(qs[0]);
    ScopedFaultInjector scope(
        wholeRangeFault(router, target, FaultKind::KillWorker));

    const RoutedResult r = router.search(qs);
    expectExactlyRangeDegraded(r, qs, target);
    EXPECT_GT(r.failover.worker_down, 0u);

    // With the injector gone the respawned range recovers fully.
    installFaultInjector(nullptr);
    const RoutedResult healed = router.search(qs);
    expectIdenticalToMonolith(healed, qs);
}

TEST(ReplicatedRouter, DeadlineBoundsAnUnresponsiveRange)
{
    // Both replicas of one shard hang forever, and the supervisor's
    // hang timeout lies far past the deadline: the deadline alone must
    // bound the search. It returns within the deadline plus a
    // scheduling margin, abandoning the hung attempts rather than
    // waiting for them, flags the stuck range's queries, and tallies
    // the deadline miss.
    const Fixture &fx = fixture();
    RouterConfig rcfg = replicatedCfg();
    rcfg.failover.deadline_ms = 300;
    rcfg.failover.hang_timeout_ms = 10'000;
    const ShardRouter router(fx.ds.ref, fx.plan, rcfg);
    const auto qs = routedMix(fx.ds.ref, fx.plan.prefixLen(), 37);
    router.search(qs); // socket children start up outside the timing

    const size_t target = ownerOf(qs[0]);
    ScopedFaultInjector scope(
        wholeRangeFault(router, target, FaultKind::HangRequest));
    RoutedResult r;
    const auto elapsed = timedSearch(router, qs, r);
    EXPECT_LT(elapsed, rcfg.failover.deadline_ms + 250)
        << "the search outlived its deadline";
    EXPECT_GE(r.failover.deadline_misses, 1u);
    expectExactlyRangeDegraded(r, qs, target);
}

TEST(ReplicatedRouter, RetryBackoffDoesNotOutlastTheDeadline)
{
    // Both replicas of one shard throw on every request, and the first
    // retry backoff (2 s) outlasts the deadline (300 ms). A backoff is
    // a due time, not a sleep on the caller's thread, so the deadline
    // still bounds the search and the other shards' answers merge.
    const Fixture &fx = fixture();
    RouterConfig rcfg = replicatedCfg();
    rcfg.failover.retry_backoff_ms = 2000;
    rcfg.failover.deadline_ms = 300;
    rcfg.failover.hang_timeout_ms = 10'000;
    const ShardRouter router(fx.ds.ref, fx.plan, rcfg);
    const auto qs = routedMix(fx.ds.ref, fx.plan.prefixLen(), 40);
    router.search(qs); // socket children start up outside the timing

    const size_t target = ownerOf(qs[0]);
    ScopedFaultInjector scope(
        wholeRangeFault(router, target, FaultKind::ThrowInProcess));
    RoutedResult r;
    const auto elapsed = timedSearch(router, qs, r);
    EXPECT_LT(elapsed, rcfg.failover.deadline_ms + 250)
        << "the retry backoff held the search past its deadline";
    EXPECT_GT(r.failover.failed, 0u);
    EXPECT_GE(r.failover.deadline_misses, 1u);
    expectExactlyRangeDegraded(r, qs, target);
}

TEST(ReplicatedRouter, RetryBackoffsOfDifferentShardsWaitConcurrently)
{
    // One replica per shard, and every replica throws once, so every
    // shard call retries after a 1 s backoff. The backoffs run side
    // by side as due times instead of as one sleep per shard on the
    // caller's thread: the search takes about one backoff, not one
    // per shard, and loses nothing.
    const Fixture &fx = fixture();
    RouterConfig rcfg = replicatedCfg(1);
    rcfg.failover.retry_backoff_ms = 1000;
    rcfg.failover.hang_timeout_ms = 10'000;
    const ShardRouter router(fx.ds.ref, fx.plan, rcfg);
    const auto qs = routedMix(fx.ds.ref, fx.plan.prefixLen(), 41);
    expectIdenticalToMonolith(router.search(qs), qs);

    ScopedFaultInjector scope(std::make_shared<FaultInjector>(
        FaultInjector::parseSpec("throw@*")));
    RoutedResult r;
    const auto elapsed = timedSearch(router, qs, r);
    ASSERT_GE(r.failover.retries, 2u)
        << "the batch must retry on at least two shards at once";
    EXPECT_LT(elapsed, 2 * rcfg.failover.retry_backoff_ms)
        << "the shards' backoffs ran one after another";
    EXPECT_EQ(r.failover.failed, r.failover.retries);
    expectIdenticalToMonolith(r, qs);
}

TEST(ReplicatedRouter, HedgeReturnsOnItsWinner)
{
    // One replica of a shard stalls 2 s on its first request. The
    // search that reaches it hedges after 10 ms and returns on the
    // other replica's answer instead of waiting for the loser. The
    // loser keeps serving after search() returns: the caller's batch
    // is freed at once and the loser is let finish, so a sanitizer
    // sees any read of the caller's storage.
    const Fixture &fx = fixture();
    RouterConfig rcfg = replicatedCfg();
    rcfg.failover.hedge_ms = 10;
    rcfg.failover.hang_timeout_ms = 10'000;
    const ShardRouter router(fx.ds.ref, fx.plan, rcfg);
    const auto qs = routedMix(fx.ds.ref, fx.plan.prefixLen(), 42);
    const size_t target = ownerOf(qs[0]);
    const std::string site = router.plan().shards()[target].name + "/r0";
    const auto injector = std::make_shared<FaultInjector>(
        FaultInjector::parseSpec("delay@" + site + ":ms=2000"));
    ScopedFaultInjector scope(injector);

    // Power-of-two-choices picks r0 for about half of the searches.
    for (int round = 0; round < 64 && injector->hits(site) == 0; ++round) {
        auto owned = std::make_unique<std::vector<std::vector<Base>>>(qs);
        RoutedResult r;
        const auto elapsed = timedSearch(router, *owned, r);
        owned.reset();
        if (injector->hits(site) == 0)
            continue;
        EXPECT_LT(elapsed, 1000u)
            << "the search waited for its hedge loser";
        EXPECT_GE(r.failover.hedges, 1u);
        expectIdenticalToMonolith(r, qs);
    }
    ASSERT_EQ(injector->hits(site), 1u) << "no search reached " << site;

    const auto loser = router.replicaSet(target).replica(0);
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (loser->inboxDepth() > 0 &&
           std::chrono::steady_clock::now() < until)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_EQ(loser->inboxDepth(), 0u) << "the loser was never served";
    EXPECT_FALSE(loser->isDead()) << "a slow replica is not a hung one";
}

TEST(ReplicatedRouter, RouterWithoutSupervisorIsRejected)
{
    // The supervisor is the only hang handler, so a router that would
    // run without one fails at construction. Threadsafe style: the
    // child re-runs the test rather than forking a threaded process.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    const Fixture &fx = fixture();
    RouterConfig rcfg = replicatedCfg();
    rcfg.failover.supervisor_interval_ms = 0;
    EXPECT_DEATH({ const ShardRouter router(fx.ds.ref, fx.plan, rcfg); },
                 "only hang handler");
}

TEST(ReplicatedRouter, ManualReplicaKillBetweenBatchesIsAbsorbed)
{
    // The soak-bench scenario without an injector: kill a replica from
    // outside while the tier is idle; the next batch must be served
    // cleanly (P2C avoids the corpse, the supervisor respawns it).
    const Fixture &fx = fixture();
    const ShardRouter router(fx.ds.ref, fx.plan, replicatedCfg());
    const auto qs = queryMix(fx.ds.ref, fx.plan.prefixLen(), 38);

    for (unsigned round = 0; round < 3; ++round) {
        router.replicaSet(round % router.shardCount())
            .killReplica(round % 2);
        const RoutedResult r = router.search(qs);
        expectIdenticalToMonolith(r, qs);
    }
}

/** Every occurrence of @p q in @p ref: an oracle sharing no code with
 *  the index. */
std::vector<u64>
scanHits(const std::vector<Base> &ref, const std::vector<Base> &q)
{
    std::vector<u64> hits;
    for (auto it = std::search(ref.begin(), ref.end(), q.begin(), q.end());
         it != ref.end();
         it = std::search(it + 1, ref.end(), q.begin(), q.end()))
        hits.push_back(static_cast<u64>(it - ref.begin()));
    return hits;
}

/** What one-query searches returned, query by query. */
struct OneByOne
{
    std::vector<std::vector<u64>> hits;
    std::vector<u8> degraded;
    std::vector<FailoverStats> failover;
};

/** Search each of @p qs on its own under a fresh @p spec injector. */
OneByOne
searchOneByOne(const ShardRouter &router,
               const std::vector<std::vector<Base>> &qs,
               const std::string &spec)
{
    ScopedFaultInjector scope(
        std::make_shared<FaultInjector>(FaultInjector::parseSpec(spec)));
    OneByOne out;
    for (const auto &q : qs) {
        const RoutedResult r = router.search({q});
        out.hits.push_back(r.hits[0]);
        out.degraded.push_back(r.degraded[0]);
        out.failover.push_back(r.failover);
    }
    return out;
}

TEST(ReplicatedRouter, LoneInProcessCallOnTheCallerMatchesTheLane)
{
    // A one-query search makes one shard call. Without a deadline the
    // router serves it on the calling thread; with one, on the lane.
    // Under every fault kind both must return the same hits, degraded
    // flags and failover counts, query by query, and the hits of every
    // query not degraded must be std::search's.
    const Fixture &fx = fixture();
    const ShardPlan plan = ShardPlan::kmerPrefix(fx.ds.ref, 2, kMaxQueryLen);
    RouterConfig caller_cfg;
    caller_cfg.table = fx.cfg;
    caller_cfg.transport.kind = TransportKind::InProcess;
    RouterConfig lane_cfg = caller_cfg;
    lane_cfg.failover.deadline_ms = 20'000;
    const ShardRouter caller(fx.ds.ref, plan, caller_cfg);
    const ShardRouter lane(fx.ds.ref, plan, lane_cfg);
    auto qs = routedMix(fx.ds.ref, plan.prefixLen(), 43);
    qs.resize(std::min<size_t>(qs.size(), 24));

    // Under the throw plan shard 0 fails every other attempt and shard
    // 1 every attempt, so shard 1's queries degrade.
    const std::string s0 = plan.shards()[0].name;
    const std::string s1 = plan.shards()[1].name;
    const std::vector<std::string> specs = {
        "kill@*:nth=2:every=3",
        "throw@" + s0 + "*:nth=2:every=2,throw@" + s1 + "*:every=1",
        "corrupt@*:nth=1:every=2",
        "delay@*:every=2:ms=2",
    };
    for (const std::string &spec : specs) {
        SCOPED_TRACE(spec);
        const OneByOne here = searchOneByOne(caller, qs, spec);
        const OneByOne laned = searchOneByOne(lane, qs, spec);
        FailoverStats total;
        u64 degraded = 0;
        for (size_t i = 0; i < qs.size(); ++i) {
            EXPECT_EQ(here.hits[i], laned.hits[i]) << "query " << i;
            EXPECT_EQ(here.degraded[i], laned.degraded[i]) << "query " << i;
            EXPECT_TRUE(here.failover[i] == laned.failover[i])
                << "query " << i;
            if (here.degraded[i])
                EXPECT_TRUE(here.hits[i].empty()) << "query " << i;
            else
                EXPECT_EQ(here.hits[i], scanHits(fx.ds.ref, qs[i]))
                    << "query " << i;
            total += here.failover[i];
            degraded += here.degraded[i];
        }
        // Each plan must have set its machinery off.
        switch (spec[0]) {
        case 'k':
            EXPECT_GT(total.worker_down, 0u);
            EXPECT_EQ(total.respawns, total.worker_down);
            EXPECT_EQ(degraded, 0u);
            break;
        case 't':
            EXPECT_GT(total.failed, 0u);
            EXPECT_GT(degraded, 0u);
            EXPECT_LT(degraded, qs.size());
            break;
        case 'c':
            EXPECT_GT(total.corrupt, 0u);
            EXPECT_EQ(degraded, 0u);
            break;
        default:
            EXPECT_TRUE(total == FailoverStats{});
            EXPECT_EQ(degraded, 0u);
            break;
        }
    }
}

} // namespace
} // namespace exma
