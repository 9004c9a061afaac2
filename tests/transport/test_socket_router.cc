// The routed serving tier over real worker processes: a ShardRouter
// with the socket transport must answer bit-identically — hits AND
// stats — to the in-process router and the monolithic table, across
// shard counts, shard states (table / scan), and the loadIndex path
// where workers mmap the same persisted files the parent serves from.

#include <gtest/gtest.h>

#include <stdlib.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "genome/reference.hh"
#include "persist/index_io.hh"
#include "route/shard_router.hh"

namespace exma {
namespace {

namespace fs = std::filesystem;

constexpr u64 kMaxQueryLen = 24;

ExmaTable::Config
tableCfg(int k)
{
    ExmaTable::Config cfg;
    cfg.k = k;
    cfg.mode = OccIndexMode::Exact;
    cfg.mtl.epochs = 10;
    cfg.mtl.samples_per_class = 512;
    return cfg;
}

std::vector<u64>
singleTableHits(const ExmaTable &table, const std::vector<Base> &query)
{
    auto hits = table.locateAll(table.search(query));
    std::sort(hits.begin(), hits.end());
    return hits;
}

/** Reference substrings (hits), random probes (mostly misses), and
 *  sub-prefix queries whose padded ranges may straddle a cut. */
std::vector<std::vector<Base>>
queryMix(const std::vector<Base> &ref, int prefix_len, u64 seed)
{
    Rng rng(seed);
    std::vector<std::vector<Base>> qs;
    for (u64 i = 0; i < 40; ++i) {
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

TEST(SocketRouter, RoutedHitsAndStatsMatchInProcessAndMonolith)
{
    const Dataset ds = makeDataset("human", 0.001);
    const auto cfg = tableCfg(ds.exma_k);
    const ExmaTable single(ds.ref, cfg);

    for (unsigned n_shards : {2u, 4u, 8u}) {
        const auto plan =
            ShardPlan::kmerPrefix(ds.ref, n_shards, kMaxQueryLen);

        RouterConfig inproc_cfg;
        inproc_cfg.table = cfg;
        const ShardRouter inproc(ds.ref, plan, inproc_cfg);
        ASSERT_EQ(inproc.transportKind(), TransportKind::InProcess);

        RouterConfig socket_cfg;
        socket_cfg.table = cfg;
        socket_cfg.transport.kind = TransportKind::Socket;
        const ShardRouter socket(ds.ref, plan, socket_cfg);
        ASSERT_EQ(socket.transportKind(), TransportKind::Socket);

        const auto qs = queryMix(ds.ref, plan.prefixLen(), 7 + n_shards);
        BatchConfig bc;
        bc.grain = 3;
        const RoutedResult expect = inproc.search(qs, bc);
        const RoutedResult got = socket.search(qs, bc);

        ASSERT_EQ(got.hits.size(), qs.size());
        EXPECT_EQ(got.degraded_queries, 0u)
            << "shards=" << n_shards << ": clean run must not degrade";
        EXPECT_EQ(got.stats, expect.stats) << "shards=" << n_shards;
        EXPECT_EQ(got.per_shard, expect.per_shard)
            << "shards=" << n_shards;
        EXPECT_EQ(got.routed_queries, expect.routed_queries);
        EXPECT_EQ(got.broadcast_queries, expect.broadcast_queries);
        for (size_t i = 0; i < qs.size(); ++i) {
            EXPECT_EQ(got.hits[i], expect.hits[i])
                << "shards=" << n_shards << " query " << i
                << " (vs in-process router)";
            EXPECT_EQ(got.hits[i], singleTableHits(single, qs[i]))
                << "shards=" << n_shards << " query " << i
                << " (vs monolith)";
        }
    }
}

TEST(SocketRouter, ScanAndEmptyShardsServeOverTheWire)
{
    // Many shards over a tiny two-letter reference below
    // min_table_bases: every shard is a scan worker over the one
    // shared scan text, which each exma-worker loads from the first
    // shard's stem. The skewed alphabet leaves 4-mer codes containing
    // G/T unowned, so the balanced cut strands empty prefix ranges;
    // queries with those prefixes route to a neighbouring shard and
    // come back hitless.
    Rng rng(99);
    std::vector<Base> ref(400);
    for (auto &b : ref)
        b = static_cast<Base>(rng.below(2));
    const u64 max_q = 4;
    const auto plan = ShardPlan::kmerPrefix(ref, 32, max_q, 4);
    RouterConfig rcfg;
    rcfg.table = tableCfg(2);
    rcfg.min_table_bases = 512;
    rcfg.transport.kind = TransportKind::Socket;
    const ShardRouter router(ref, plan, rcfg);
    const ExmaTable single(ref, tableCfg(2));

    for (size_t s = 0; s < router.shardCount(); ++s)
        EXPECT_FALSE(router.replicaSet(s).hasTable()) << "shard " << s;
    size_t empty_ranges = 0;
    for (const PrefixRange &r : plan.prefixRanges())
        empty_ranges += r.empty();
    EXPECT_GT(empty_ranges, 0u);

    std::vector<std::vector<Base>> qs;
    for (u64 i = 0; i + max_q <= ref.size(); i += 3)
        qs.emplace_back(ref.begin() + static_cast<std::ptrdiff_t>(i),
                        ref.begin() +
                            static_cast<std::ptrdiff_t>(i + max_q));
    for (u64 len = 1; len <= 3; ++len)
        qs.emplace_back(ref.begin(),
                        ref.begin() + static_cast<std::ptrdiff_t>(len));
    qs.push_back({3, 2, 3, 2}); // TGTG: an unowned prefix
    const RoutedResult r = router.search(qs);
    EXPECT_EQ(r.degraded_queries, 0u);
    for (size_t i = 0; i < qs.size(); ++i)
        EXPECT_EQ(r.hits[i], singleTableHits(single, qs[i]))
            << "query " << i;
    EXPECT_TRUE(r.hits.back().empty());
}

/** Scoped EXMA_TRANSPORT override (the env knob Auto resolves from). */
struct TransportEnvGuard
{
    explicit TransportEnvGuard(const char *value)
    {
        ::setenv("EXMA_TRANSPORT", value, 1);
    }
    ~TransportEnvGuard() { ::unsetenv("EXMA_TRANSPORT"); }
};

TEST(SocketRouter, LoadedIndexServesWorkersFromItsOwnDirectory)
{
    const Dataset ds = makeDataset("human", 0.001);
    const auto cfg = tableCfg(ds.exma_k);
    const auto plan = ShardPlan::kmerPrefix(ds.ref, 4, kMaxQueryLen);
    RouterConfig rcfg;
    rcfg.table = cfg;
    const ShardRouter built(ds.ref, plan, rcfg);

    const fs::path dir =
        fs::temp_directory_path() /
        ("exma-socket-router-" + std::to_string(::getpid()));
    saveIndex(built, dir.string());
    // One table on disk: every shard's stem links shard 0's files.
    for (size_t s = 1; s < plan.size(); ++s)
        for (const char *ext : {kExtPac, kExtOcc, kExtSa})
            EXPECT_TRUE(
                fs::equivalent(io_detail::shardStem(dir.string(), 0) + ext,
                               io_detail::shardStem(dir.string(), s) + ext))
                << "shard " << s << ext;

    const auto qs = queryMix(ds.ref, plan.prefixLen(), 21);
    const RoutedResult expect = built.search(qs);

    {
        // A routed index loaded from a directory remembers it in its
        // RouterConfig: under EXMA_TRANSPORT=socket the workers
        // mmap-load the *same* persisted files, with no re-save.
        TransportEnvGuard env("socket");
        const LoadedIndex loaded = loadIndex(dir.string());
        ASSERT_NE(loaded.router, nullptr);
        EXPECT_EQ(loaded.router->transportKind(), TransportKind::Socket);
        EXPECT_EQ(loaded.files.size(), 3u) << "one table, mapped once";
        EXPECT_EQ(loaded.router->totalRows(), ds.ref.size() + 1);

        const RoutedResult got = loaded.router->search(qs);
        EXPECT_EQ(got.degraded_queries, 0u);
        EXPECT_EQ(got.stats, expect.stats);
        for (size_t i = 0; i < qs.size(); ++i)
            EXPECT_EQ(got.hits[i], expect.hits[i]) << "query " << i;
    }

    std::error_code ec;
    fs::remove_all(dir, ec);
}

TEST(SocketRouter, BaseCodeAboveThreeDiesOnTheCallerOnBothTransports)
{
    // Base codes are 0..3. A 4 used to alias 'A' in-process (k-mers
    // pack with & 3) while a socket worker's request encoder aborted
    // the router from a lane thread; the router now rejects it on the
    // caller's thread, naming the query and the code, on either
    // transport. Threadsafe style: the child re-runs the test instead
    // of forking a process whose lane threads would not survive.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    const Dataset ds = makeDataset("human", 0.001);
    const auto plan = ShardPlan::kmerPrefix(ds.ref, 2, kMaxQueryLen);
    const std::vector<Base> good(ds.ref.begin() + 100,
                                 ds.ref.begin() + 120);
    std::vector<Base> bad = good;
    bad[14] = 4; // inside a k-step, not the 1-step remainder
    for (const TransportKind kind :
         {TransportKind::InProcess, TransportKind::Socket}) {
        RouterConfig rcfg;
        rcfg.table = tableCfg(4);
        rcfg.transport.kind = kind;
        const ShardRouter router(ds.ref, plan, rcfg);
        ASSERT_EQ(router.transportKind(), kind);
        EXPECT_DEATH(router.search({good, bad}),
                     "query 1 holds base code 4")
            << (kind == TransportKind::Socket ? "socket" : "in-process");
    }
}

} // namespace
} // namespace exma
