// Two independent loads of the same on-disk index map the same
// companion files (MAP_SHARED of a read-only fd) and must serve
// differential-identical results concurrently — the multi-worker
// serving model the persistent format exists for. Runs under TSan via
// the `concurrency` label: a write anywhere through the shared
// mappings, or unsynchronized mutable state in the restore path, is a
// reported race, not just a wrong answer.

#include <gtest/gtest.h>

#include <filesystem>
#include <thread>
#include <vector>

#include "common/rng.hh"
#include "genome/reference.hh"
#include "persist/index_io.hh"

namespace exma {
namespace {

TEST(MmapConcurrencyTest, TwoLoadersServeIdenticalResults)
{
    ReferenceSpec spec;
    spec.length = 1 << 16;
    spec.repeat_fraction = 0.5;
    spec.seed = 91;
    const std::vector<Base> ref = generateReference(spec);

    ExmaTable::Config table_cfg;
    table_cfg.k = 4;
    table_cfg.mode = OccIndexMode::Exact;
    const ShardPlan plan = ShardPlan::kmerPrefix(ref, 4, 64);
    RouterConfig cfg;
    cfg.table = table_cfg;
    const ShardRouter built(ref, plan, cfg);

    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) / "mmap_concurrency";
    std::filesystem::remove_all(dir);
    saveIndex(built, dir.string());

    Rng rng(17);
    std::vector<std::vector<Base>> queries(64);
    for (auto &q : queries) {
        const u64 pos = rng.below(ref.size() - 32 + 1);
        q.assign(ref.begin() + static_cast<long>(pos),
                 ref.begin() + static_cast<long>(pos + 32));
    }
    const RoutedResult expect = built.search(queries);

    // Each loader maps the same files; the kernel shares the pages.
    const LoadedIndex a = loadIndex(dir.string());
    const LoadedIndex b = loadIndex(dir.string());
    ASSERT_NE(a.router, nullptr);
    ASSERT_NE(b.router, nullptr);

    RoutedResult ra, rb;
    std::thread ta([&] { ra = a.router->search(queries); });
    std::thread tb([&] { rb = b.router->search(queries); });
    ta.join();
    tb.join();

    EXPECT_EQ(ra.hits, expect.hits);
    EXPECT_EQ(rb.hits, expect.hits);
    EXPECT_EQ(ra.stats, expect.stats);
    EXPECT_EQ(rb.stats, expect.stats);
    for (const auto &h : expect.hits)
        EXPECT_FALSE(h.empty());
}

TEST(MmapConcurrencyTest, OneLoadedIndexSharedByTwoThreads)
{
    ReferenceSpec spec;
    spec.length = 1 << 15;
    spec.repeat_fraction = 0.4;
    spec.seed = 92;
    const std::vector<Base> ref = generateReference(spec);

    RouterConfig cfg;
    cfg.table.k = 4;
    cfg.table.mode = OccIndexMode::Exact;
    const ShardRouter router(ref, ShardPlan::kmerPrefix(ref, 1, 64), cfg);
    const ExmaTable &built = *router.shardTable(0);

    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) / "mmap_shared";
    std::filesystem::remove_all(dir);
    saveIndex(router, dir.string());
    const LoadedIndex loaded = loadIndex(dir.string());
    ASSERT_NE(loaded.router, nullptr);
    const ExmaTable *table = loaded.router->shardTable(0);
    ASSERT_NE(table, nullptr);

    Rng rng(23);
    std::vector<std::vector<Base>> queries(48);
    for (auto &q : queries) {
        const u64 pos = rng.below(ref.size() - 24 + 1);
        q.assign(ref.begin() + static_cast<long>(pos),
                 ref.begin() + static_cast<long>(pos + 24));
    }

    // const searches over one borrowed-backing table from two threads.
    auto run = [&](std::vector<std::vector<u64>> &out) {
        out.resize(queries.size());
        for (size_t i = 0; i < queries.size(); ++i) {
            const Interval iv = table->search(queries[i]);
            out[i] = table->locateAllGlobal(iv, queries[i].size());
        }
    };
    std::vector<std::vector<u64>> ha, hb;
    std::thread ta([&] { run(ha); });
    std::thread tb([&] { run(hb); });
    ta.join();
    tb.join();

    for (size_t i = 0; i < queries.size(); ++i) {
        const Interval iv = built.search(queries[i]);
        const std::vector<u64> want =
            built.locateAllGlobal(iv, queries[i].size());
        EXPECT_FALSE(want.empty());
        EXPECT_EQ(ha[i], want);
        EXPECT_EQ(hb[i], want);
    }
}

} // namespace
} // namespace exma
