// The fault-injection harness itself (src/fault/): spec parsing,
// counter-based trigger semantics, wildcard sites, scoped install, the
// disabled fast path, cancellable sleeps, and the mmap-load hook
// ("io.load") failing closed with a path-bearing LoadError.

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hh"
#include "fault/fault_injector.hh"
#include "genome/reference.hh"
#include "persist/index_io.hh"
#include "io/mapped_file.hh"

namespace exma {
namespace {

namespace fs = std::filesystem;

TEST(FaultSpec, ParsesKindsSitesAndOptions)
{
    const auto rules = FaultInjector::parseSpec(
        "kill@shard01/r0:nth=3,delay@*:ms=5:every=10,"
        "hang@io.load,throw@a*,corrupt@s:nth=2:every=2");
    ASSERT_EQ(rules.size(), 5u);

    EXPECT_EQ(rules[0].kind, FaultKind::KillWorker);
    EXPECT_EQ(rules[0].site, "shard01/r0");
    EXPECT_EQ(rules[0].nth, 3u);
    EXPECT_EQ(rules[0].every, 0u);

    EXPECT_EQ(rules[1].kind, FaultKind::DelayMs);
    EXPECT_EQ(rules[1].site, "*");
    EXPECT_EQ(rules[1].ms, 5u);
    EXPECT_EQ(rules[1].every, 10u);

    EXPECT_EQ(rules[2].kind, FaultKind::HangRequest);
    EXPECT_EQ(rules[2].ms, 600'000u) << "hang defaults to a long sleep";

    EXPECT_EQ(rules[3].kind, FaultKind::ThrowInProcess);
    EXPECT_EQ(rules[3].site, "a*");

    EXPECT_EQ(rules[4].kind, FaultKind::CorruptResponse);
    EXPECT_EQ(rules[4].nth, 2u);
    EXPECT_EQ(rules[4].every, 2u);
}

TEST(FaultSpec, EmptyAndBlankEntriesParseToNothing)
{
    EXPECT_TRUE(FaultInjector::parseSpec("").empty());
    EXPECT_TRUE(FaultInjector::parseSpec(",,").empty());
}

TEST(FaultSpec, DelayDefaultsToTwentyMs)
{
    const auto rules = FaultInjector::parseSpec("delay@x");
    ASSERT_EQ(rules.size(), 1u);
    EXPECT_EQ(rules[0].ms, 20u);
}

TEST(FaultRuleTest, SiteMatching)
{
    FaultRule rule;
    rule.site = "shard00*";
    EXPECT_TRUE(rule.matches("shard00/r0"));
    EXPECT_TRUE(rule.matches("shard00"));
    EXPECT_FALSE(rule.matches("shard01/r0"));
    rule.site = "*";
    EXPECT_TRUE(rule.matches("anything"));
    rule.site = "io.load";
    EXPECT_TRUE(rule.matches("io.load"));
    EXPECT_FALSE(rule.matches("io.load2"));
}

TEST(FaultInjectorTest, NthAndEveryCounterSemantics)
{
    FaultRule once;
    once.kind = FaultKind::KillWorker;
    once.site = "w";
    once.nth = 2;
    FaultRule periodic;
    periodic.kind = FaultKind::DelayMs;
    periodic.site = "w";
    periodic.nth = 3;
    periodic.every = 2;
    periodic.ms = 7;
    FaultInjector fi({once, periodic});

    std::vector<size_t> fired_counts;
    for (int hit = 1; hit <= 8; ++hit)
        fired_counts.push_back(fi.at("w").size());
    // hit:      1  2      3        4  5        6  7        8
    // once:        kill
    // periodic:           delay       delay       delay
    EXPECT_EQ(fired_counts,
              (std::vector<size_t>{0, 1, 1, 0, 1, 0, 1, 0}));
    EXPECT_EQ(fi.hits("w"), 8u);
    EXPECT_EQ(fi.hits("elsewhere"), 0u);
}

TEST(FaultInjectorTest, WildcardCountsPerConcreteSite)
{
    FaultRule rule;
    rule.kind = FaultKind::ThrowInProcess;
    rule.site = "shard*";
    rule.nth = 2;
    FaultInjector fi({rule});

    EXPECT_TRUE(fi.at("shard00/r0").empty()) << "first hit of r0";
    EXPECT_TRUE(fi.at("shard00/r1").empty()) << "first hit of r1";
    EXPECT_EQ(fi.at("shard00/r0").size(), 1u) << "second hit of r0";
    EXPECT_EQ(fi.at("shard00/r1").size(), 1u) << "second hit of r1";
    EXPECT_TRUE(fi.at("io.load").empty()) << "site not matched";
}

TEST(FaultInjectorTest, ActionCarriesKindAndMs)
{
    FaultRule rule;
    rule.kind = FaultKind::DelayMs;
    rule.site = "w";
    rule.ms = 42;
    FaultInjector fi({rule});
    const auto actions = fi.at("w");
    ASSERT_EQ(actions.size(), 1u);
    EXPECT_EQ(actions[0].kind, FaultKind::DelayMs);
    EXPECT_EQ(actions[0].ms, 42u);
}

TEST(FaultInjectorTest, ScopedInstallRestoresPrevious)
{
    ASSERT_EQ(faultInjector(), nullptr)
        << "tests must start with no global injector";
    auto inner = std::make_shared<FaultInjector>(
        FaultInjector::parseSpec("kill@w"));
    {
        ScopedFaultInjector scope(inner);
        EXPECT_EQ(faultInjector(), inner.get());
        {
            ScopedFaultInjector nested(nullptr);
            EXPECT_EQ(faultInjector(), nullptr);
        }
        EXPECT_EQ(faultInjector(), inner.get());
    }
    EXPECT_EQ(faultInjector(), nullptr);
}

TEST(CancelTokenTest, FullSleepElapsesCancelCutsShort)
{
    CancelToken token;
    EXPECT_TRUE(token.sleepFor(1));
    EXPECT_FALSE(token.cancelled());

    std::thread canceller([&token] {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        token.cancel();
    });
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_FALSE(token.sleepFor(60'000));
    const auto waited = std::chrono::steady_clock::now() - t0;
    canceller.join();
    EXPECT_LT(waited, std::chrono::seconds(30))
        << "cancel must cut the sleep short";
    EXPECT_TRUE(token.cancelled());
    EXPECT_FALSE(token.sleepFor(1)) << "cancelled tokens never sleep";
}

// --- the mmap load-path hook -------------------------------------------

std::string
tempDir(const std::string &name)
{
    const fs::path dir = fs::path(::testing::TempDir()) / name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

TEST(LoadFaultTest, ThrowAtIoLoadFailsClosedWithPathContext)
{
    ReferenceSpec spec;
    spec.length = 1 << 12;
    spec.seed = 21;
    const std::vector<Base> ref = generateReference(spec);
    RouterConfig cfg;
    cfg.table.k = 3;
    const ShardRouter router(ref, ShardPlan::kmerPrefix(ref, 1, 64), cfg);
    const std::string dir = tempDir("fault_io_load");
    saveIndex(router, dir);

    // First load fires the injected fault; the second (rule is
    // nth=1, once) succeeds — a flaky mount, not a corrupt index.
    ScopedFaultInjector scope(std::make_shared<FaultInjector>(
        FaultInjector::parseSpec("throw@io.load")));
    try {
        loadIndex(dir);
        FAIL() << "injected load fault did not throw";
    } catch (const LoadError &e) {
        EXPECT_NE(std::string(e.what()).find(dir), std::string::npos)
            << "LoadError must name the failing path: " << e.what();
    }
    const LoadedIndex idx = loadIndex(dir);
    EXPECT_NE(idx.router, nullptr);
}

TEST(LoadFaultTest, DelayAtIoLoadOnlySlowsTheLoad)
{
    ReferenceSpec spec;
    spec.length = 1 << 12;
    spec.seed = 22;
    const std::vector<Base> ref = generateReference(spec);
    RouterConfig cfg;
    cfg.table.k = 3;
    const ShardRouter router(ref, ShardPlan::kmerPrefix(ref, 1, 64), cfg);
    const std::string dir = tempDir("fault_io_delay");
    saveIndex(router, dir);

    ScopedFaultInjector scope(std::make_shared<FaultInjector>(
        FaultInjector::parseSpec("delay@io.load:ms=10")));
    const LoadedIndex idx = loadIndex(dir);
    EXPECT_NE(idx.router, nullptr);
    EXPECT_GE(idx.load_seconds, 0.01);
}

} // namespace
} // namespace exma
