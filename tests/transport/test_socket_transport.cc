// SocketTransport against real exma-worker child processes: a scan
// shard served over the wire must answer bit-identically to the
// in-process ShardWorker over the same shard state, and the PR-8
// fault kinds — now real signals and broken channels — must surface
// through the exact same typed-Response contract the failover tier
// already speaks.

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault_injector.hh"
#include "io/table_io.hh"
#include "transport/shard_worker.hh"
#include "transport/socket_transport.hh"

namespace exma {
namespace {

namespace fs = std::filesystem;

/** A persisted scan shard (text + slice) in an owned temp dir. */
struct ScanFixture
{
    std::vector<Base> text;
    TextSegment slice;
    fs::path dir;
    std::string stem;

    ScanFixture()
    {
        u64 seed = 7;
        text.resize(512);
        for (auto &b : text) {
            seed = seed * 6364136223846793005ULL +
                   1442695040888963407ULL;
            b = static_cast<Base>(seed >> 62);
        }
        slice = {100, 512};

        static int instance = 0;
        dir = fs::temp_directory_path() /
              ("exma-socket-test-" + std::to_string(::getpid()) + "-" +
               std::to_string(instance++));
        fs::create_directories(dir);
        stem = (dir / "shard0000").string();
        saveScanFiles(text, slice, stem);
    }

    ~ScanFixture()
    {
        std::error_code ec;
        fs::remove_all(dir, ec);
    }

    /** Queries cut from the text (guaranteed hits) plus one absent. */
    std::vector<std::vector<Base>> queries() const
    {
        std::vector<std::vector<Base>> qs;
        qs.emplace_back(text.begin() + 10, text.begin() + 18);
        qs.emplace_back(text.begin() + 300, text.begin() + 309);
        // 16 of the same base in a row is absent from LCG output at
        // this length with this seed; even if it were not, both
        // transports scan the same text, so the differential holds.
        qs.emplace_back(std::vector<Base>(16, 2));
        return qs;
    }
};

WorkerRequest
requestFor(const std::vector<std::vector<Base>> &queries)
{
    WorkerRequest req;
    std::vector<u32> ids;
    for (u32 i = 0; i < queries.size(); ++i)
        ids.push_back(i);
    req.batch = QueryBatchView::borrow(queries, std::move(ids));
    return req;
}

WorkerResponse
resolved(std::future<WorkerResponse> &fut)
{
    const auto status = fut.wait_for(std::chrono::seconds(120));
    EXPECT_EQ(status, std::future_status::ready)
        << "transport future never resolved";
    return fut.get();
}

std::shared_ptr<SocketTransport>
spawnScanWorker(const std::string &name, const ScanFixture &fx)
{
    SocketTransportConfig cfg;
    cfg.binary = discoverWorkerBinary("");
    cfg.stem = fx.stem;
    cfg.state = "scan";
    return std::make_shared<SocketTransport>(name, cfg, false, false);
}

TEST(SocketTransport, ScanShardMatchesInProcessWorkerBitForBit)
{
    const ScanFixture fx;
    const auto queries = fx.queries();

    ShardWorker oracle("oracle", {nullptr, &fx.text, fx.slice.global_begin});
    auto oracle_fut = oracle.submit(requestFor(queries));
    const WorkerResponse expect = resolved(oracle_fut);
    ASSERT_EQ(expect.status, WorkerStatus::Ok);
    ASSERT_FALSE(expect.hits[0].empty()) << "fixture query must hit";

    auto sock = spawnScanWorker("s", fx);
    auto fut = sock->submit(requestFor(queries));
    const WorkerResponse got = resolved(fut);

    EXPECT_EQ(got.status, WorkerStatus::Ok);
    EXPECT_EQ(got.ids, expect.ids);
    EXPECT_EQ(got.hits, expect.hits);
    EXPECT_EQ(got.stats, expect.stats);
    // The child stamped the canary before encoding; it must verify by
    // recompute on the parent side after the wire trip.
    EXPECT_EQ(responseCanary(got), got.canary);
    EXPECT_EQ(sock->processed(), 1u);
    EXPECT_EQ(sock->inboxDepth(), 0u);
    EXPECT_FALSE(sock->isDead());
}

// An empty pattern matches at every position, one past the last base
// included. The router never sends one; a worker that gets one must
// answer Failed instead of locating every row.
TEST(SocketTransport, InProcessWorkerFailsAnEmptyQuery)
{
    const ScanFixture fx;
    ExmaTable::Config cfg;
    cfg.k = 4;
    cfg.mode = OccIndexMode::Exact;
    const ExmaTable table(fx.text, cfg);
    ShardWorker worker("w", {&table, nullptr, 0});

    const std::vector<std::vector<Base>> queries = {{0, 1, 2}, {}};
    auto fut = worker.submit(requestFor(queries));
    const WorkerResponse r = resolved(fut);
    EXPECT_EQ(r.status, WorkerStatus::Failed);
    EXPECT_NE(r.error.find("empty"), std::string::npos) << r.error;
    EXPECT_TRUE(r.hits.empty());
}

TEST(SocketTransport, SocketWorkerFailsAnEmptyQuery)
{
    const ScanFixture fx;
    const auto good = fx.queries();
    auto with_empty = good;
    with_empty.emplace_back();
    auto sock = spawnScanWorker("s", fx);

    auto fut = sock->submit(requestFor(with_empty));
    const WorkerResponse r = resolved(fut);
    EXPECT_EQ(r.status, WorkerStatus::Failed);
    EXPECT_NE(r.error.find("empty"), std::string::npos) << r.error;
    EXPECT_TRUE(r.hits.empty());

    // A refused request is compute failing, not the channel: the child
    // stays up and serves the next one.
    auto fine = sock->submit(requestFor(good));
    EXPECT_EQ(resolved(fine).status, WorkerStatus::Ok);
    EXPECT_FALSE(sock->isDead());
}

TEST(SocketTransport, EmptyShardServesHitlessRows)
{
    const ScanFixture fx;
    const auto queries = fx.queries();

    SocketTransportConfig cfg;
    cfg.binary = discoverWorkerBinary("");
    cfg.state = "empty"; // no stem: nothing to load
    SocketTransport sock("e", cfg, false, true);
    EXPECT_TRUE(sock.isEmpty());
    EXPECT_FALSE(sock.hasTable());

    auto fut = sock.submit(requestFor(queries));
    const WorkerResponse r = resolved(fut);
    ASSERT_EQ(r.status, WorkerStatus::Ok);
    EXPECT_EQ(r.ids.size(), queries.size());
    ASSERT_EQ(r.hits.size(), queries.size());
    for (const auto &row : r.hits)
        EXPECT_TRUE(row.empty());
    EXPECT_EQ(responseCanary(r), r.canary);
}

TEST(SocketTransport, KillFaultIsARealSignalAndResolvesWorkerDown)
{
    const ScanFixture fx;
    const auto queries = fx.queries(); // outlives the borrowed views
    ScopedFaultInjector scope(std::make_shared<FaultInjector>(
        FaultInjector::parseSpec("kill@s:nth=1")));
    auto sock = spawnScanWorker("s", fx);

    auto fut = sock->submit(requestFor(queries));
    const WorkerResponse r = resolved(fut);
    EXPECT_EQ(r.status, WorkerStatus::WorkerDown);
    EXPECT_NE(r.error.find("down"), std::string::npos);
    EXPECT_TRUE(sock->isDead());

    // A dead transport refuses new submissions immediately.
    auto refused = sock->submit(requestFor(queries));
    EXPECT_EQ(resolved(refused).status, WorkerStatus::WorkerDown);
    EXPECT_EQ(sock->processed(), 0u);
    EXPECT_EQ(sock->inboxDepth(), 0u);
}

TEST(SocketTransport, ThrowFaultMatchesTheInProcessContract)
{
    const ScanFixture fx;
    const auto queries = fx.queries(); // outlives the borrowed views
    ScopedFaultInjector scope(std::make_shared<FaultInjector>(
        FaultInjector::parseSpec("throw@s:nth=1")));
    auto sock = spawnScanWorker("s", fx);

    // Same message, same semantics as the in-process worker: the
    // fault models compute throwing, not the channel — the child
    // stays alive and nothing respawns.
    auto failing = sock->submit(requestFor(queries));
    const WorkerResponse failed = resolved(failing);
    EXPECT_EQ(failed.status, WorkerStatus::Failed);
    EXPECT_EQ(failed.error,
              "injected fault: process() threw in worker 's'");
    EXPECT_EQ(failed.ids.size(), queries.size());

    auto fine = sock->submit(requestFor(queries));
    const WorkerResponse ok = resolved(fine);
    EXPECT_EQ(ok.status, WorkerStatus::Ok);
    EXPECT_FALSE(ok.hits[0].empty());
    EXPECT_EQ(sock->processed(), 2u)
        << "Failed requests still count as consumed";
    EXPECT_FALSE(sock->isDead());
}

TEST(SocketTransport, CorruptResponseIsCaughtByCanaryRecompute)
{
    const ScanFixture fx;
    const auto queries = fx.queries(); // outlives the borrowed views
    ScopedFaultInjector scope(std::make_shared<FaultInjector>(
        FaultInjector::parseSpec("corrupt@s:nth=1")));
    auto sock = spawnScanWorker("s", fx);

    auto fut = sock->submit(requestFor(queries));
    const WorkerResponse r = resolved(fut);
    EXPECT_EQ(r.status, WorkerStatus::Ok)
        << "corruption is silent at the transport layer";
    EXPECT_NE(responseCanary(r), r.canary)
        << "recomputing the canary must expose the corruption";
}

TEST(SocketTransport, MissingBinaryResolvesWorkerDownGracefully)
{
    const ScanFixture fx;
    const auto queries = fx.queries(); // outlives the borrowed views
    SocketTransportConfig cfg;
    cfg.binary = "/nonexistent/exma-worker";
    cfg.stem = fx.stem;
    cfg.state = "scan";
    SocketTransport sock("b", cfg, false, false);

    // A replica that cannot come up is the same signal as one that
    // crashed at startup: WorkerDown, absorbed by the failover tier.
    auto fut = sock.submit(requestFor(queries));
    EXPECT_EQ(resolved(fut).status, WorkerStatus::WorkerDown);
    EXPECT_TRUE(sock.isDead());
}

TEST(SocketTransport, DestructionWithPendingInboxYieldsWorkerDown)
{
    const ScanFixture fx;
    const auto queries = fx.queries(); // outlives the borrowed views
    ScopedFaultInjector scope(std::make_shared<FaultInjector>(
        FaultInjector::parseSpec("delay@s:ms=60000")));
    std::vector<std::future<WorkerResponse>> futs;
    {
        auto sock = spawnScanWorker("s", fx);
        for (int i = 0; i < 3; ++i)
            futs.push_back(sock->submit(requestFor(queries)));
        // Destructor runs with one request mid-sleep and two queued.
    }
    for (auto &fut : futs) {
        const WorkerResponse r = resolved(fut);
        EXPECT_EQ(r.status, WorkerStatus::WorkerDown);
        EXPECT_EQ(r.ids.size(), queries.size());
        EXPECT_TRUE(r.hits.empty()) << "down responses carry no hits";
    }
}

} // namespace
} // namespace exma
