// The serving lane's failure contract (the RPC seam under stress):
// futures always resolve with typed responses — WorkerDown on
// destruction with a non-empty inbox (the std::future_error regression
// this file pins), Failed with the message when the compute throws —
// plus kill(), inbox-depth accounting, and heartbeat liveness. The
// lane is Transport's, shared by both transports: the kill and
// liveness bodies run on a ShardWorker and again on an empty-state
// SocketTransport backed by a real exma-worker child.

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault_injector.hh"
#include "transport/shard_worker.hh"
#include "transport/socket_transport.hh"

namespace exma {
namespace {

const std::vector<std::vector<Base>> &
batch()
{
    static const std::vector<std::vector<Base>> queries = {
        {0, 1, 2, 3}, {1, 1}, {2}};
    return queries;
}

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

/** A future must resolve within the suite's patience, not hang CI. */
WorkerResponse
resolved(std::future<WorkerResponse> &fut)
{
    const auto status = fut.wait_for(std::chrono::seconds(60));
    EXPECT_EQ(status, std::future_status::ready)
        << "worker future never resolved";
    return fut.get();
}

/** An empty-state replica's exma-worker child: nothing to load. */
SocketTransportConfig
emptyWorkerConfig()
{
    SocketTransportConfig cfg;
    cfg.binary = discoverWorkerBinary("");
    cfg.state = "empty";
    return cfg;
}

TEST(WorkerRobustness, DestructionWithPendingInboxYieldsWorkerDown)
{
    // The first request sleeps long via an injected delay, so the
    // second and third are still queued when the worker dies. All
    // three must come back as typed WorkerDown — never a broken
    // promise surfacing as std::future_error, never a hang on the
    // injected sleep.
    ScopedFaultInjector scope(std::make_shared<FaultInjector>(
        FaultInjector::parseSpec("delay@w:ms=60000")));
    std::vector<std::future<WorkerResponse>> futs;
    {
        ShardWorker worker("w", nullptr, nullptr, nullptr);
        for (int i = 0; i < 3; ++i)
            futs.push_back(worker.submit(requestFor(batch())));
        // Destructor runs with one request mid-sleep and two queued.
    }
    for (auto &fut : futs) {
        const WorkerResponse r = resolved(fut);
        EXPECT_EQ(r.status, WorkerStatus::WorkerDown);
        EXPECT_NE(r.error.find("down"), std::string::npos);
        EXPECT_EQ(r.ids.size(), batch().size());
        EXPECT_TRUE(r.hits.empty()) << "down responses carry no hits";
    }
}

TEST(WorkerRobustness, ProcessThrowSurfacesAsFailedWithMessage)
{
    ScopedFaultInjector scope(std::make_shared<FaultInjector>(
        FaultInjector::parseSpec("throw@w:nth=1")));
    ShardWorker worker("w", nullptr, nullptr, nullptr);

    auto failing = worker.submit(requestFor(batch()));
    const WorkerResponse failed = resolved(failing);
    EXPECT_EQ(failed.status, WorkerStatus::Failed);
    EXPECT_NE(failed.error.find("injected fault"), std::string::npos);
    EXPECT_NE(failed.error.find("'w'"), std::string::npos);

    // The worker survives the throw: the next request is served.
    auto fine = worker.submit(requestFor(batch()));
    const WorkerResponse ok = resolved(fine);
    EXPECT_EQ(ok.status, WorkerStatus::Ok);
    EXPECT_EQ(ok.hits.size(), batch().size());
    EXPECT_EQ(responseCanary(ok), ok.canary);
    EXPECT_EQ(worker.processed(), 2u)
        << "Failed requests still count as consumed";
}

/** A request parked in an injected delay and one queued behind it
 *  both resolve WorkerDown on kill(); a dead replica refuses new work. */
void
expectKillFailsQueuedAndRefusesNewSubmissions(Transport &worker)
{
    ScopedFaultInjector scope(std::make_shared<FaultInjector>(
        FaultInjector::parseSpec("delay@" + worker.name() + ":ms=60000")));
    auto in_flight = worker.submit(requestFor(batch()));
    auto queued = worker.submit(requestFor(batch()));

    worker.kill();
    EXPECT_TRUE(worker.isDead());
    EXPECT_EQ(resolved(in_flight).status, WorkerStatus::WorkerDown)
        << "kill must cancel the injected sleep";
    EXPECT_EQ(resolved(queued).status, WorkerStatus::WorkerDown);

    auto refused = worker.submit(requestFor(batch()));
    EXPECT_EQ(resolved(refused).status, WorkerStatus::WorkerDown)
        << "submitting to a dead worker resolves immediately";
    EXPECT_EQ(worker.inboxDepth(), 0u);
    EXPECT_EQ(worker.processed(), 0u);
}

TEST(WorkerRobustness, KillFailsQueuedAndRefusesNewSubmissions)
{
    ShardWorker worker("w", nullptr, nullptr, nullptr);
    expectKillFailsQueuedAndRefusesNewSubmissions(worker);
}

TEST(WorkerRobustness, SocketKillFailsQueuedAndRefusesNewSubmissions)
{
    SocketTransport worker("w", emptyWorkerConfig(), false, true);
    expectKillFailsQueuedAndRefusesNewSubmissions(worker);
}

/** One served request ticks the heartbeat at dequeue and completion
 *  and leaves nothing queued. */
void
expectServedRequestsAdvanceHeartbeatAndDrainDepth(Transport &worker)
{
    EXPECT_EQ(worker.heartbeat(), 0u);
    auto fut = worker.submit(requestFor(batch()));
    const WorkerResponse r = resolved(fut);
    EXPECT_EQ(r.status, WorkerStatus::Ok);
    EXPECT_EQ(worker.inboxDepth(), 0u);
    EXPECT_GE(worker.heartbeat(), 2u)
        << "dequeue and completion both tick";
    EXPECT_EQ(worker.processed(), 1u);
}

TEST(WorkerRobustness, ServedRequestsAdvanceHeartbeatAndDrainDepth)
{
    ShardWorker worker("w", nullptr, nullptr, nullptr);
    expectServedRequestsAdvanceHeartbeatAndDrainDepth(worker);
}

TEST(WorkerRobustness, SocketServedRequestsAdvanceHeartbeatAndDrainDepth)
{
    SocketTransport worker("w", emptyWorkerConfig(), false, true);
    expectServedRequestsAdvanceHeartbeatAndDrainDepth(worker);
}

TEST(WorkerRobustness, CanaryDetectsCorruptedResponse)
{
    ScopedFaultInjector scope(std::make_shared<FaultInjector>(
        FaultInjector::parseSpec("corrupt@w:nth=1")));
    ShardWorker worker("w", nullptr, nullptr, nullptr);
    auto fut = worker.submit(requestFor(batch()));
    const WorkerResponse r = resolved(fut);
    EXPECT_EQ(r.status, WorkerStatus::Ok)
        << "corruption is silent at the transport layer";
    EXPECT_NE(responseCanary(r), r.canary)
        << "recomputing the canary must expose the corruption";
}

} // namespace
} // namespace exma
