// The serving lane's failure contract (the RPC seam under stress):
// every submit() completion runs exactly once with a typed response —
// WorkerDown on destruction with a non-empty inbox (the
// std::future_error regression this file pins), Failed with the
// message when the compute throws — plus kill(), inbox-depth
// accounting, and heartbeat liveness. The future-returning submit() is
// an adapter over the completion one, so the future cases exercise
// both. The lane is Transport's, shared by both transports: the
// completion, kill and liveness bodies run on a ShardWorker and again
// on an empty-state SocketTransport backed by a real exma-worker child.
// serveHere(), which runs the same serve path on the calling thread,
// must complete on that thread and leave the same counters.

#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
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

/** Counts each completion's runs and keeps its last status. */
class CompletionLog
{
  public:
    static constexpr size_t kSlots = 8;

    /** A completion for request @p slot; the log outlives its run. */
    Transport::Completion
    completion(size_t slot)
    {
        return [this, slot](WorkerResponse r) {
            std::lock_guard<std::mutex> lock(mtx_);
            ++runs_[slot];
            status_[slot] = r.status;
            cv_.notify_all();
        };
    }

    /** Runs of @p slot, after waiting (bounded) for the first. */
    int
    awaitRuns(size_t slot)
    {
        std::unique_lock<std::mutex> lock(mtx_);
        cv_.wait_for(lock, std::chrono::seconds(60),
                     [&] { return runs_[slot] > 0; });
        return runs_[slot];
    }

    /** Runs of @p slot so far, without waiting. */
    int
    runs(size_t slot)
    {
        std::lock_guard<std::mutex> lock(mtx_);
        return runs_[slot];
    }

    WorkerStatus
    status(size_t slot)
    {
        std::lock_guard<std::mutex> lock(mtx_);
        return status_[slot];
    }

  private:
    std::mutex mtx_;
    std::condition_variable cv_;
    std::array<int, kSlots> runs_{};
    std::array<WorkerStatus, kSlots> status_{};
};

/** Builds a transport named after its fault-injection site. */
using MakeTransport =
    std::function<std::unique_ptr<Transport>(const std::string &name)>;

/**
 * Every completion runs exactly once, on every path: Ok; Failed (an
 * injected throw); WorkerDown for the requests kill() drains;
 * WorkerDown for a submit to a dead replica, before submit() returns;
 * WorkerDown at destruction with a non-empty inbox. The counts are
 * read after both transports are gone, so a second run would have
 * happened by then.
 */
void
expectEveryCompletionRunsExactlyOnce(const MakeTransport &make)
{
    ScopedFaultInjector scope(
        std::make_shared<FaultInjector>(FaultInjector::parseSpec(
            "throw@a:nth=2,delay@a:nth=3:ms=60000,delay@b:ms=60000")));
    CompletionLog log;
    {
        const auto a = make("a");
        a->submit(requestFor(batch()), log.completion(0)); // Ok
        a->submit(requestFor(batch()), log.completion(1)); // throws
        EXPECT_EQ(log.awaitRuns(0), 1);
        EXPECT_EQ(log.awaitRuns(1), 1);
        a->submit(requestFor(batch()), log.completion(2)); // sleeps
        a->submit(requestFor(batch()), log.completion(3)); // queued
        a->kill();
        a->submit(requestFor(batch()), log.completion(4)); // dead
        EXPECT_EQ(log.runs(4), 1)
            << "a dead replica completes before submit() returns";

        const auto b = make("b");
        for (size_t slot = 5; slot < CompletionLog::kSlots; ++slot)
            b->submit(requestFor(batch()), log.completion(slot));
        // b is destroyed here with one request asleep and two queued.
    }
    EXPECT_EQ(log.status(0), WorkerStatus::Ok);
    EXPECT_EQ(log.status(1), WorkerStatus::Failed);
    for (size_t slot = 0; slot < CompletionLog::kSlots; ++slot) {
        EXPECT_EQ(log.runs(slot), 1) << "request " << slot;
        if (slot >= 2) {
            EXPECT_EQ(log.status(slot), WorkerStatus::WorkerDown)
                << "request " << slot;
        }
    }
}

TEST(WorkerRobustness, EveryCompletionRunsExactlyOnce)
{
    expectEveryCompletionRunsExactlyOnce([](const std::string &name) {
        return std::make_unique<ShardWorker>(name, ShardState{});
    });
}

TEST(WorkerRobustness, SocketEveryCompletionRunsExactlyOnce)
{
    expectEveryCompletionRunsExactlyOnce([](const std::string &name) {
        return std::make_unique<SocketTransport>(name, emptyWorkerConfig(),
                                                 false, true);
    });
}

/**
 * A completion may submit to its own transport: no transport lock is
 * held while it runs, whether on the lane thread (a live replica) or
 * inside submit() (a dead one). A held lock would deadlock here.
 */
void
expectCompletionMaySubmitToItsOwnTransport(Transport &worker)
{
    CompletionLog log;
    const auto resubmitting = [&worker, &log](size_t slot) {
        return [&worker, &log, slot](WorkerResponse r) {
            worker.submit(requestFor(batch()), log.completion(slot + 1));
            log.completion(slot)(std::move(r));
        };
    };
    worker.submit(requestFor(batch()), resubmitting(0));
    EXPECT_EQ(log.awaitRuns(1), 1);
    EXPECT_EQ(log.status(0), WorkerStatus::Ok);
    EXPECT_EQ(log.status(1), WorkerStatus::Ok);

    worker.kill();
    worker.submit(requestFor(batch()), resubmitting(2));
    EXPECT_EQ(log.runs(2), 1);
    EXPECT_EQ(log.runs(3), 1) << "the nested submit completes inline too";
    EXPECT_EQ(log.status(3), WorkerStatus::WorkerDown);
}

TEST(WorkerRobustness, CompletionMaySubmitToItsOwnTransport)
{
    ShardWorker worker("w", ShardState{});
    expectCompletionMaySubmitToItsOwnTransport(worker);
}

TEST(WorkerRobustness, SocketCompletionMaySubmitToItsOwnTransport)
{
    SocketTransport worker("w", emptyWorkerConfig(), false, true);
    expectCompletionMaySubmitToItsOwnTransport(worker);
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
        ShardWorker worker("w", ShardState{});
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
    ShardWorker worker("w", ShardState{});

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
    ShardWorker worker("w", ShardState{});
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
    ShardWorker worker("w", ShardState{});
    expectServedRequestsAdvanceHeartbeatAndDrainDepth(worker);
}

TEST(WorkerRobustness, SocketServedRequestsAdvanceHeartbeatAndDrainDepth)
{
    SocketTransport worker("w", emptyWorkerConfig(), false, true);
    expectServedRequestsAdvanceHeartbeatAndDrainDepth(worker);
}

/**
 * serveHere() runs the lane's serve path on the calling thread. Each
 * outcome — Ok, Failed (an injected throw), WorkerDown (an injected
 * kill), WorkerDown (the replica already dead) — completes exactly
 * once, on the caller, before the call returns, and leaves the
 * counters where a lane-served request under the same fault plan
 * leaves them.
 */
TEST(WorkerRobustness, ServeHereCompletesEveryOutcomeOnTheCaller)
{
    // Per site: the 2nd request throws, the 3rd kills the replica, and
    // the 4th finds it dead.
    ScopedFaultInjector scope(std::make_shared<FaultInjector>(
        FaultInjector::parseSpec("throw@*:nth=2,kill@*:nth=3")));
    const std::vector<Base> text = {0, 1, 2, 3, 1, 1, 2, 0, 1, 1};
    const ShardState st{nullptr, &text, 100};
    ShardWorker lane("lane", st);
    ShardWorker here("here", st);
    const auto caller = std::this_thread::get_id();
    const std::array<WorkerStatus, 4> expected = {
        WorkerStatus::Ok, WorkerStatus::Failed, WorkerStatus::WorkerDown,
        WorkerStatus::WorkerDown};
    for (size_t i = 0; i < expected.size(); ++i) {
        auto fut = lane.submit(requestFor(batch()));
        const WorkerResponse want = resolved(fut);
        int runs = 0;
        std::thread::id ran_on;
        WorkerResponse got;
        here.serveHere(requestFor(batch()), [&](WorkerResponse r) {
            ++runs;
            ran_on = std::this_thread::get_id();
            got = std::move(r);
        });
        EXPECT_EQ(runs, 1) << "request " << i;
        EXPECT_EQ(ran_on, caller) << "request " << i;
        EXPECT_EQ(want.status, expected[i]) << "request " << i;
        EXPECT_EQ(got.status, expected[i]) << "request " << i;
        EXPECT_EQ(got.ids, want.ids) << "request " << i;
        EXPECT_EQ(got.hits, want.hits) << "request " << i;
        if (got.ok()) {
            ASSERT_EQ(got.hits.size(), batch().size());
            EXPECT_EQ(got.hits[0], std::vector<u64>{100})
                << "{0,1,2,3} lies at the slice's first base";
        }
        EXPECT_EQ(here.processed(), lane.processed()) << "request " << i;
        EXPECT_EQ(here.heartbeat(), lane.heartbeat()) << "request " << i;
        EXPECT_EQ(here.inboxDepth(), 0u) << "request " << i;
        EXPECT_EQ(lane.inboxDepth(), 0u) << "request " << i;
    }
    EXPECT_EQ(here.processed(), 2u) << "Ok and Failed count as served";
    EXPECT_TRUE(here.isDead());
}

/** An injected delay sleeps on the thread that called serveHere(),
 *  and a kill() from another thread cuts it short with WorkerDown. */
TEST(WorkerRobustness, ServeHereDelayIsCutShortByAConcurrentKill)
{
    const auto injector = std::make_shared<FaultInjector>(
        FaultInjector::parseSpec("delay@w:ms=60000"));
    ScopedFaultInjector scope(injector);
    ShardWorker worker("w", ShardState{});
    constexpr auto kAsleep = std::chrono::milliseconds(50);
    std::thread killer([&worker, kAsleep] {
        // In flight from the moment serveHere() counts it; by kAsleep
        // later the caller sleeps in the injected delay.
        while (worker.inboxDepth() == 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        std::this_thread::sleep_for(kAsleep);
        worker.kill();
    });
    const auto caller = std::this_thread::get_id();
    int runs = 0;
    std::thread::id ran_on;
    WorkerStatus status = WorkerStatus::Ok;
    const auto t0 = std::chrono::steady_clock::now();
    worker.serveHere(requestFor(batch()), [&](WorkerResponse r) {
        ++runs;
        ran_on = std::this_thread::get_id();
        status = r.status;
    });
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    killer.join();

    EXPECT_EQ(runs, 1);
    EXPECT_EQ(ran_on, caller);
    EXPECT_EQ(status, WorkerStatus::WorkerDown);
    EXPECT_EQ(injector->hits("w"), 1u) << "the delay fired once";
    EXPECT_GE(elapsed, kAsleep) << "the caller never slept in the delay";
    EXPECT_LT(elapsed, std::chrono::seconds(30))
        << "kill() must cut the injected sleep short";
    EXPECT_EQ(worker.processed(), 0u);
    EXPECT_EQ(worker.inboxDepth(), 0u);
}

TEST(WorkerRobustness, CanaryDetectsCorruptedResponse)
{
    ScopedFaultInjector scope(std::make_shared<FaultInjector>(
        FaultInjector::parseSpec("corrupt@w:nth=1")));
    ShardWorker worker("w", ShardState{});
    auto fut = worker.submit(requestFor(batch()));
    const WorkerResponse r = resolved(fut);
    EXPECT_EQ(r.status, WorkerStatus::Ok)
        << "corruption is silent at the transport layer";
    EXPECT_NE(responseCanary(r), r.canary)
        << "recomputing the canary must expose the corruption";
}

} // namespace
} // namespace exma
