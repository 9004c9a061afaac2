#include "transport/transport.hh"

#include <exception>
#include <memory>
#include <utility>

#include "common/logging.hh"

namespace exma {
namespace {

/** Flip the payload of an Ok response so its canary no longer
 *  matches — the corrupt fault, applied after the stamp. */
void
corruptPayload(WorkerResponse &out)
{
    for (auto &hits : out.hits) {
        if (!hits.empty()) {
            hits.front() ^= 1;
            return;
        }
    }
    out.ids.push_back(~u32{0});
}

} // namespace

u64
responseCanary(const WorkerResponse &r)
{
    u64 h = 14695981039346656037ULL; // FNV-1a offset basis
    const auto mix = [&h](u64 v) {
        h ^= v;
        h *= 1099511628211ULL;
    };
    mix(r.ids.size());
    for (const u32 id : r.ids)
        mix(id);
    for (const auto &hits : r.hits) {
        mix(hits.size());
        for (const u64 pos : hits)
            mix(pos);
    }
    return h;
}

Transport::Transport(std::string name, bool has_table, bool is_empty)
    : name_(std::move(name)), has_table_(has_table), is_empty_(is_empty)
{
}

Transport::~Transport()
{
    exma_assert(!thread_.joinable(),
                "transport '%s' destroyed with its lane running: the "
                "subclass dtor must call stopLane() first",
                name_.c_str());
}

void
Transport::startLane()
{
    thread_ = std::thread([this] { run(); });
}

void
Transport::stopLane()
{
    // kill() resolves everything queued with a typed WorkerDown, and
    // the lane answers an in-flight request WorkerDown once it returns.
    kill();
    if (thread_.joinable())
        thread_.join();
}

std::future<WorkerResponse>
Transport::submit(WorkerRequest req)
{
    auto promise = std::make_shared<std::promise<WorkerResponse>>();
    std::future<WorkerResponse> future = promise->get_future();
    submit(std::move(req),
           [promise](WorkerResponse r) { promise->set_value(std::move(r)); });
    return future;
}

void
Transport::submit(WorkerRequest req, Completion done)
{
    Pending p{std::move(req), std::move(done)};
    inbox_depth_.fetch_add(1, std::memory_order_relaxed);

    bool down = false;
    {
        MutexLock lock(mtx_);
        // The dead_ check lives under the inbox lock: kill() stores
        // dead_ before draining under this lock, so either we observe
        // dead_ here, or our entry is in the inbox before the drain
        // sweeps it. No request can slip between the two and dangle.
        if (dead_.load(std::memory_order_acquire))
            down = true;
        else
            inbox_.push_back(std::move(p));
    }
    if (down)
        resolveDown(p);
    else
        cv_.notify_one();
}

void
Transport::serveHere(WorkerRequest req, Completion done)
{
    Pending p{std::move(req), std::move(done)};
    inbox_depth_.fetch_add(1, std::memory_order_relaxed);
    // The request never enters the inbox, so kill() cannot drain it:
    // serve() answers WorkerDown itself if the replica dies meanwhile.
    if (isDead())
        resolveDown(p);
    else
        serve(std::move(p));
}

void
Transport::kill()
{
    dead_.store(true, std::memory_order_release);
    cancel_.cancel(); // wake any injected hang/delay immediately
    interrupt();
    std::deque<Pending> doomed;
    {
        MutexLock lock(mtx_);
        doomed.swap(inbox_);
    }
    cv_.notify_all();
    for (Pending &p : doomed)
        resolveDown(p);
}

void
Transport::resolveDown(Pending &p)
{
    WorkerResponse r;
    r.status = WorkerStatus::WorkerDown;
    r.error = "worker '" + name_ + "' down";
    r.ids = p.req.batch.ids();
    resolve(p, std::move(r));
}

void
Transport::resolve(Pending &p, WorkerResponse r)
{
    // Counters first, delivery last: a caller that has its response
    // must see the post-request counter state. Every caller of
    // resolve() holds no transport lock, so the completion may submit.
    if (r.status != WorkerStatus::WorkerDown) {
        processed_.fetch_add(1, std::memory_order_relaxed);
        heartbeat_.fetch_add(1, std::memory_order_relaxed);
    }
    inbox_depth_.fetch_sub(1, std::memory_order_relaxed);
    p.done(std::move(r));
}

void
Transport::run()
{
    for (;;) {
        Pending p;
        {
            MutexLock lock(mtx_);
            while (!dead_.load(std::memory_order_relaxed) &&
                   inbox_.empty())
                cv_.wait(lock);
            if (dead_.load(std::memory_order_relaxed))
                return; // queued entries are drained by kill()
            p = std::move(inbox_.front());
            inbox_.pop_front();
        }
        serve(std::move(p));
        if (isDead())
            return;
    }
}

void
Transport::serve(Pending p)
{
    heartbeat_.fetch_add(1, std::memory_order_relaxed);

    bool inject_throw = false;
    bool inject_corrupt = false;
    if (FaultInjector *fi = faultInjector()) {
        for (const FaultAction &a : fi->at(name_)) {
            switch (a.kind) {
            case FaultKind::KillWorker:
                kill();
                resolveDown(p);
                return;
            case FaultKind::HangRequest:
                cancel_.sleepFor(a.ms);
                kill();
                resolveDown(p);
                return;
            case FaultKind::DelayMs:
                if (!cancel_.sleepFor(a.ms)) {
                    resolveDown(p); // killed or destroyed mid-sleep
                    return;
                }
                break;
            case FaultKind::ThrowInProcess:
                inject_throw = true;
                break;
            case FaultKind::CorruptResponse:
                inject_corrupt = true;
                break;
            }
        }
    }

    WorkerResponse out;
    if (inject_throw) {
        out.status = WorkerStatus::Failed;
        out.error = "injected fault: process() threw in worker '" +
                    name_ + "'";
        out.ids = p.req.batch.ids();
    } else {
        try {
            out = serveRequest(p.req);
        } catch (const std::exception &e) {
            exma_warn("worker '%s': %s", name_.c_str(), e.what());
            kill();
            resolveDown(p);
            return;
        }
    }

    if (isDead()) {
        // Killed mid-request: a dead worker never answers Ok, so the
        // router's failover path sees one consistent signal.
        resolveDown(p);
        return;
    }
    if (out.ok() && inject_corrupt)
        corruptPayload(out);
    resolve(p, std::move(out));
}

} // namespace exma
