/**
 * @file
 * Harness self-test, run at the start of every benchmark run. It
 * checks the three things the figures rest on: the percentile helper
 * reports a percentile only with ten samples beyond it; a seed
 * reproduces the same arrival schedule; and the CPU accounting sees
 * the exma-worker children's time, live and reaped.
 */

#include <algorithm>
#include <numeric>

#include "common/rng.hh"
#include "harness.hh"

namespace servebench {

namespace {

bool
checkPercentiles(std::string &why)
{
    std::vector<double> v(1000);
    std::iota(v.begin(), v.end(), 1.0);
    if (percentile(v, 99.0) != 990.0 || percentile(v, 50.0) != 500.0) {
        why = "nearest-rank percentile of 1..1000 is wrong";
        return false;
    }
    if (!percentileSupported(1000, 99.0) || percentileSupported(999, 99.0)) {
        why = "p99 must need exactly 1000 samples (ten beyond it)";
        return false;
    }
    if (!percentileSupported(20, 50.0) || percentileSupported(19, 50.0)) {
        why = "the median must need exactly 20 samples (ten beyond it)";
        return false;
    }
    v.resize(500);
    if (supportedTail(v).pct != 98.0) {
        why = "500 samples must support p98 and not p99";
        return false;
    }
    return true;
}

bool
checkSchedule(std::string &why)
{
    const auto a = poissonSchedule(8000.0, 2, 1.0, 7);
    const auto b = poissonSchedule(8000.0, 2, 1.0, 7);
    const auto c = poissonSchedule(8000.0, 2, 1.0, 8);
    if (a != b) {
        why = "one seed gave two different arrival schedules";
        return false;
    }
    if (a == c) {
        why = "two seeds gave the same arrival schedule";
        return false;
    }
    size_t n = 0;
    for (const auto &g : a) {
        n += g.size();
        if (!std::is_sorted(g.begin(), g.end()) ||
            (!g.empty() && g.back() >= 1'000'000'000ULL)) {
            why = "arrival offsets unsorted or past the phase";
            return false;
        }
    }
    // Poisson(8000) is within 7600..8400 far beyond four sigma.
    if (n < 7600 || n > 8400) {
        why = "8000/s schedule holds " + std::to_string(n) +
              " arrivals in one second";
        return false;
    }
    return true;
}

bool
checkChildCpu(const std::string &worker_bin, std::string &why)
{
    // A one-shard socket router over a small reference, forced to a
    // scan shard so each query burns CPU in the child and almost none
    // in this process.
    exma::Rng rng(11);
    std::vector<Base> ref(200000);
    for (Base &b : ref)
        b = static_cast<Base>(rng.below(4));
    exma::RouterConfig cfg;
    cfg.transport.kind = exma::TransportKind::Socket;
    cfg.transport.worker_binary = worker_bin;
    cfg.min_table_bases = u64{1} << 40;
    Queries qs;
    for (int i = 0; i < 200; ++i) {
        const u64 pos = rng.below(ref.size() - 32);
        qs.emplace_back(ref.begin() + static_cast<long>(pos),
                        ref.begin() + static_cast<long>(pos + 32));
    }
    std::vector<exma::u32> ids(qs.size());
    std::iota(ids.begin(), ids.end(), 0);

    double worker_s = 0.0;
    double before_reap = 0.0;
    {
        const exma::ShardRouter router(
            ref, exma::ShardPlan::kmerPrefix(ref, 1, 32), cfg);
        bool found = false;
        for (const ChildProc &c : liveChildren())
            found = found || c.comm == "exma-worker";
        if (!found) {
            why = "no live exma-worker child found under /proc";
            return false;
        }
        const auto worker = router.replicaSet(0).replica(0);
        const CpuSnapshot c0 = cpuNow(true);
        for (int i = 0; i < 50 && worker_s < 0.3; ++i) {
            const exma::WorkerResponse r =
                worker
                    ->submit({exma::QueryBatchView::borrow(qs, ids),
                              exma::BatchConfig{}})
                    .get();
            if (!r.ok()) {
                why = "socket worker failed: " + r.error;
                return false;
            }
            worker_s += r.seconds;
        }
        const CpuSnapshot c1 = cpuNow(true);
        const double child_delta = c1.children_s - c0.children_s;
        if (worker_s < 0.1 || child_delta < 0.5 * worker_s) {
            why = "live children's CPU " + std::to_string(child_delta) +
                  " s does not cover the worker's " +
                  std::to_string(worker_s) + " s of compute";
            return false;
        }
        before_reap = c1.children_s;
    }
    // The router's destructor reaps the child: its time moves to
    // RUSAGE_CHILDREN and must not vanish from the total (allowing
    // one clock tick of /proc rounding).
    if (cpuNow(true).children_s < before_reap - 0.02) {
        why = "reaped children's CPU vanished from the accounting";
        return false;
    }
    return true;
}

} // namespace

bool
selfTest(const std::string &worker_bin, std::string &why)
{
    return checkPercentiles(why) && checkSchedule(why) &&
           checkChildCpu(worker_bin, why);
}

} // namespace servebench
