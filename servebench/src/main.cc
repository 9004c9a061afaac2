/**
 * @file
 * servebench: one run of one serving workload through the public
 * ShardRouter API.
 *
 *   servebench --workload NAME --seed N --seconds S --trace 0|1
 *
 * A run first runs the harness self-test, generates its inputs from
 * the seed, sets the router up several times (setup_s is the median),
 * warms up, then measures for S seconds: closed loop (one client,
 * pre-built batches) or open loop (Poisson arrivals on a fixed
 * schedule from generator threads). It then checks a seeded sample of
 * the answers against a naive all-occurrences scan and requires that
 * no query came back degraded. With --trace 1 it then calls each
 * layer's public entry point on a seeded sample of the same requests
 * (layers.cc); the timed phase itself is never traced.
 *
 * Everything the run writes stays under .bench_build/servebench-run in
 * the working directory. The last line of stdout is the result object;
 * any failed check exits non-zero without printing it.
 */

#include <sys/prctl.h>
#include <malloc.h>
#include <unistd.h>

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/rng.hh"
#include "harness.hh"

namespace servebench {

namespace {

constexpr int kSetupReps = 3;
constexpr u64 kOracleSamples = 48;
constexpr double kWindowS = 1.0;
constexpr const char *kWorkDir = ".bench_build/servebench-run";

struct Args
{
    std::string workload;
    u64 seed = 1;
    double seconds = 30.0;
    bool trace = false;
};

/**
 * Fail the run. Throws rather than exits, so unwinding destroys the
 * router and with it reaps every exma-worker child.
 */
[[noreturn]] void
die(const std::string &why)
{
    throw std::runtime_error(why);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc)
            die("missing value for " + k);
        const std::string v = argv[++i];
        char *end = nullptr;
        if (k == "--workload") {
            a.workload = v;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
        } else if (k == "--trace") {
            a.trace = v == "1";
            if (v != "0" && v != "1")
                die("--trace takes 0 or 1");
        } else {
            die("unknown argument " + k);
        }
        if (end != nullptr && *end != '\0')
            die("bad number for " + k + ": " + v);
    }
    if (findWorkload(a.workload) == nullptr)
        die("unknown or missing --workload '" + a.workload + "'");
    if (!(a.seconds > 0.0 && a.seconds <= 120.0))
        die("--seconds must be in (0, 120]");
    return a;
}

/**
 * Refuse inherited configuration the library reads from the
 * environment: it could inject faults, change the transport, or swap
 * in a stale worker binary behind the benchmark's back.
 */
void
checkEnvironment()
{
    for (const char *v :
         {"EXMA_FAULTS", "EXMA_FAULT_SEED", "EXMA_TRANSPORT",
          "EXMA_WORKER_BIN"})
        if (std::getenv(v) != nullptr)
            die(std::string("refusing to run with ") + v +
                " set in the environment");
}

/** Removes a run's scratch directory when the run ends, however. */
struct ScratchDir
{
    explicit ScratchDir(std::filesystem::path p) : path(std::move(p)) {}
    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;
    ~ScratchDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }

    std::filesystem::path path;
};

double
usBetween(Clock::time_point a, Clock::time_point b)
{
    return secondsBetween(a, b) * 1e6;
}

// ---------------------------------------------------------------------
// Timed phase
// ---------------------------------------------------------------------

/** One search() call of the timed phase, relative to phase start. */
struct CallRecord
{
    u64 t0_ns = 0;
    u64 t1_ns = 0;
    u64 queries = 0;
    u64 bases = 0;
};

/**
 * A query whose answer the oracle checks: request k of generator
 * `group` (open loop), or query k of batch `group` (closed loop).
 */
struct OracleSample
{
    size_t group = 0;
    size_t k = 0;
};

/**
 * The oracle sample, drawn with the run's seed before the timed phase,
 * so the phase keeps only the sampled answers.
 */
std::vector<OracleSample>
drawOracleSamples(const WorkloadSpec &w, const Inputs &in, u64 seed)
{
    exma::Rng rng(streamSeed(seed, 5));
    std::vector<OracleSample> out;
    u64 n = 0;
    for (const auto &s : in.schedule)
        n += s.size();
    for (u64 i = 0; i < kOracleSamples; ++i) {
        OracleSample s;
        if (w.open_loop) {
            u64 rest = rng.below(n);
            while (rest >= in.schedule[s.group].size())
                rest -= in.schedule[s.group++].size();
            s.k = static_cast<size_t>(rest);
        } else {
            s.group = rng.below(in.batches.size());
            s.k = rng.below(in.batches[s.group].size());
        }
        out.push_back(s);
    }
    return out;
}

const std::vector<Base> &
sampledQuery(const WorkloadSpec &w, const Inputs &in, const OracleSample &s)
{
    return w.open_loop ? in.requests[s.group][s.k][0]
                       : in.batches[s.group][s.k];
}

/** What one client thread saw during the timed phase. */
struct ClientOut
{
    std::vector<CallRecord> calls;
    std::vector<double> latency_us;
    std::vector<double> late_us;
    FailureTally tally;
    std::string error;
};

/** Work and cost inside one window of the timed phase. */
struct Window
{
    double cpu_s = 0.0;
    double steal = 0.0;
    double bases = 0.0;
    double queries = 0.0;
};

/** A timing's median and its highest supported percentile. */
struct TimingSummary
{
    double p50 = 0.0;
    Tail tail;
    size_t samples = 0;
};

TimingSummary
summarize(const std::vector<double> &v)
{
    return {percentile(v, 50.0), supportedTail(v), v.size()};
}

/** What the timed phase measured. It holds no per-call buffers. */
struct Phase
{
    double wall_s = 0.0;
    double cpu_s = 0.0;
    double steal = 0.0;
    u64 queries = 0;
    u64 bases = 0;
    u64 calls = 0;
    std::vector<Window> windows;
    TimingSummary latency;
    TimingSummary late;
    FailureTally tally;
    /** The answer to each oracle sample, once answered[i] is set. */
    std::vector<std::vector<u64>> sampled_hits;
    std::vector<char> answered;
};

void
keepAnswer(Phase &ph, size_t sample, const std::vector<u64> &hits)
{
    ph.sampled_hits[sample] = hits;
    ph.answered[sample] = 1;
}

class PhaseRunner
{
  public:
    PhaseRunner(const WorkloadSpec &w, const Inputs &in,
                const exma::ShardRouter &router, const Args &a,
                const std::vector<OracleSample> &samples);

    /** Run the phase. Its per-call buffers are freed when it returns. */
    Phase run();

  private:
    u64 sinceStart(Clock::time_point t) const
    {
        return static_cast<u64>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t - start_)
                .count());
    }

    void closedClient(ClientOut &out, Phase &ph);
    void openClient(unsigned g, ClientOut &out, Phase &ph);

    const WorkloadSpec &w_;
    const Inputs &in_;
    const exma::ShardRouter &router_;
    const Args &args_;
    const size_t n_samples_;
    /** Only a router with worker processes needs the /proc walk. */
    const bool live_children_;
    /**
     * Per generator (open loop) or batch (closed loop): the oracle
     * samples among its queries, as (query k, sample index), by k.
     */
    std::vector<std::vector<std::pair<size_t, size_t>>> picks_;
    Clock::time_point start_;
    Clock::time_point end_;
};

PhaseRunner::PhaseRunner(const WorkloadSpec &w, const Inputs &in,
                         const exma::ShardRouter &router, const Args &a,
                         const std::vector<OracleSample> &samples)
    : w_(w), in_(in), router_(router), args_(a), n_samples_(samples.size()),
      live_children_(router.transportKind() == exma::TransportKind::Socket),
      picks_(w.open_loop ? in.schedule.size() : in.batches.size())
{
    for (size_t i = 0; i < samples.size(); ++i)
        picks_[samples[i].group].push_back({samples[i].k, i});
    for (auto &p : picks_)
        std::sort(p.begin(), p.end());
}

void
PhaseRunner::closedClient(ClientOut &out, Phase &ph)
{
    const size_t nb = in_.batches.size();
    std::vector<u64> first_total(nb, 0);
    Clock::time_point prev = start_;
    for (u64 i = 0;; ++i) {
        const auto t0 = Clock::now();
        if (t0 >= end_)
            break;
        const size_t b = i % nb;
        const exma::RoutedResult r = router_.search(in_.batches[b]);
        const auto t1 = Clock::now();
        out.calls.push_back({sinceStart(t0), sinceStart(t1), r.queries,
                             r.bases});
        out.latency_us.push_back(usBetween(t0, t1));
        if (i > 0)
            out.late_us.push_back(usBetween(prev, t0));
        prev = t1;
        out.tally.add(r);
        const u64 total = r.totalHits();
        if (i < nb) {
            first_total[b] = total;
            for (const auto &[k, sample] : picks_[b])
                keepAnswer(ph, sample, r.hits[k]);
        } else if (total != first_total[b] && out.error.empty()) {
            out.error = "batch " + std::to_string(b) +
                        " answered with a different hit count on a "
                        "repeat";
        }
    }
}

void
PhaseRunner::openClient(unsigned g, ClientOut &out, Phase &ph)
{
    // Sleep precisely: the default 50 us timer slack would show up
    // as generator lateness.
    ::prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
    const auto &sched = in_.schedule[g];
    const auto &reqs = in_.requests[g];
    const auto &picks = picks_[g];
    size_t next_pick = 0;
    for (size_t k = 0; k < sched.size(); ++k) {
        const auto due = start_ + std::chrono::nanoseconds(sched[k]);
        if (Clock::now() < due)
            std::this_thread::sleep_until(due);
        const auto t0 = Clock::now();
        const exma::RoutedResult r = router_.search(reqs[k]);
        const auto t1 = Clock::now();
        out.calls.push_back({sinceStart(t0), sinceStart(t1), r.queries,
                             r.bases});
        out.late_us.push_back(usBetween(due, t0));
        out.latency_us.push_back(usBetween(due, t1));
        out.tally.add(r);
        for (; next_pick < picks.size() && picks[next_pick].first == k;
             ++next_pick)
            keepAnswer(ph, picks[next_pick].second, r.hits[0]);
    }
}

/**
 * Spread each call's work over the windows its [t0, t1] overlaps, in
 * proportion to the overlap.
 */
void
attributeWork(const std::vector<CallRecord> &calls,
              std::vector<Window> &windows)
{
    const double w_ns = kWindowS * 1e9;
    for (const CallRecord &c : calls) {
        const double a = static_cast<double>(c.t0_ns);
        const double b = static_cast<double>(std::max(c.t1_ns, c.t0_ns + 1));
        for (size_t k = static_cast<size_t>(a / w_ns);
             k < windows.size() && static_cast<double>(k) * w_ns < b; ++k) {
            const double lo = std::max(a, static_cast<double>(k) * w_ns);
            const double hi = std::min(b, static_cast<double>(k + 1) * w_ns);
            if (hi <= lo)
                continue;
            const double share = (hi - lo) / (b - a);
            windows[k].bases += share * static_cast<double>(c.bases);
            windows[k].queries += share * static_cast<double>(c.queries);
        }
    }
}

Phase
PhaseRunner::run()
{
    Phase ph;
    ph.sampled_hits.resize(n_samples_);
    ph.answered.assign(n_samples_, 0);

    // Records are reserved up front where their count is known (the
    // arrival schedule), so the phase does not grow them.
    const unsigned n_clients = w_.open_loop ? w_.generators : 1;
    std::vector<ClientOut> outs(n_clients);
    if (w_.open_loop)
        for (unsigned g = 0; g < n_clients; ++g) {
            const size_t n = in_.schedule[g].size();
            outs[g].calls.reserve(n);
            outs[g].latency_us.reserve(n);
            outs[g].late_us.reserve(n);
        }
    const size_t n_windows = std::max<size_t>(
        1, static_cast<size_t>(args_.seconds / kWindowS));
    ph.windows.resize(n_windows);

    const HostTicks host0 = hostTicks();
    const CpuSnapshot cpu0 = cpuNow(live_children_);
    start_ = Clock::now();
    end_ = start_ + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(args_.seconds));
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < n_clients; ++c)
        threads.emplace_back([&, c] {
            if (w_.open_loop)
                openClient(c, outs[c], ph);
            else
                closedClient(outs[c], ph);
        });

    // One CPU and steal snapshot per window boundary, taken here while
    // the clients run.
    CpuSnapshot prev_cpu = cpu0;
    HostTicks prev_host = host0;
    for (size_t k = 0; k < n_windows; ++k) {
        std::this_thread::sleep_until(
            start_ + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             kWindowS * static_cast<double>(k + 1))));
        const CpuSnapshot cpu = cpuNow(live_children_);
        const HostTicks host = hostTicks();
        ph.windows[k].cpu_s = cpu.total() - prev_cpu.total();
        ph.windows[k].steal = stealShare(prev_host, host);
        prev_cpu = cpu;
        prev_host = host;
    }
    for (std::thread &t : threads)
        t.join();
    const auto stop = Clock::now();
    const CpuSnapshot cpu1 = cpuNow(live_children_);
    const HostTicks host1 = hostTicks();

    ph.wall_s = secondsBetween(start_, stop);
    ph.cpu_s = cpu1.total() - cpu0.total();
    ph.steal = stealShare(host0, host1);
    std::vector<double> latency_us;
    std::vector<double> late_us;
    for (const ClientOut &o : outs) {
        if (!o.error.empty())
            die(o.error);
        attributeWork(o.calls, ph.windows);
        for (const CallRecord &c : o.calls) {
            ph.queries += c.queries;
            ph.bases += c.bases;
        }
        ph.calls += o.calls.size();
        ph.tally.failover_events += o.tally.failover_events;
        ph.tally.degraded_queries += o.tally.degraded_queries;
        latency_us.insert(latency_us.end(), o.latency_us.begin(),
                          o.latency_us.end());
        late_us.insert(late_us.end(), o.late_us.begin(), o.late_us.end());
    }
    ph.latency = summarize(latency_us);
    ph.late = summarize(late_us);
    return ph;
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

std::string
num(double v)
{
    if (!std::isfinite(v))
        die("non-finite metric value");
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

std::string
metricsJson(const std::vector<Metric> &ms)
{
    std::ostringstream o;
    o << "{";
    for (size_t i = 0; i < ms.size(); ++i)
        o << (i ? ", " : "") << "\"" << ms[i].name << "\": {\"value\": "
          << num(ms[i].value) << ", \"unit\": \"" << ms[i].unit << "\"}";
    o << "}";
    return o.str();
}

/** Per-window rates; window figures are medians over windows. */
struct WindowRates
{
    std::vector<double> mbases_s;
    std::vector<double> cpu_s_per_gbase;
    std::vector<double> cpu_us_per_request;
    std::vector<double> steal;
};

/** Rates of every window that completed work. */
WindowRates
windowRates(const std::vector<Window> &windows)
{
    WindowRates r;
    for (const Window &w : windows) {
        if (w.bases <= 0.0)
            continue;
        r.mbases_s.push_back(w.bases / kWindowS / 1e6);
        r.cpu_s_per_gbase.push_back(w.cpu_s / (w.bases / 1e9));
        r.cpu_us_per_request.push_back(w.cpu_s * 1e6 / w.queries);
        r.steal.push_back(w.steal);
    }
    return r;
}

std::string
numList(const std::vector<double> &v)
{
    std::string out = "[";
    for (size_t i = 0; i < v.size(); ++i)
        out += (i ? ", " : "") + num(v[i]);
    return out + "]";
}

} // namespace

void
FailureTally::add(const exma::RoutedResult &r)
{
    const exma::FailoverStats &f = r.failover;
    failover_events += f.retries + f.hedges + f.respawns + f.worker_down +
                       f.failed + f.corrupt + f.deadline_misses;
    degraded_queries += r.degraded_queries;
}

} // namespace servebench

namespace {

int
runMain(int argc, char **argv)
{
    using namespace servebench;
    const Args args = parseArgs(argc, argv);
    checkEnvironment();

    const std::string worker_bin = SERVEBENCH_WORKER_BIN;
    if (::access(worker_bin.c_str(), X_OK) != 0)
        die("exma-worker not found at " + worker_bin +
            " (build the servebench package first)");

    // Span dumps go to traces/; the self-test's and the traced run's
    // worker files and saved index go to a per-process directory
    // removed on exit (declared first, so it outlives every worker).
    namespace fs = std::filesystem;
    const fs::path work = fs::absolute(kWorkDir);
    const fs::path scratch = work / ("run-" + std::to_string(::getpid()));
    std::error_code ec;
    fs::create_directories(scratch, ec);
    if (ec)
        die("cannot create " + scratch.string() + ": " + ec.message());
    const ScratchDir scratch_guard{scratch};
    ::setenv("TMPDIR", scratch.c_str(), 1);

    std::string why;
    if (!selfTest(worker_bin, why))
        die("self-test failed: " + why);

    const WorkloadSpec &w = *findWorkload(args.workload);
    std::cout << "servebench: workload=" << w.name << " seed=" << args.seed
              << " seconds=" << args.seconds << " trace=" << args.trace
              << "\n";
    const Inputs in = makeInputs(w, args.seed, args.seconds);
    const std::vector<Base> &ref = in.ds.ref;
    const std::vector<OracleSample> samples =
        drawOracleSamples(w, in, args.seed);

    exma::RouterConfig rcfg;
    rcfg.table = tableConfig(in.ds);
    rcfg.transport.kind = exma::TransportKind::InProcess;
    rcfg.transport.worker_binary = worker_bin;

    // Setup: plan + router build until a one-query warm-up search
    // returns.
    const Queries warm = {w.open_loop ? in.requests[0][0][0]
                                      : in.batches[0][0]};
    // The harness's own inputs are not the serving stack's memory.
    const double baseline_mib = heapInUseMib();
    std::vector<double> setup_s;
    std::vector<double> build_s;
    std::unique_ptr<exma::ShardRouter> router;
    FailureTally tally;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        router.reset();
        ::malloc_trim(0);
        const auto t0 = Clock::now();
        const exma::ShardPlan plan =
            exma::ShardPlan::kmerPrefix(ref, kShards, in.max_query_len);
        router = std::make_unique<exma::ShardRouter>(ref, plan, rcfg);
        exma::RoutedResult r = router->search(warm);
        const auto t1 = Clock::now();
        tally.add(r);
        if (rep == 0 && r.hits[0] != naiveOccurrences(ref, warm[0]))
            die("warm-up query disagrees with the naive scan");
        setup_s.push_back(secondsBetween(t0, t1));
        build_s.push_back(router->buildSeconds());
    }
    if (router->transportKind() != exma::TransportKind::InProcess)
        die("router serves on an unexpected transport");

    // Warm-up: touch the index before anything is timed.
    if (w.open_loop) {
        for (size_t k = 0; k < 2000 && k < in.requests[0].size(); ++k)
            tally.add(router->search(in.requests[0][k]));
    } else {
        for (size_t b = 0; b < 8 && b < in.batches.size(); ++b)
            tally.add(router->search(in.batches[b]));
    }

    const Phase ph = PhaseRunner(w, in, *router, args, samples).run();
    // Taken once the phase's own buffers are freed, so it counts what
    // the serving stack holds above the level before the first set-up.
    const double mem_mib = heapInUseMib() - baseline_mib + childrenRssMib();
    tally.failover_events += ph.tally.failover_events;
    tally.degraded_queries += ph.tally.degraded_queries;
    if (ph.queries == 0)
        die("no query completed in the timed phase");

    // Correctness: the seeded sample against the naive scan.
    u64 oracle_hits = 0;
    for (size_t i = 0; i < samples.size(); ++i) {
        const std::string where = "query " + std::to_string(samples[i].k) +
                                  (w.open_loop ? " of generator "
                                               : " of batch ") +
                                  std::to_string(samples[i].group);
        if (!ph.answered[i])
            die(where + " was sampled but never answered");
        const auto expect =
            naiveOccurrences(ref, sampledQuery(w, in, samples[i]));
        if (ph.sampled_hits[i] != expect)
            die(where + " disagrees with the naive scan");
        oracle_hits += expect.size();
    }

    std::vector<Metric> layer_metrics;
    Tracer tracer(Clock::now());
    if (args.trace) {
        const LayerContext ctx{w,         in,          *router,
                               args.seed, scratch.string(), worker_bin,
                               median(build_s)};
        layer_metrics = runLayerTrace(ctx, tracer, tally);
    }
    if (tally.degraded_queries != 0)
        die(std::to_string(tally.degraded_queries) +
            " queries came back degraded");

    // End-to-end figures are medians over one-second windows, which
    // keeps a burst of host interference inside a run from moving
    // them. Wall throughput is recorded but not gated: on a shared VM
    // it follows host steal (see README.md).
    const WindowRates rates = windowRates(ph.windows);
    if (rates.mbases_s.empty())
        die("no window of the timed phase completed any work");
    const std::vector<Metric> e2e = {
        {"setup_s", median(setup_s), "s"},
        {"cpu_s_per_gbase", median(rates.cpu_s_per_gbase), "s/Gbase"},
        {"cpu_us_per_request", median(rates.cpu_us_per_request), "us"},
        {"mem_mib", mem_mib, "MiB"},
    };

    const std::vector<Metric> diag = {
        {"host.steal_share", ph.steal, "share"},
        {"wall.throughput_mbases_s", median(rates.mbases_s), "Mbases/s"},
        {"gen.late_us_p50", ph.late.p50, "us"},
        {"gen.late_us_p99", ph.late.tail.value, "us"},
        {"gen.late_tail_pct", ph.late.tail.pct, "%"},
        {"latency.p50_us", ph.latency.p50, "us"},
        {"latency.p99_us", ph.latency.tail.value, "us"},
        {"latency.tail_pct", ph.latency.tail.pct, "%"},
        {"latency.samples", static_cast<double>(ph.latency.samples),
         "count"},
    };

    // Everything measured, on one line ahead of the result: the seed,
    // the end-to-end figures, and the noise diagnostics every run
    // records (latency is not gated; steal says why).
    std::cout << "servebench: record {\"workload\": \"" << w.name
              << "\", \"seed\": " << args.seed
              << ", \"trace\": " << (args.trace ? 1 : 0)
              << ", \"calls\": " << ph.calls
              << ", \"queries\": " << ph.queries
              << ", \"oracle_checked\": " << samples.size()
              << ", \"oracle_hits\": " << oracle_hits
              << ", \"failover_events\": " << tally.failover_events
              << ", \"end_to_end\": " << metricsJson(e2e)
              << ", \"diagnostics\": " << metricsJson(diag)
              << ", \"setup_s\": " << numList(setup_s)
              << ", \"windows\": {\"mbases_s\": " << numList(rates.mbases_s)
              << ", \"cpu_s_per_gbase\": " << numList(rates.cpu_s_per_gbase)
              << ", \"steal\": " << numList(rates.steal)
              << "}, \"phase\": {\"mbases_s\": "
              << num(static_cast<double>(ph.bases) / ph.wall_s / 1e6)
              << ", \"cpu_s_per_gbase\": "
              << num(ph.cpu_s / (static_cast<double>(ph.bases) / 1e9))
              << "}}\n";

    std::vector<Metric> out = e2e;
    if (args.trace) {
        const fs::path out_dir = work / "traces";
        fs::create_directories(out_dir, ec);
        const fs::path p = out_dir / (std::string(w.name) + "-seed" +
                                      std::to_string(args.seed) +
                                      ".spans.tsv");
        if (!writeSpans(p.string(), tracer.spans()))
            die("cannot write " + p.string());
        std::cout << "servebench: " << tracer.spans().size()
                  << " spans written to " << p.string() << "\n";
        out = layer_metrics;
        out.insert(out.end(), diag.begin(), diag.end());
    }
    router.reset();
    std::cout << "{\"correct\": true, \"attempted\": " << ph.queries
              << ", \"failed\": 0, \"metrics\": " << metricsJson(out)
              << "}" << std::endl;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return runMain(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << "servebench: " << e.what() << "\n";
        return 1;
    }
}
