/**
 * @file
 * Shared pieces of the serving benchmark: workload definitions, seeded
 * input generation, the naive-scan oracle, CPU/memory/steal accounting
 * from /proc, the percentile helper, and the in-memory span tracer.
 *
 * Everything here is harness code: it generates inputs and measures,
 * and calls into the repository only through public headers.
 */

#ifndef SERVEBENCH_HARNESS_HH
#define SERVEBENCH_HARNESS_HH

#include <chrono>
#include <string>
#include <vector>

#include "common/dna.hh"
#include "common/types.hh"
#include "genome/reference.hh"
#include "route/shard_router.hh"

namespace servebench {

using exma::Base;
using exma::u64;
using Queries = std::vector<std::vector<Base>>;
using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

/**
 * One workload. Every workload serves the same reference (the `human`
 * shape of makeDataset, regenerated from the run's seed) on a 2-shard
 * k-mer-prefix plan over the in-process transport. A closed-loop
 * workload sends batches of simulated Illumina reads (0.2% errors, both
 * strands); an open-loop one sends one error-free read per request.
 */
struct WorkloadSpec
{
    const char *name;
    bool open_loop;
    u64 batch_queries;   ///< closed loop: queries per search() call
    double rate_per_s;   ///< open loop: Poisson arrival rate
    unsigned generators; ///< open loop: generator threads
};

/** The workload named @p name, or null. */
const WorkloadSpec *findWorkload(const std::string &name);

/** Shards of every workload's k-mer-prefix plan. */
constexpr unsigned kShards = 2;

// ---------------------------------------------------------------------
// Seeded inputs
// ---------------------------------------------------------------------

/** Derive an independent stream seed for @p purpose from the run seed. */
u64 streamSeed(u64 seed, u64 purpose);

struct Inputs
{
    exma::Dataset ds;
    /**
     * Closed loop: pre-built batches of batch_queries each, cycled.
     * Open loop: one single-query request per scheduled arrival,
     * generator g's k-th arrival at requests[g][k].
     */
    std::vector<Queries> batches;
    std::vector<std::vector<Queries>> requests;
    /** Open loop: per generator, due offsets from phase start (ns). */
    std::vector<std::vector<u64>> schedule;
    /** Longest generated query: the plan's max_query_len. */
    u64 max_query_len = 0;
};

/** Generate every input of @p w for one run of @p seconds. */
Inputs makeInputs(const WorkloadSpec &w, u64 seed, double seconds);

/** The table configuration every workload serves with. */
exma::ExmaTable::Config tableConfig(const exma::Dataset &ds);

/**
 * Poisson arrivals at @p rate per second, split over @p generators
 * independent streams of rate / generators each (their union is
 * Poisson at @p rate). Offsets in ns from phase start, < seconds.
 */
std::vector<std::vector<u64>> poissonSchedule(double rate,
                                              unsigned generators,
                                              double seconds, u64 seed);

// ---------------------------------------------------------------------
// Oracle
// ---------------------------------------------------------------------

/**
 * Every start position of @p q in @p ref, ascending, by repeated
 * std::search — no index code involved.
 */
std::vector<u64> naiveOccurrences(const std::vector<Base> &ref,
                                  const std::vector<Base> &q);

// ---------------------------------------------------------------------
// Accounting (/proc)
// ---------------------------------------------------------------------

/** CPU seconds of the serving stack: this process plus its children. */
struct CpuSnapshot
{
    double self_s = 0.0;     ///< this process, all threads
    double children_s = 0.0; ///< live children + reaped children

    double total() const { return self_s + children_s; }
};

/**
 * CPU time of the serving stack now. Children that ended are always
 * counted (getrusage); live ones are found by a walk of /proc, which
 * only a router with child processes needs.
 */
CpuSnapshot cpuNow(bool live_children);

/** Pids of this process's live children, with their command names. */
struct ChildProc
{
    int pid = 0;
    std::string comm;
};
std::vector<ChildProc> liveChildren();

/** Resident memory (VmRSS) of this process's live children, MiB. */
double childrenRssMib();

/**
 * Bytes the allocator has handed out and not taken back in this
 * process (all arenas plus mmapped chunks), MiB. Unlike VmRSS it does
 * not count freed memory the allocator keeps resident.
 */
double heapInUseMib();

/** Aggregate host CPU ticks from /proc/stat. */
struct HostTicks
{
    u64 steal = 0;
    u64 total = 0;
};
HostTicks hostTicks();
double stealShare(const HostTicks &a, const HostTicks &b);

// ---------------------------------------------------------------------
// Percentiles
// ---------------------------------------------------------------------

/**
 * Nearest-rank percentile of @p v (0 < pct <= 100). @p v need not be
 * sorted. Empty input gives 0.
 */
double percentile(std::vector<double> v, double pct);

/**
 * Whether @p n samples support reporting the @p pct percentile: at
 * least ten samples must lie beyond its nearest-rank position.
 */
bool percentileSupported(size_t n, double pct);

/** A percentile and where it was taken. */
struct Tail
{
    double pct = 0.0;
    double value = 0.0;
};

/**
 * The highest percentile of {99, 98, 95, 90, 75, 50} that @p v
 * supports (ten samples beyond), or the median when none does.
 */
Tail supportedTail(const std::vector<double> &v);

double median(std::vector<double> v);

// ---------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------

/** One timed call into a layer. */
struct Span
{
    u64 id = 0;
    u64 parent = 0;  ///< 0 = root
    u64 request = 0; ///< spans of one request share this
    int shard = -1;  ///< -1 when the call is not shard-specific
    const char *name = "";
    u64 start_ns = 0; ///< since the tracer's epoch
    u64 end_ns = 0;

    u64 durationNs() const { return end_ns - start_ns; }
};

/**
 * In-memory span recorder; one per thread (not synchronized). Spans
 * are written out by writeSpans at exit.
 */
class Tracer
{
  public:
    explicit Tracer(Clock::time_point epoch);

    /** Open a span now; returns its id. */
    u64 open(const char *name, u64 parent, u64 request, int shard = -1);
    /** Close span @p id now. */
    void close(u64 id);
    /** Record an already-timed span. */
    u64 add(const char *name, u64 parent, u64 request, int shard,
            Clock::time_point start, Clock::time_point end);

    const std::vector<Span> &spans() const { return spans_; }

    /** Sum of durations of every span named @p name. */
    u64 totalNs(const char *name) const;

  private:
    Clock::time_point epoch_;
    u64 next_id_;
    std::vector<Span> spans_;
};

/** Write @p spans as tab-separated lines with a header. */
bool writeSpans(const std::string &path, const std::vector<Span> &spans);

// ---------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Accumulates router-side failure signals across every search. */
struct FailureTally
{
    u64 failover_events = 0;
    u64 degraded_queries = 0;

    void add(const exma::RoutedResult &r);
};

/** The traced per-layer run over a built router (layers.cc). */
struct LayerContext
{
    const WorkloadSpec &w;
    const Inputs &in;
    const exma::ShardRouter &router;
    u64 seed;
    std::string scratch_dir; ///< removed when the run ends
    std::string worker_bin;
    double build_s;
};
std::vector<Metric> runLayerTrace(const LayerContext &ctx, Tracer &tracer,
                                  FailureTally &tally);

/** Harness self-test (selftest.cc); returns false and says why. */
bool selfTest(const std::string &worker_bin, std::string &why);

} // namespace servebench

#endif // SERVEBENCH_HARNESS_HH
