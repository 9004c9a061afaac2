/**
 * @file
 * google-benchmark microkernels for the software layers: suffix-array
 * construction, FM-Index search, k-step/EXMA search, LISA search, the
 * CHAIN/B∆I codecs, and routed searches of one read and of 4096.
 * Complements the figure harnesses with wall-clock numbers for the
 * library itself.
 */

#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <vector>

#include "bench_gbench_main.hh"
#include "common/rng.hh"
#include "compress/bdi.hh"
#include "compress/chain.hh"
#include "core/exma_table.hh"
#include "fmindex/fm_index.hh"
#include "fmindex/suffix_array.hh"
#include "genome/reads.hh"
#include "genome/reference.hh"
#include "lisa/lisa.hh"
#include "route/shard_router.hh"

namespace {

using namespace exma;

const std::vector<Base> &
microRef()
{
    static const std::vector<Base> ref = [] {
        ReferenceSpec spec;
        spec.length = 1 << 20;
        spec.seed = 3;
        return generateReference(spec);
    }();
    return ref;
}

/** The table configuration of the search micros over microRef(). */
ExmaTable::Config
microTableConfig()
{
    ExmaTable::Config cfg;
    cfg.k = 8;
    cfg.mode = OccIndexMode::Mtl;
    cfg.mtl.epochs = 30;
    return cfg;
}

void
BM_SuffixArray(benchmark::State &state)
{
    std::vector<Base> ref(microRef().begin(),
                          microRef().begin() + state.range(0));
    for (auto _ : state)
        benchmark::DoNotOptimize(buildSuffixArray(ref));
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SuffixArray)->Arg(1 << 16)->Arg(1 << 18)->Arg(1 << 20);

void
BM_FmIndexSearch(benchmark::State &state)
{
    static const FmIndex fm(microRef());
    auto pats = samplePatterns(microRef(), 256,
                               static_cast<u64>(state.range(0)), 7);
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(fm.search(pats[i % pats.size()]));
        ++i;
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FmIndexSearch)->Arg(32)->Arg(101);

void
BM_ExmaSearch(benchmark::State &state)
{
    static const ExmaTable table(microRef(), microTableConfig());
    auto pats = samplePatterns(microRef(), 256, 101, 9);
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(table.search(pats[i % pats.size()]));
        ++i;
    }
    state.SetItemsProcessed(state.iterations() * 101);
}
BENCHMARK(BM_ExmaSearch);

void
BM_LisaSearch(benchmark::State &state)
{
    static const IpBwt ipbwt(microRef(), 10);
    static const Lisa lisa(ipbwt, Lisa::Config{});
    auto pats = samplePatterns(microRef(), 256, 101, 11);
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(lisa.search(pats[i % pats.size()]));
        ++i;
    }
    state.SetItemsProcessed(state.iterations() * 101);
}
BENCHMARK(BM_LisaSearch);

void
BM_ChainCompress(benchmark::State &state)
{
    Rng rng(5);
    std::vector<u32> vals;
    u32 v = 0;
    for (int i = 0; i < 1 << 16; ++i)
        vals.push_back(v += static_cast<u32>(1 + rng.below(100)));
    for (auto _ : state)
        benchmark::DoNotOptimize(chainCompressedSize(vals));
    state.SetBytesProcessed(state.iterations() *
                            static_cast<i64>(vals.size() * 4));
}
BENCHMARK(BM_ChainCompress);

void
BM_BdiCompress(benchmark::State &state)
{
    Rng rng(6);
    std::vector<u8> data(1 << 18);
    for (auto &b : data)
        b = static_cast<u8>(rng.below(4)); // compressible-ish
    for (auto _ : state)
        benchmark::DoNotOptimize(bdiCompressedSize(data));
    state.SetBytesProcessed(state.iterations() *
                            static_cast<i64>(data.size()));
}
BENCHMARK(BM_BdiCompress);

/** CPU seconds used so far by every thread of this process. */
double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

/** The in-process 2-shard router over microRef() of the router micros. */
const ShardRouter &
microRouter()
{
    constexpr u64 kMaxQueryLen = 128;
    static const ShardRouter router = [] {
        RouterConfig cfg;
        cfg.table = microTableConfig();
        cfg.transport.kind = TransportKind::InProcess;
        return ShardRouter(microRef(),
                           ShardPlan::kmerPrefix(microRef(), 2,
                                                 kMaxQueryLen),
                           cfg);
    }();
    return router;
}

/**
 * Back-to-back one-query searches on an in-process 2-shard router: the
 * fixed cost of a one-read request (classify, dispatch, gather, merge)
 * plus the search and locate of one 101-base read. The time is real
 * time per search; the cpu_us_per_search counter is process CPU per
 * search, since google benchmark's CPU clock counts only the calling
 * thread and would miss the work of any thread a search hands off to.
 */
void
BM_RouterSearchOneQuery(benchmark::State &state)
{
    const ShardRouter &router = microRouter();
    std::vector<std::vector<std::vector<Base>>> requests;
    for (auto &p : samplePatterns(microRef(), 256, 101, 13))
        requests.push_back({std::move(p)});
    size_t i = 0;
    const double cpu0 = processCpuSeconds();
    for (auto _ : state) {
        benchmark::DoNotOptimize(router.search(requests[i % requests.size()]));
        ++i;
    }
    const double cpu_s = processCpuSeconds() - cpu0;
    state.counters["cpu_us_per_search"] =
        cpu_s * 1e6 / static_cast<double>(state.iterations());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RouterSearchOneQuery)->UseRealTime();

/**
 * Bulk searches on the same router: 4096 sampled 101-base reads per
 * search, cycling over 32 distinct batches so the table is not warm
 * from the previous search of the same reads. Each shard call is a
 * lane's batch of about 2048 reads, so this times the staged engine's
 * full rings plus the router's per-batch costs. The time is real time
 * per search; cpu_us_per_read is process CPU per read.
 */
void
BM_RouterSearchBulk(benchmark::State &state)
{
    constexpr u64 kReads = 4096;
    constexpr u64 kBatches = 32;
    const ShardRouter &router = microRouter();
    std::vector<std::vector<std::vector<Base>>> batches;
    for (u64 b = 0; b < kBatches; ++b)
        batches.push_back(samplePatterns(microRef(), kReads, 101, 100 + b));
    size_t i = 0;
    const double cpu0 = processCpuSeconds();
    for (auto _ : state) {
        benchmark::DoNotOptimize(router.search(batches[i % kBatches]));
        ++i;
    }
    const double cpu_s = processCpuSeconds() - cpu0;
    const double reads =
        static_cast<double>(state.iterations()) * static_cast<double>(kReads);
    state.counters["cpu_us_per_read"] = cpu_s * 1e6 / reads;
    state.SetItemsProcessed(static_cast<int64_t>(reads));
}
BENCHMARK(BM_RouterSearchBulk)->UseRealTime();

} // namespace

int
main(int argc, char **argv)
{
    return exma::bench::googleBenchmarkMain(argc, argv);
}
