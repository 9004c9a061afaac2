/**
 * @file
 * google-benchmark microkernels for the rank machinery: the old
 * byte-per-symbol checkpoint+scan Occ versus the packed interleaved
 * PackedRank, branchy std::lower_bound versus the shared branchless
 * helper on increment-list-shaped inputs, and locate on one ring of LF
 * walks. Emits JSON via the bench suite's `--json` convention (see
 * bench_gbench_main.hh).
 *
 * BM_PackedRankOcc calls occ() from a function compiled once for the
 * baseline ISA, so it shows the one-popcount rank but not the hardware
 * popcount; BM_LocateRows goes through a dispatched entry point
 * (EXMA_POPCNT_CLONES) and shows both.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <filesystem>
#include <vector>

#include "bench_gbench_main.hh"
#include "common/branchless.hh"
#include "common/rng.hh"
#include "core/exma_table.hh"
#include "fmindex/packed_rank.hh"
#include "fmindex/suffix_array.hh"
#include "genome/reference.hh"
#include "io/format.hh"
#include "persist/index_io.hh"

namespace {

using namespace exma;

/** BWT (0..4 coding) of a 1 Mbp synthetic reference. */
const std::vector<u8> &
microBwt()
{
    static const std::vector<u8> bwt = [] {
        ReferenceSpec spec;
        spec.length = 1 << 20;
        spec.seed = 3;
        const std::vector<Base> ref = generateReference(spec);
        const std::vector<SaIndex> sa = buildSuffixArray(ref);
        std::vector<u8> out(sa.size());
        for (u64 i = 0; i < sa.size(); ++i)
            out[i] = sa[i] == 0 ? u8{0}
                                : static_cast<u8>(ref[sa[i] - 1] + 1);
        return out;
    }();
    return bwt;
}

/**
 * The pre-PR 3 FmIndex rank layout: byte-per-symbol BWT plus a separate
 * checkpoint array every 64 positions, scanned to the queried offset.
 */
struct ScalarRank
{
    static constexpr u32 kSample = 64;

    explicit ScalarRank(const std::vector<u8> &bwt)
        : bwt_(bwt)
    {
        const u64 n_buckets = (bwt.size() + kSample - 1) / kSample;
        ckpt_.assign((n_buckets + 1) * 4, 0);
        u32 running[4] = {};
        for (u64 i = 0; i < bwt.size(); ++i) {
            if (i % kSample == 0)
                for (int c = 0; c < 4; ++c)
                    ckpt_[(i / kSample) * 4 + static_cast<u64>(c)] =
                        running[c];
            if (bwt[i] != 0)
                ++running[bwt[i] - 1];
        }
        for (int c = 0; c < 4; ++c)
            ckpt_[n_buckets * 4 + static_cast<u64>(c)] = running[c];
    }

    u64
    occ(u8 sym, u64 i) const
    {
        const u64 bucket = i / kSample;
        u64 r = ckpt_[bucket * 4 + (sym - 1)];
        for (u64 j = bucket * kSample; j < i; ++j)
            r += (bwt_[j] == sym);
        return r;
    }

    const std::vector<u8> &bwt_;
    std::vector<u32> ckpt_;
};

std::vector<std::pair<u8, u64>>
rankQueries(u64 n_rows, u64 count)
{
    Rng rng(17);
    std::vector<std::pair<u8, u64>> q(count);
    for (auto &p : q) {
        p.first = static_cast<u8>(1 + rng.below(4));
        p.second = rng.below(n_rows + 1);
    }
    return q;
}

void
BM_ScalarRankOcc(benchmark::State &state)
{
    const ScalarRank rank(microBwt());
    const auto queries = rankQueries(microBwt().size(), 4096);
    size_t i = 0;
    for (auto _ : state) {
        const auto &[sym, pos] = queries[i++ % queries.size()];
        benchmark::DoNotOptimize(rank.occ(sym, pos));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ScalarRankOcc);

void
BM_PackedRankOcc(benchmark::State &state)
{
    const PackedRank rank{std::span<const u8>(microBwt())};
    const auto queries = rankQueries(rank.size(), 4096);
    size_t i = 0;
    for (auto _ : state) {
        const auto &[sym, pos] = queries[i++ % queries.size()];
        benchmark::DoNotOptimize(rank.occ(sym, pos));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PackedRankOcc);

/** Sorted u32 lists shaped like k-mer increment lists. */
std::vector<u32>
sortedList(u64 size, u64 seed)
{
    Rng rng(seed);
    std::vector<u32> v(size);
    u32 cur = 0;
    for (auto &x : v)
        x = (cur += 1 + static_cast<u32>(rng.below(97)));
    return v;
}

void
BM_BranchyLowerBound(benchmark::State &state)
{
    const auto list = sortedList(static_cast<u64>(state.range(0)), 23);
    const u32 top = list.empty() ? 1 : list.back() + 1;
    Rng rng(29);
    std::vector<u32> keys(4096);
    for (auto &k : keys)
        k = static_cast<u32>(rng.below(top));
    size_t i = 0;
    for (auto _ : state) {
        const u32 key = keys[i++ % keys.size()];
        benchmark::DoNotOptimize(
            std::lower_bound(list.begin(), list.end(), key) -
            list.begin());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BranchyLowerBound)->Arg(4)->Arg(64)->Arg(4096)->Arg(1 << 16);

void
BM_BranchlessLowerBound(benchmark::State &state)
{
    const auto list = sortedList(static_cast<u64>(state.range(0)), 23);
    const u32 top = list.empty() ? 1 : list.back() + 1;
    Rng rng(29);
    std::vector<u32> keys(4096);
    for (auto &k : keys)
        k = static_cast<u32>(rng.below(top));
    size_t i = 0;
    for (auto _ : state) {
        const u32 key = keys[i++ % keys.size()];
        benchmark::DoNotOptimize(
            branchlessLowerBound(list.data(), list.data() + list.size(),
                                 key) -
            list.data());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BranchlessLowerBound)
    ->Arg(4)
    ->Arg(64)
    ->Arg(4096)
    ->Arg(1 << 16);

// ---------------------------------------------------------------------------
// Persistent-index IO: serialize / mmap-load a 1 Mbp ExmaTable's
// companion files (.exma.occ/.sa/.pac). The load number is the per-
// restart cost the persistent format reduces table rebuilds to; the
// save number is the one-time build-step cost.
// ---------------------------------------------------------------------------

/**
 * A small table worth saving and locating in (Exact mode: IO and
 * locate cost, not training).
 */
const ExmaTable &
microTable()
{
    static const ExmaTable table = [] {
        ReferenceSpec spec;
        spec.length = 1 << 20;
        spec.seed = 3;
        ExmaTable::Config cfg;
        cfg.k = 6;
        cfg.mode = OccIndexMode::Exact;
        return ExmaTable(generateReference(spec), cfg);
    }();
    return table;
}

std::string
microStem()
{
    static const std::string stem = [] {
        const std::filesystem::path dir =
            std::filesystem::temp_directory_path() / "exma_bench_rank";
        std::filesystem::create_directories(dir);
        return (dir / "table").string();
    }();
    return stem;
}

void
BM_TableFilesSave(benchmark::State &state)
{
    const ExmaTable &table = microTable();
    for (auto _ : state)
        saveTableFiles(table, microStem());
    state.SetItemsProcessed(state.iterations());
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(
            std::filesystem::file_size(microStem() + kExtOcc) +
            std::filesystem::file_size(microStem() + kExtSa) +
            std::filesystem::file_size(microStem() + kExtPac)));
}
BENCHMARK(BM_TableFilesSave);

void
BM_TableFilesLoad(benchmark::State &state)
{
    saveTableFiles(microTable(), microStem());
    const int64_t bytes = static_cast<int64_t>(
        std::filesystem::file_size(microStem() + kExtOcc) +
        std::filesystem::file_size(microStem() + kExtSa) +
        std::filesystem::file_size(microStem() + kExtPac));
    for (auto _ : state) {
        const LoadedExmaTable loaded = loadTableFiles(microStem());
        benchmark::DoNotOptimize(loaded.table->rows());
    }
    state.SetItemsProcessed(state.iterations());
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            bytes);
}
BENCHMARK(BM_TableFilesLoad);

// ---------------------------------------------------------------------------
// Locate: 4096 random rows of the 1 Mbp table per iteration, on one ring
// of LF walks (ExmaTable::locateRows). Each iteration first restores the
// rows, a 32 KiB copy, since locating overwrites them with positions.
// ---------------------------------------------------------------------------

void
BM_LocateRows(benchmark::State &state)
{
    const ExmaTable &table = microTable();
    Rng rng(31);
    std::vector<u64> rows(4096);
    for (u64 &row : rows)
        row = rng.below(table.rows());
    std::vector<u64> located(rows.size());
    for (auto _ : state) {
        located = rows;
        table.locateRows(located);
        benchmark::DoNotOptimize(located.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(rows.size()));
}
BENCHMARK(BM_LocateRows);

} // namespace

int
main(int argc, char **argv)
{
    return exma::bench::googleBenchmarkMain(argc, argv);
}
