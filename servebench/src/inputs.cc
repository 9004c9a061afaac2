/**
 * @file
 * Workload table, seeded input generation and the naive-scan oracle.
 * The seed drives the reference, the read sampling and the arrival
 * schedule; the program under test only ever sees the
 * generated vectors.
 */

#include <algorithm>
#include <cmath>

#include "common/rng.hh"
#include "genome/reads.hh"
#include "harness.hh"

namespace servebench {

namespace {

// Closed-loop workloads cycle through this many pre-built batches.
constexpr u64 kClosedBatches = 32;
// Every query is drawn 101 bases long; simulated indels change the
// length of some reads.
constexpr u64 kQueryLen = 101;

const WorkloadSpec kWorkloads[] = {
    {"bulk_reads", false, 4096, 0.0, 0},
    {"online_inproc", true, 0, 8000.0, 2},
};

/**
 * The `human` shape of genome/reference.cc's makeDataset at scale 1:
 * its length and repeat fraction. The benchmark regenerates the
 * reference with the run's seed instead of the dataset's fixed one.
 */
constexpr const char *kDataset = "human";
constexpr u64 kReferenceLen = u64{8} << 20;
constexpr double kRepeatFraction = 0.45;

} // namespace

const WorkloadSpec *
findWorkload(const std::string &name)
{
    for (const WorkloadSpec &w : kWorkloads)
        if (name == w.name)
            return &w;
    return nullptr;
}

u64
streamSeed(u64 seed, u64 purpose)
{
    exma::SplitMix64 sm(seed * 0x100000001b3ULL + purpose);
    return sm.next();
}

exma::ExmaTable::Config
tableConfig(const exma::Dataset &ds)
{
    // The figure benches' configuration at scale 1 (bench/bench_util.cc
    // exmaConfig).
    exma::ExmaTable::Config cfg;
    cfg.k = ds.exma_k;
    cfg.mode = exma::OccIndexMode::Mtl;
    cfg.mtl.leaf_size = 512;
    cfg.mtl.min_increments = 256;
    cfg.mtl.epochs = 120;
    cfg.mtl.samples_per_class = 4096;
    return cfg;
}

std::vector<std::vector<u64>>
poissonSchedule(double rate, unsigned generators, double seconds, u64 seed)
{
    std::vector<std::vector<u64>> out(generators);
    const double per_gen = rate / static_cast<double>(generators);
    for (unsigned g = 0; g < generators; ++g) {
        exma::Rng rng(streamSeed(seed, 100 + g));
        double t = 0.0;
        for (;;) {
            t += -std::log1p(-rng.uniform()) / per_gen;
            if (t >= seconds)
                break;
            out[g].push_back(static_cast<u64>(t * 1e9));
        }
    }
    return out;
}

Inputs
makeInputs(const WorkloadSpec &w, u64 seed, double seconds)
{
    exma::ReferenceSpec spec;
    spec.length = kReferenceLen;
    spec.repeat_fraction = kRepeatFraction;
    spec.seed = streamSeed(seed, 1);

    Inputs in;
    in.ds = exma::makeDatasetFromRef(kDataset, exma::generateReference(spec));
    const std::vector<Base> &ref = in.ds.ref;

    Queries pool;
    if (w.open_loop) {
        in.schedule =
            poissonSchedule(w.rate_per_s, w.generators, seconds,
                            streamSeed(seed, 3));
        u64 n = 0;
        for (const auto &s : in.schedule)
            n += s.size();
        pool = exma::samplePatterns(ref, n, kQueryLen, streamSeed(seed, 2));
        in.requests.resize(w.generators);
        size_t next = 0;
        for (unsigned g = 0; g < w.generators; ++g) {
            in.requests[g].reserve(in.schedule[g].size());
            for (size_t k = 0; k < in.schedule[g].size(); ++k)
                in.requests[g].push_back({std::move(pool[next++])});
        }
        for (const auto &reqs : in.requests)
            for (const Queries &r : reqs)
                in.max_query_len =
                    std::max<u64>(in.max_query_len, r[0].size());
        return in;
    }

    exma::ReadSimSpec rs;
    rs.read_len = kQueryLen;
    rs.max_reads = kClosedBatches * w.batch_queries;
    rs.seed = streamSeed(seed, 2);
    // Reads are submitted as sequenced: reverse-strand reads stay
    // reverse-complemented, and indels change their length.
    for (exma::Read &r : exma::simulateReads(ref, exma::illuminaProfile(), rs))
        pool.push_back(std::move(r.seq));
    for (const auto &q : pool)
        in.max_query_len = std::max<u64>(in.max_query_len, q.size());
    in.batches.resize(kClosedBatches);
    for (u64 b = 0; b < kClosedBatches; ++b)
        in.batches[b].assign(
            std::make_move_iterator(pool.begin() +
                                    static_cast<long>(b * w.batch_queries)),
            std::make_move_iterator(
                pool.begin() + static_cast<long>((b + 1) * w.batch_queries)));
    return in;
}

std::vector<u64>
naiveOccurrences(const std::vector<Base> &ref, const std::vector<Base> &q)
{
    std::vector<u64> out;
    auto it = ref.begin();
    for (;;) {
        it = std::search(it, ref.end(), q.begin(), q.end());
        if (it == ref.end())
            break;
        out.push_back(static_cast<u64>(it - ref.begin()));
        ++it;
    }
    return out;
}

} // namespace servebench
