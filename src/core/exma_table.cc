#include "core/exma_table.hh"

#include <algorithm>

#include "common/branchless.hh"
#include "common/inflight.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "compress/chain.hh"
#include "fmindex/suffix_array.hh"

namespace exma {

ExmaTable::ExmaTable(const std::vector<Base> &ref, TextSegment slice,
                     const Config &cfg)
    : cfg_(cfg), slice_(slice)
{
    exma_assert(sliceFits(slice, ref.size()),
                "text slice of %llu bases at %llu does not fit the "
                "%llu-base reference",
                (unsigned long long)slice.length,
                (unsigned long long)slice.global_begin,
                (unsigned long long)ref.size());
    if (slice.length == ref.size())
        build(ref);
    else
        build(extractSegment(ref, slice));
}

ExmaTable::ExmaTable(const std::vector<Base> &ref, const Config &cfg)
    : ExmaTable(ref, TextSegment{0, ref.size()}, cfg)
{
}

ExmaTable::ExmaTable(Parts parts) : slice_(parts.slice)
{
    cfg_.k = parts.occ.k;
    fm_ = std::make_unique<FmIndex>(std::move(parts.fm));
    occ_ = std::make_unique<KmerOccTable>(std::move(parts.occ));
    exma_assert(fm_->size() == occ_->rows(),
                "table restore: FM-index and occ table disagree on rows");
}

void
ExmaTable::build(const std::vector<Base> &ref)
{
    // The FM index and the Occ table (with its model) only read the
    // suffix array, so they build at the same time: two one-item
    // chunks of one loop on the global pool, whose nesting lets the
    // Occ build keep its own chunked loop.
    const std::vector<SaIndex> sa = buildSuffixArray(ref);
    parallelFor(2, 1, [&](u64 item, u64, unsigned) {
        if (item == 0) {
            fm_ = std::make_unique<FmIndex>(ref, sa);
            return;
        }
        occ_ = std::make_unique<KmerOccTable>(ref, sa, cfg_.k);
        switch (cfg_.mode) {
            case OccIndexMode::Exact:
                break;
            case OccIndexMode::NaiveLearned:
                naive_ = std::make_unique<NaiveKmerIndex>(*occ_, cfg_.naive);
                break;
            case OccIndexMode::Mtl:
                mtl_ = std::make_unique<MtlIndex>(*occ_, cfg_.mtl);
                break;
        }
    });
}

std::vector<u64>
ExmaTable::locateAllGlobal(const Interval &iv, u64 /*query_len*/,
                           u64 limit) const
{
    std::vector<u64> out = fm_->locateAll(iv);
    globalHits(out, limit);
    return out;
}

void
ExmaTable::globalHits(std::vector<u64> &located, u64 limit) const
{
    for (u64 &pos : located)
        pos += slice_.global_begin;
    std::sort(located.begin(), located.end());
    if (located.size() > limit)
        located.resize(limit);
}

IndexLookup
ExmaTable::occ(Kmer code, u64 pos) const
{
    if (mtl_)
        return mtl_->occ(code, pos);
    if (naive_)
        return naive_->occ(code, pos);
    return occ_->occ(code, pos);
}

Interval
ExmaTable::stepKmer(const Interval &iv, Kmer code, SearchStats *stats) const
{
    const u64 c = occ_->countBefore(code);
    const IndexLookup lo = occ(code, iv.low);
    const IndexLookup hi = occ(code, iv.high);
    if (stats) {
        ++stats->kstep_iterations;
        stats->total_error += lo.error + hi.error;
        stats->total_probes += lo.probes + hi.probes;
        stats->model_lookups += lo.used_model + hi.used_model;
    }
    return Interval{c + lo.rank, c + hi.rank};
}

Interval
ExmaTable::search(const std::vector<Base> &query, SearchStats *stats) const
{
    const std::vector<Base> *q = &query;
    Interval iv;
    SearchStats unused;
    search({&q, 1}, {&iv, 1}, stats ? *stats : unused);
    return iv;
}

namespace {

/** The memory stage a staged search resolves on its next visit. */
enum class Stage : u8
{
    KmerBases,      ///< k-step: the k-mer's base pointers were prefetched
    KmerIncrements, ///< k-step: its increment lines were prefetched
    OneStep,        ///< 1-step: both ends' rank blocks were prefetched
};

} // namespace

EXMA_POPCNT_CLONES void
ExmaTable::search(std::span<const std::vector<Base> *const> queries,
                  std::span<Interval> out, SearchStats &stats) const
{
    exma_assert(out.size() == queries.size(),
                "staged search: %zu queries, %zu intervals",
                queries.size(), out.size());
    struct Search
    {
        size_t job = 0;         ///< index into queries / out
        const Base *q = nullptr;
        size_t i = 0;           ///< q[0, i) is still to be matched
        size_t rem = 0;         ///< length of the 1-step remainder
        Interval iv;
        Kmer code = 0;          ///< k-mer of the pending k-step
        Stage stage = Stage::KmerBases;
    };
    const int kk = k();
    const size_t step = static_cast<size_t>(kk);
    const PackedRank &rank = fm_->packedRank();

    // Prefetch what the search's next stage reads; false (with the
    // result written) when nothing is left to match.
    auto issue = [&](Search &s) {
        if (s.iv.empty()) {
            out[s.job] = Interval{s.iv.low, s.iv.low};
            return false;
        }
        if (s.i >= s.rem + step) {
            s.code = packKmer(s.q + (s.i - step), kk);
            occ_->prefetchBases(s.code);
            s.stage = Stage::KmerBases;
        } else if (s.i > 0) {
            rank.prefetch(s.iv.low);
            rank.prefetch(s.iv.high);
            s.stage = Stage::OneStep;
        } else {
            out[s.job] = s.iv;
            return false;
        }
        return true;
    };
    // Resolve the stage the last visit prefetched for.
    auto visit = [&](Search &s) {
        switch (s.stage) {
            case Stage::KmerBases:
                KmerOccTable::prefetchIncrements(occ_->increments(s.code));
                s.stage = Stage::KmerIncrements;
                return true;
            case Stage::KmerIncrements:
                s.i -= step;
                s.iv = stepKmer(s.iv, s.code, &stats);
                break;
            case Stage::OneStep:
                --s.i;
                s.iv = fm_->extend(s.iv, s.q[s.i]);
                ++stats.onestep_iterations;
                break;
        }
        return issue(s);
    };
    size_t next = 0;
    // Put the next unstarted query on @p s; false when none is left.
    auto start = [&](Search &s) {
        while (next < queries.size()) {
            const std::vector<Base> &q = *queries[next];
            s.job = next++;
            s.q = q.data();
            s.i = q.size();
            s.rem = q.size() % step;
            s.iv = fm_->fullInterval();
            if (issue(s))
                return true;
        }
        return false;
    };

    runInFlight<Search>(queries.size(), start, visit);
}

std::vector<ExmaTable::IterTrace>
ExmaTable::traceSearch(const std::vector<Base> &query) const
{
    std::vector<IterTrace> trace;
    const int kk = k();
    Interval iv = fm_->fullInterval();
    size_t i = query.size();
    const size_t rem = query.size() % static_cast<size_t>(kk);
    while (i >= rem + static_cast<size_t>(kk)) {
        i -= static_cast<size_t>(kk);
        const Kmer code = packKmer(query.data() + i, kk);
        IterTrace it;
        it.kmer = code;
        it.pos_low = iv.low;
        it.pos_high = iv.high;
        it.low = occ(code, iv.low);
        it.high = occ(code, iv.high);
        it.base = occ_->baseOf(code);
        trace.push_back(it);
        const u64 c = occ_->countBefore(code);
        iv = Interval{c + it.low.rank, c + it.high.rank};
        if (iv.empty())
            break;
    }
    return trace;
}

u64
ExmaTable::indexParamCount() const
{
    if (mtl_)
        return mtl_->paramCount();
    if (naive_)
        return naive_->paramCount();
    return 0;
}

ExmaTable::SizeReport
ExmaTable::sizeReport() const
{
    SizeReport r;
    const auto &inc = occ_->allIncrements();
    const auto &bases = occ_->baseArray();
    r.increments_raw = inc.size() * 4;
    r.increments_chain = chainCompressedSize(inc);
    r.bases_raw = bases.size() * 4;
    r.bases_chain = chainCompressedSize(bases);
    r.index_bytes = indexParamCount(); // 8-bit quantised (§IV.D)
    r.bwt_bytes = (rows() * 3 + 7) / 8;
    return r;
}

} // namespace exma
