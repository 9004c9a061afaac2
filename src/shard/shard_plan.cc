#include "shard/shard_plan.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"

namespace exma {

ShardPlan
ShardPlan::fixedWidth(u64 ref_len, unsigned n_shards, u64 max_query_len)
{
    exma_assert(ref_len > 0, "cannot shard an empty reference");
    exma_assert(n_shards > 0, "need at least one shard");
    exma_assert(max_query_len > 0, "max_query_len must be positive");
    // A bound past the reference length is meaningless (no longer query
    // can match at all) and its overlap arithmetic would wrap u64 —
    // kUnboundedQueryLen in particular is a perRecord-only value.
    exma_assert(max_query_len <= ref_len,
                "max_query_len %llu exceeds the %llu-base reference",
                (unsigned long long)max_query_len,
                (unsigned long long)ref_len);

    ShardPlan plan;
    plan.ref_len_ = ref_len;
    plan.max_query_len_ = max_query_len;
    plan.overlap_ = max_query_len - 1;

    const u64 stride = (ref_len + n_shards - 1) / n_shards; // ceil
    for (unsigned i = 0; i < n_shards; ++i) {
        const u64 begin = stride * i;
        if (begin >= ref_len)
            break; // reference too small for the requested shard count
        const u64 end = std::min(ref_len, begin + stride + plan.overlap_);
        plan.shards_.push_back(
            {"shard" + std::to_string(i), begin, end - begin});
    }
    plan.deriveTextSegments();
    return plan;
}

ShardPlan
ShardPlan::kmerPrefix(const std::vector<Base> &ref, unsigned n_shards,
                      u64 max_query_len, int prefix_len)
{
    const u64 n = ref.size();
    exma_assert(n > 0, "cannot shard an empty reference");
    exma_assert(n_shards > 0, "need at least one shard");
    exma_assert(max_query_len > 0, "max_query_len must be positive");
    exma_assert(max_query_len <= n,
                "max_query_len %llu exceeds the %llu-base reference",
                (unsigned long long)max_query_len, (unsigned long long)n);
    if (prefix_len == 0) {
        // Enough codes that a balanced cut stays balanced: >= 64 per
        // shard, within the histogram budget.
        prefix_len = 2;
        while (prefix_len < 8 &&
               kmerSpace(prefix_len) < u64{64} * n_shards)
            ++prefix_len;
    }
    exma_assert(prefix_len >= 1 && prefix_len <= kMaxPrefixLen,
                "routing prefix of %d bases is outside [1, %d]",
                prefix_len, kMaxPrefixLen);

    ShardPlan plan;
    plan.kind_ = ShardPlanKind::KmerPrefix;
    plan.ref_len_ = n;
    plan.max_query_len_ = max_query_len;
    plan.overlap_ = 0;
    plan.prefix_len_ = prefix_len;

    // A-padded rolling prefix code of every position, back to front:
    // code(g) = ref[g..g+p) packed, missing tail bases reading as 'A'
    // (code 0) so every position — including the last p-1 — has a
    // well-defined owner that any query starting there still reaches.
    const int p = prefix_len;
    const u64 codes = kmerSpace(p);
    std::vector<u32> code_of(n);
    Kmer rolling = 0;
    for (u64 g = n; g-- > 0;) {
        rolling = (static_cast<Kmer>(ref[g] & 3) << (2 * (p - 1))) |
                  (rolling >> 2);
        code_of[g] = static_cast<u32>(rolling);
    }

    // Owned-position histogram -> contiguous cuts of ~equal weight.
    // Heavily skewed references can jump past several targets at one
    // code; the ranges left behind are empty, which is legal.
    std::vector<u64> hist(codes, 0);
    for (u64 g = 0; g < n; ++g)
        ++hist[code_of[g]];
    std::vector<Kmer> cut(n_shards + 1, codes);
    cut[0] = 0;
    u64 acc = 0;
    unsigned next = 1;
    for (u64 c = 0; c < codes && next < n_shards; ++c) {
        acc += hist[c];
        while (next < n_shards &&
               acc * n_shards >= static_cast<u64>(next) * n)
            cut[next++] = c + 1;
    }
    for (unsigned s = 0; s < n_shards; ++s)
        plan.prefix_ranges_.push_back({cut[s], cut[s + 1]});

    std::vector<u32> shard_of(codes);
    for (unsigned s = 0; s < n_shards; ++s)
        for (Kmer c = cut[s]; c < cut[s + 1]; ++c)
            shard_of[c] = s;

    // Each owned position contributes its [g, g + max_query_len)
    // context window; windows merge into maximal runs per shard, so a
    // global position appears at most once in any one shard's map.
    plan.segments_.assign(n_shards, {});
    const u64 W = max_query_len;
    for (u64 g = 0; g < n; ++g) {
        auto &segs = plan.segments_[shard_of[code_of[g]]];
        const u64 wend = std::min(n, g + W);
        if (!segs.empty() && g <= segs.back().global_end())
            segs.back().length =
                std::max(segs.back().global_end(), wend) -
                segs.back().global_begin;
        else
            segs.push_back({g, 0, wend - g});
    }
    for (unsigned s = 0; s < n_shards; ++s) {
        u64 local = 0;
        for (TextSegment &seg : plan.segments_[s]) {
            seg.local_begin = local;
            local += seg.length;
        }
        plan.shards_.push_back({"prefix" + std::to_string(s), 0, local});
    }
    return plan;
}

size_t
ShardPlan::ownerOf(Kmer code) const
{
    exma_assert(kind_ == ShardPlanKind::KmerPrefix,
                "ownerOf needs a kmerPrefix plan");
    exma_assert(code < kmerSpace(prefix_len_),
                "code %llu is not a packed %d-mer",
                (unsigned long long)code, prefix_len_);
    // Last range with lo <= code: empty ranges share their lo with the
    // non-empty successor that actually contains the code, so taking
    // the last skips them.
    const auto it = std::upper_bound(
        prefix_ranges_.begin(), prefix_ranges_.end(), code,
        [](Kmer c, const PrefixRange &r) { return c < r.lo; });
    const size_t s = static_cast<size_t>(it - prefix_ranges_.begin()) - 1;
    exma_dassert(prefix_ranges_[s].contains(code),
                 "owner search failed for code %llu",
                 (unsigned long long)code);
    return s;
}

std::pair<size_t, size_t>
ShardPlan::ownersOfRange(Kmer lo, Kmer hi) const
{
    exma_assert(lo < hi, "empty code range");
    return {ownerOf(lo), ownerOf(hi - 1)};
}

PrefixRange
ShardPlan::queryPrefixRange(const Base *query, size_t len) const
{
    exma_assert(kind_ == ShardPlanKind::KmerPrefix,
                "queryPrefixRange needs a kmerPrefix plan");
    exma_assert(len > 0, "empty query has no prefix");
    const size_t p = static_cast<size_t>(prefix_len_);
    if (len >= p) {
        const Kmer c = packKmer(query, prefix_len_);
        return {c, c + 1};
    }
    // A short query A-pads to the range of every code starting with it
    // — the same padding rule position ownership uses, so every match
    // (even one within p bases of the reference end) lies in the range.
    const int pad = 2 * static_cast<int>(p - len);
    const Kmer lo = packKmer(query, static_cast<int>(len)) << pad;
    return {lo, lo + (Kmer{1} << pad)};
}

ShardPlan
ShardPlan::perRecord(const std::vector<RecordSpan> &records)
{
    exma_assert(!records.empty(), "per-record plan needs records");

    ShardPlan plan;
    plan.overlap_ = 0;
    plan.max_query_len_ = kUnboundedQueryLen;

    u64 cursor = 0;
    u64 folded = 0;
    for (const RecordSpan &rec : records) {
        exma_assert(rec.begin == cursor,
                    "record spans must be contiguous from 0 (record "
                    "'%s' begins at %llu, expected %llu)",
                    rec.name.c_str(), (unsigned long long)rec.begin,
                    (unsigned long long)cursor);
        cursor += rec.length;
        if (rec.length == 0) {
            exma_warn("shard plan: skipping empty record '%s'",
                      rec.name.c_str());
            continue;
        }
        // A preceding shard still below the indexable minimum absorbs
        // this record (spans are contiguous, so the slice stays one
        // contiguous run).
        if (!plan.shards_.empty() &&
            plan.shards_.back().length < kMinShardBases) {
            plan.shards_.back().length += rec.length;
            plan.shards_.back().name += "+" + rec.name;
            ++folded;
            continue;
        }
        plan.shards_.push_back({rec.name, rec.begin, rec.length});
    }
    // A tiny trailing shard folds backwards instead.
    if (plan.shards_.size() >= 2 &&
        plan.shards_.back().length < kMinShardBases) {
        Shard tail = std::move(plan.shards_.back());
        plan.shards_.pop_back();
        plan.shards_.back().length += tail.length;
        plan.shards_.back().name += "+" + tail.name;
        ++folded;
    }
    if (folded > 0)
        exma_warn("shard plan: folded %llu record(s) shorter than "
                  "%llu bases into neighbouring shards (only those "
                  "seams can report concatenation artifacts)",
                  (unsigned long long)folded,
                  (unsigned long long)kMinShardBases);
    plan.ref_len_ = cursor;
    exma_assert(!plan.shards_.empty(),
                "per-record plan: every record is empty");
    plan.deriveTextSegments();
    return plan;
}

ShardPlan
ShardPlan::restore(std::vector<Shard> shards, ShardPlanKind kind,
                   u64 ref_len, u64 overlap, u64 max_query_len,
                   int prefix_len, std::vector<PrefixRange> prefix_ranges,
                   std::vector<std::vector<TextSegment>> segments)
{
    ShardPlan plan;
    plan.shards_ = std::move(shards);
    plan.kind_ = kind;
    plan.ref_len_ = ref_len;
    plan.overlap_ = overlap;
    plan.max_query_len_ = max_query_len;
    plan.prefix_len_ = prefix_len;
    plan.prefix_ranges_ = std::move(prefix_ranges);
    plan.segments_ = std::move(segments);

    exma_assert(!plan.shards_.empty(), "plan restore: no shards");
    exma_assert(plan.ref_len_ > 0, "plan restore: empty reference");
    if (plan.kind_ == ShardPlanKind::KmerPrefix) {
        exma_assert(plan.prefix_len_ >= 1 &&
                        plan.prefix_len_ <= kMaxPrefixLen,
                    "plan restore: prefix_len %d out of range",
                    plan.prefix_len_);
        exma_assert(plan.prefix_ranges_.size() == plan.shards_.size() &&
                        plan.segments_.size() == plan.shards_.size(),
                    "plan restore: per-shard arrays disagree with the "
                    "shard count");
        // Ranges must be contiguous and cover the whole code space —
        // the invariant ownerOf()'s binary search relies on.
        Kmer expect = 0;
        for (const PrefixRange &r : plan.prefix_ranges_) {
            exma_assert(r.lo == expect && r.hi >= r.lo,
                        "plan restore: prefix ranges not contiguous");
            expect = r.hi;
        }
        exma_assert(expect == kmerSpace(plan.prefix_len_),
                    "plan restore: prefix ranges do not cover the code "
                    "space");
        for (const auto &segs : plan.segments_)
            validateSegments(segs, plan.ref_len_);
    } else {
        exma_assert(plan.prefix_ranges_.empty() &&
                        plan.segments_.empty() && plan.prefix_len_ == 0,
                    "plan restore: text plan carries prefix state");
        for (const Shard &sh : plan.shards_)
            exma_assert(sh.end() <= plan.ref_len_,
                        "plan restore: shard '%s' runs past the "
                        "reference",
                        sh.name.c_str());
        plan.deriveTextSegments();
    }
    return plan;
}

void
ShardPlan::deriveTextSegments()
{
    segments_.clear();
    for (const Shard &sh : shards_)
        segments_.push_back({TextSegment{sh.begin, 0, sh.length}});
}

} // namespace exma
