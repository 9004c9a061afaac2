#include "io/table_io.hh"

#include <algorithm>
#include <utility>

#include "common/dna.hh"
#include "common/logging.hh"
#include "fault/fault_injector.hh"
#include "fmindex/packed_rank.hh"

namespace exma {

namespace io_detail {

/**
 * Fault hook for the mmap load path (site "io.load"): a throw rule
 * becomes a LoadError naming @p path, a delay rule a bounded sleep —
 * so tests and the soak can exercise load failure/slowness during
 * respawn without corrupting real files. Kill/hang/corrupt rules have
 * no process to kill here and are ignored.
 */
void
probeLoadFaults(const std::string &path)
{
    FaultInjector *fi = faultInjector();
    if (fi == nullptr)
        return;
    for (const FaultAction &a : fi->at("io.load")) {
        switch (a.kind) {
        case FaultKind::ThrowInProcess:
            throw LoadError(path + ": injected load fault");
        case FaultKind::DelayMs: {
            CancelToken token; // uncancellable here: plain bounded sleep
            token.sleepFor(a.ms);
            break;
        }
        case FaultKind::KillWorker:
        case FaultKind::HangRequest:
        case FaultKind::CorruptResponse:
            break;
        }
    }
}

void
writeBlob(FileBuilder &fb, u32 tag, const BlobWriter &w)
{
    fb.writeArray<u8>(tag, w.bytes());
}

std::string
shardStem(const std::string &dir, size_t i)
{
    std::string n = std::to_string(i);
    if (n.size() < 4)
        n.insert(0, 4 - n.size(), '0');
    return dir + "/shard" + n;
}

} // namespace io_detail

namespace {

using io_detail::probeLoadFaults;
using io_detail::writeBlob;

// On-disk element-layout contracts (lint: ondisk-pod-assert). Any
// change to one of these sizes is a format change: bump kFormatVersion.
static_assert(sizeof(u8) == 1);
static_assert(std::is_trivially_copyable_v<u8>);
static_assert(sizeof(u32) == 4);
static_assert(std::is_trivially_copyable_v<u32>);
static_assert(sizeof(u64) == 8);
static_assert(std::is_trivially_copyable_v<u64>);
static_assert(sizeof(TextSegment) == 16);
static_assert(std::is_trivially_copyable_v<TextSegment>);
static_assert(sizeof(PackedRank::Block) == 32);
static_assert(std::is_trivially_copyable_v<PackedRank::Block>);

// Section tags. Per-file namespaces; a tag's meaning never changes
// within a format version.
constexpr u32 kPacSegments = 2; ///< TextSegment[1]: the covered slice
constexpr u32 kPacText = 3;     ///< scan shards: 2-bit slice text, u64[]

constexpr u32 kOccMeta = 1;  ///< k/rows/thresholds/.sa checksum blob
constexpr u32 kOccBases = 2; ///< base pointers, u32[4^k + 1]
constexpr u32 kOccRows = 3;  ///< concatenated increments, u32[]

constexpr u32 kSaMeta = 1;       ///< FM geometry blob
constexpr u32 kSaRankBlocks = 2; ///< PackedRank::Block[]
constexpr u32 kSaValues = 3;     ///< sampled SA values, u32[]
constexpr u32 kSaBvWords = 4;    ///< sampled-row bit vector words, u64[]
constexpr u32 kSaBvSuper = 5;    ///< bit vector rank checkpoints, u64[]

// --- 2-bit text packing -------------------------------------------------

std::vector<u64>
packText(std::span<const Base> text)
{
    std::vector<u64> words;
    words.reserve(text.size() / kBasesPerWord + 1);
    for (size_t i = 0; i < text.size(); i += kBasesPerWord)
        words.push_back(packWord(
            text.subspan(i, std::min(kBasesPerWord, text.size() - i))));
    return words;
}

std::vector<Base>
unpackText(std::span<const u64> words, u64 n, const std::string &what)
{
    if (words.size() !=
        n / kBasesPerWord + (n % kBasesPerWord != 0 ? 1 : 0))
        throw LoadError(what + ": packed text holds " +
                        std::to_string(words.size()) + " words for " +
                        std::to_string(n) + " bases");
    std::vector<Base> text(n);
    for (u64 i = 0; i < n; i += kBasesPerWord)
        unpackWord(words[i / kBasesPerWord],
                   std::span(text).subspan(
                       i, std::min<u64>(kBasesPerWord, n - i)));
    return text;
}

/** The one slice a `.pac` file covers; any other count is a defect. */
TextSegment
oneSlice(const FileView &pac, const std::string &what)
{
    const auto segs = pac.viewArray<TextSegment>(kPacSegments);
    if (segs.size() != 1)
        throw LoadError(what + ": " + std::to_string(segs.size()) +
                        " text slices, a table or scan shard covers "
                        "exactly one");
    return segs[0];
}

/** Throw a LoadError naming @p file unless @p ok. */
void
require(bool ok, const std::string &file, const std::string &what)
{
    if (!ok)
        throw LoadError(file + ": " + what);
}

} // namespace

// --- single-table companion files ---------------------------------------

void
saveTableFiles(const ExmaTable &table, const std::string &stem)
{
    u64 sa_checksum = 0;
    { // .exma.sa, first: the .occ records its checksum
        const FmIndex &fm = table.fmIndex();
        FileBuilder fb(kMagicSa);
        BlobWriter w;
        w.putU64(fm.size());
        for (const u64 c : fm.countArray())
            w.putU64(c);
        w.putU64(fm.packedRank().size());
        w.putU64(fm.packedRank().primary());
        w.putU64(fm.saSampled().size());
        w.putU64(fm.saSampled().ones());
        writeBlob(fb, kSaMeta, w);
        fb.writeArray<PackedRank::Block>(kSaRankBlocks,
                                         fm.packedRank().blocks());
        fb.writeArray<u32>(kSaValues, fm.saValues());
        fb.writeArray<u64>(kSaBvWords, fm.saSampled().words());
        fb.writeArray<u64>(kSaBvSuper, fm.saSampled().superWords());
        sa_checksum = fb.save(stem + kExtSa);
    }

    { // .exma.occ
        const KmerOccTable &occ = table.occTable();
        FileBuilder fb(kMagicOcc);
        BlobWriter w;
        w.putI32(occ.k());
        w.putU64(occ.rows());
        w.putU64(occ.sentinelThresholds().size());
        for (const u64 t : occ.sentinelThresholds())
            w.putU64(t);
        w.putU64(sa_checksum);
        writeBlob(fb, kOccMeta, w);
        fb.writeArray<u32>(kOccBases, occ.baseArray());
        fb.writeArray<u32>(kOccRows, occ.allIncrements());
        fb.save(stem + kExtOcc);
    }

    FileBuilder pac(kMagicPac);
    pac.writeArray<TextSegment>(kPacSegments, std::span(&table.slice(), 1));
    pac.save(stem + kExtPac);
}

void
saveScanFiles(std::span<const Base> local_text, const TextSegment &slice,
              const std::string &stem)
{
    exma_assert(local_text.size() == slice.length,
                "scan text holds %zu bases, its slice %llu",
                local_text.size(), (unsigned long long)slice.length);
    FileBuilder fb(kMagicPac);
    fb.writeArray<TextSegment>(kPacSegments, std::span(&slice, 1));
    const std::vector<u64> words = packText(local_text);
    fb.writeArray<u64>(kPacText, words);
    fb.save(stem + kExtPac);
}

LoadedExmaTable
loadTableFiles(const std::string &stem)
{
    probeLoadFaults(stem);
    const std::string pac_path = stem + kExtPac;
    const std::string occ_path = stem + kExtOcc;
    const std::string sa_path = stem + kExtSa;
    LoadedExmaTable out;
    out.files.reserve(3);
    out.files.emplace_back(pac_path);
    out.files.emplace_back(occ_path);
    out.files.emplace_back(sa_path);
    const FileView pac(out.files[0], kMagicPac);
    const FileView occ(out.files[1], kMagicOcc);
    const FileView sa(out.files[2], kMagicSa);

    // Every size a restore constructor asserts is checked here first,
    // so files that disagree throw instead of aborting.
    ExmaTable::Parts parts;
    parts.slice = oneSlice(pac, pac_path);

    { // .exma.occ: the EXMA table, bound to the .sa it was saved with
        const std::vector<u8> blob = occ.readBlob(kOccMeta);
        BlobReader r(blob, occ_path);
        KmerOccTable::Restored ro;
        ro.k = r.getI32();
        ro.n_rows = r.getU64();
        ro.sentinel_thresholds.resize(r.getCount(sizeof(u64)));
        for (u64 &t : ro.sentinel_thresholds)
            t = r.getU64();
        const u64 sa_checksum = r.getU64();
        r.finish();
        require(sa_checksum == sa.checksum(), occ_path,
                "saved with another " + sa_path +
                    " (companion files do not belong together)");
        require(ro.k >= 1 && ro.k <= kMaxKmerLen, occ_path,
                "k=" + std::to_string(ro.k) + " outside 1.." +
                    std::to_string(kMaxKmerLen));
        const auto bases = occ.viewArray<u32>(kOccBases);
        const auto rows = occ.viewArray<u32>(kOccRows);
        require(bases.size() == kmerSpace(ro.k) + 1 &&
                    bases.back() == rows.size(),
                occ_path,
                std::to_string(bases.size()) + " base pointers and " +
                    std::to_string(rows.size()) +
                    " increments do not fit k=" + std::to_string(ro.k));
        require(ro.sentinel_thresholds.size() == static_cast<u64>(ro.k),
                occ_path,
                std::to_string(ro.sentinel_thresholds.size()) +
                    " sentinel thresholds for k=" + std::to_string(ro.k));
        ro.bases = Storage<u32>::borrowed(bases);
        ro.rows = Storage<u32>::borrowed(rows);
        parts.occ = std::move(ro);
    }

    { // .exma.sa: the FM-index
        const std::vector<u8> blob = sa.readBlob(kSaMeta);
        BlobReader r(blob, sa_path);
        FmIndex::Restored rf;
        rf.n_rows = r.getU64();
        for (u64 &c : rf.count)
            c = r.getU64();
        const u64 rank_n = r.getU64();
        const u64 rank_primary = r.getU64();
        const u64 bv_bits = r.getU64();
        const u64 bv_ones = r.getU64();
        r.finish();
        const auto blocks = sa.viewArray<PackedRank::Block>(kSaRankBlocks);
        const auto values = sa.viewArray<u32>(kSaValues);
        const auto words = sa.viewArray<u64>(kSaBvWords);
        const auto super = sa.viewArray<u64>(kSaBvSuper);
        require(rank_n == rf.n_rows && blocks.size() == (rank_n >> 6) + 1,
                sa_path,
                std::to_string(blocks.size()) +
                    " rank blocks do not cover " +
                    std::to_string(rf.n_rows) + " rows");
        require(bv_bits == rf.n_rows &&
                    words.size() == bv_bits / 64 + (bv_bits % 64 != 0) &&
                    super.size() == (words.size() + 7) / 8 + 1 &&
                    super.back() == bv_ones && values.size() == bv_ones,
                sa_path, "SA samples do not fit their bit vector");
        require(rf.count[kBwtAlphabet] == rf.n_rows, sa_path,
                "Count array does not sum to the row count");
        rf.rank = PackedRank(rank_n, rank_primary,
                             Storage<PackedRank::Block>::borrowed(blocks));
        rf.sa_sampled = BitVector(bv_bits, bv_ones,
                                  Storage<u64>::borrowed(words),
                                  Storage<u64>::borrowed(super));
        rf.sa_values = Storage<u32>::borrowed(values);
        parts.fm = std::move(rf);
    }

    require(parts.occ.n_rows == parts.fm.n_rows, occ_path,
            std::to_string(parts.occ.n_rows) + " rows, " + sa_path +
                " holds " + std::to_string(parts.fm.n_rows));
    require(parts.fm.n_rows != 0 &&
                parts.slice.length == parts.fm.n_rows - 1,
            pac_path,
            "text slice disagrees with the table's " +
                std::to_string(parts.fm.n_rows) + " rows");
    out.table = std::make_unique<ExmaTable>(std::move(parts));
    return out;
}

LoadedScanShard
loadScanFiles(const std::string &stem)
{
    const MappedFile file(stem + kExtPac);
    const FileView pac(file, kMagicPac);
    LoadedScanShard out;
    out.slice = oneSlice(pac, stem + kExtPac);
    // Scan text is copied out (unpacking is a format change anyway),
    // so the mapping can be dropped right here.
    out.text = unpackText(pac.viewArray<u64>(kPacText), out.slice.length,
                          stem + kExtPac);
    return out;
}

} // namespace exma
