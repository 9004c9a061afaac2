#include "io/table_io.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"
#include "fault/fault_injector.hh"
#include "fmindex/packed_rank.hh"
#include "learned/rmi.hh"

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

void
putTableConfig(BlobWriter &w, const ExmaTable::Config &cfg)
{
    w.putI32(cfg.k);
    w.putU32(static_cast<u32>(cfg.mode));
    w.putU64(cfg.mtl.min_increments);
    w.putU64(cfg.mtl.leaf_size);
    w.putI32(cfg.mtl.hidden);
    w.putI32(cfg.mtl.epochs);
    w.putU64(cfg.mtl.samples_per_class);
    w.putF64(cfg.mtl.lr);
    w.putU64(cfg.mtl.seed);
    w.putU64(cfg.naive.min_increments);
    w.putU64(cfg.naive.leaf_size);
    w.putI32(cfg.naive.hidden);
    w.putI32(cfg.naive.epochs);
    w.putU64(cfg.naive.train_cap);
    w.putU64(cfg.naive.seed);
    w.putU32(cfg.fm.occ_sample);
    w.putU32(cfg.fm.sa_sample);
}

ExmaTable::Config
getTableConfig(BlobReader &r)
{
    ExmaTable::Config cfg;
    cfg.k = r.getI32();
    const u32 mode = r.getU32();
    if (mode > static_cast<u32>(OccIndexMode::Mtl))
        throw LoadError(r.context() + ": config echo: unknown "
                                      "occ-index mode " +
                        std::to_string(mode));
    cfg.mode = static_cast<OccIndexMode>(mode);
    cfg.mtl.min_increments = r.getU64();
    cfg.mtl.leaf_size = r.getU64();
    cfg.mtl.hidden = r.getI32();
    cfg.mtl.epochs = r.getI32();
    cfg.mtl.samples_per_class = r.getU64();
    cfg.mtl.lr = r.getF64();
    cfg.mtl.seed = r.getU64();
    cfg.naive.min_increments = r.getU64();
    cfg.naive.leaf_size = r.getU64();
    cfg.naive.hidden = r.getI32();
    cfg.naive.epochs = r.getI32();
    cfg.naive.train_cap = r.getU64();
    cfg.naive.seed = r.getU64();
    cfg.fm.occ_sample = r.getU32();
    cfg.fm.sa_sample = r.getU32();
    return cfg;
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
static_assert(sizeof(ClampedLeaf) == 32);
static_assert(std::is_trivially_copyable_v<ClampedLeaf>);

// Section tags. Per-file namespaces; a tag's meaning never changes
// within a format version.
constexpr u32 kPacMeta = 1;     ///< config echo blob
constexpr u32 kPacSegments = 2; ///< TextSegment[1]: the covered slice
constexpr u32 kPacText = 3;     ///< scan shards: 2-bit slice text, u64[]

constexpr u32 kOccMeta = 1;      ///< k/rows/sentinels blob
constexpr u32 kOccBases = 2;     ///< base pointers, u32[4^k + 1]
constexpr u32 kOccRows = 3;      ///< concatenated increments, u32[]
constexpr u32 kOccModelMeta = 4; ///< learned-model blob (mode != Exact)
constexpr u32 kOccMtlLeaves = 5; ///< ClampedLeaf[] (MTL only)

constexpr u32 kSaMeta = 1;       ///< FM geometry blob
constexpr u32 kSaRankBlocks = 2; ///< PackedRank::Block[]
constexpr u32 kSaValues = 3;     ///< sampled SA values, u32[]
constexpr u32 kSaBvWords = 4;    ///< sampled-row bit vector words, u64[]
constexpr u32 kSaBvSuper = 5;    ///< bit vector rank checkpoints, u64[]

// Fewest blob bytes one element of each counted metadata sequence
// takes (BlobReader::getCount): the sum of its fixed-width fields.
constexpr u64 kMlpMinBytes = 2 * 4 + 4 * 8;        ///< putMlp
constexpr u64 kKmerLeavesBytes = 8 + 3 * 4;        ///< an MTL k-mer entry
constexpr u64 kLeafBytes = 4 * 8;                  ///< putLeaves
constexpr u64 kNaiveModelMinBytes = 4 * 4 + 10 * 8; ///< putNaiveModel
constexpr u64 kSentinelWindowBytes = 8 + 4;        ///< code, row

// --- learned models -----------------------------------------------------

void
putMlp(BlobWriter &w, const Mlp &m)
{
    w.putI32(m.inputDim());
    w.putI32(m.hiddenWidth());
    w.putF64Array(m.hiddenWeights());
    w.putF64Array(m.hiddenBiases());
    w.putF64Array(m.outputWeights());
    w.putF64(m.outputBias());
}

Mlp
getMlp(BlobReader &r)
{
    const int in_dim = r.getI32();
    const int hidden = r.getI32();
    std::vector<double> w1 = r.getF64Array();
    std::vector<double> b1 = r.getF64Array();
    std::vector<double> w2 = r.getF64Array();
    const double b2 = r.getF64();
    if (in_dim < 1 || in_dim > 2 || hidden < 1 ||
        w1.size() != static_cast<size_t>(hidden) * in_dim ||
        b1.size() != static_cast<size_t>(hidden) ||
        w2.size() != static_cast<size_t>(hidden))
        throw LoadError(r.context() + ": malformed MLP weights");
    return {in_dim, hidden, std::move(w1), std::move(b1), std::move(w2),
            b2};
}

void
putMtlModel(FileBuilder &fb, const MtlIndex &mtl)
{
    BlobWriter w;
    for (const int m : mtl.classModel())
        w.putI32(m);
    w.putU64(mtl.sharedMlps().size());
    for (const Mlp &m : mtl.sharedMlps())
        putMlp(w, m);
    // The k-mer -> leaf-range map lives in an unordered_map; serialize
    // sorted by code so identical tables save byte-identical files.
    std::vector<std::pair<Kmer, MtlIndex::KmerLeaves>> kmers(
        mtl.kmerMap().begin(), mtl.kmerMap().end());
    std::sort(kmers.begin(), kmers.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });
    w.putU64(kmers.size());
    for (const auto &[code, kl] : kmers) {
        w.putU64(code);
        w.putU32(kl.first_leaf);
        w.putU32(kl.n_leaves);
        w.putI32(kl.cls);
    }
    writeBlob(fb, kOccModelMeta, w);
    fb.writeArray<ClampedLeaf>(kOccMtlLeaves, mtl.leafArray());
}

MtlIndex::Restored
getMtlModel(const FileView &view, const MtlIndex::Config &cfg,
            const std::string &what)
{
    MtlIndex::Restored parts;
    parts.cfg = cfg;
    const std::vector<u8> blob = view.readBlob(kOccModelMeta);
    BlobReader r(blob, what + " (MTL model)");
    for (int &m : parts.class_model)
        m = r.getI32();
    const u64 n_mlps = r.getCount(kMlpMinBytes);
    parts.mlps.reserve(n_mlps);
    for (u64 i = 0; i < n_mlps; ++i)
        parts.mlps.push_back(getMlp(r));
    const u64 n_kmers = r.getCount(kKmerLeavesBytes);
    parts.kmers.reserve(n_kmers);
    for (u64 i = 0; i < n_kmers; ++i) {
        const Kmer code = r.getU64();
        MtlIndex::KmerLeaves kl;
        kl.first_leaf = r.getU32();
        kl.n_leaves = r.getU32();
        kl.cls = r.getI32();
        parts.kmers.emplace_back(code, kl);
    }
    r.finish();
    parts.leaves = Storage<ClampedLeaf>::borrowed(
        view.viewArray<ClampedLeaf>(kOccMtlLeaves));
    return parts;
}

void
putLeaves(BlobWriter &w, std::span<const ClampedLeaf> leaves)
{
    w.putU64(leaves.size());
    for (const ClampedLeaf &l : leaves) {
        w.putF64(l.model.w);
        w.putF64(l.model.b);
        w.putF64(l.ymin);
        w.putF64(l.ymax);
    }
}

std::vector<ClampedLeaf>
getLeaves(BlobReader &r)
{
    const u64 n = r.getCount(kLeafBytes);
    std::vector<ClampedLeaf> leaves(n);
    for (u64 i = 0; i < n; ++i) {
        leaves[i].model.w = r.getF64();
        leaves[i].model.b = r.getF64();
        leaves[i].ymin = r.getF64();
        leaves[i].ymax = r.getF64();
    }
    return leaves;
}

void
putNaiveModel(FileBuilder &fb, const NaiveKmerIndex &naive)
{
    std::vector<std::pair<Kmer, const Rmi<u32> *>> models;
    models.reserve(naive.models().size());
    for (const auto &[code, rmi] : naive.models())
        models.emplace_back(code, &rmi);
    std::sort(models.begin(), models.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });

    BlobWriter w;
    w.putU64(models.size());
    for (const auto &[code, rmi] : models) {
        w.putU64(code);
        const Rmi<u32>::Config &cfg = rmi->config();
        w.putU64(cfg.leaf_size);
        w.putU32(cfg.mlp_root ? 1 : 0);
        w.putI32(cfg.hidden);
        w.putI32(cfg.epochs);
        w.putU64(cfg.train_cap);
        w.putF64(cfg.lr);
        w.putU64(cfg.seed);
        w.putF64(rmi->lowKey());
        w.putF64(rmi->normScale());
        w.putF64(rmi->rootLinear().w);
        w.putF64(rmi->rootLinear().b);
        w.putU32(rmi->rootMlp() ? 1 : 0);
        if (rmi->rootMlp())
            putMlp(w, *rmi->rootMlp());
        putLeaves(w, rmi->leafArray());
    }
    writeBlob(fb, kOccModelMeta, w);
}

std::vector<std::pair<Kmer, Rmi<u32>::Parts>>
getNaiveModel(const FileView &view, const std::string &what)
{
    const std::vector<u8> blob = view.readBlob(kOccModelMeta);
    BlobReader r(blob, what + " (naive model)");
    const u64 n = r.getCount(kNaiveModelMinBytes);
    std::vector<std::pair<Kmer, Rmi<u32>::Parts>> models;
    models.reserve(n);
    for (u64 i = 0; i < n; ++i) {
        const Kmer code = r.getU64();
        Rmi<u32>::Parts parts;
        parts.cfg.leaf_size = r.getU64();
        parts.cfg.mlp_root = r.getU32() != 0;
        parts.cfg.hidden = r.getI32();
        parts.cfg.epochs = r.getI32();
        parts.cfg.train_cap = r.getU64();
        parts.cfg.lr = r.getF64();
        parts.cfg.seed = r.getU64();
        parts.lo = r.getF64();
        parts.scale = r.getF64();
        parts.root_lin.w = r.getF64();
        parts.root_lin.b = r.getF64();
        if (r.getU32() != 0)
            parts.root_mlp = getMlp(r);
        parts.leaves = getLeaves(r);
        models.emplace_back(code, std::move(parts));
    }
    r.finish();
    return models;
}

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

} // namespace

// --- single-table companion files ---------------------------------------

void
saveTableFiles(const ExmaTable &table, const std::string &stem)
{
    { // .exma.pac
        FileBuilder fb(kMagicPac);
        BlobWriter w;
        io_detail::putTableConfig(w, table.config());
        writeBlob(fb, kPacMeta, w);
        fb.writeArray<TextSegment>(kPacSegments,
                                   std::span(&table.slice(), 1));
        fb.save(stem + kExtPac);
    }

    { // .exma.occ
        const KmerOccTable &occ = table.occTable();
        FileBuilder fb(kMagicOcc);
        BlobWriter w;
        w.putI32(occ.k());
        w.putU64(occ.rows());
        w.putU64(occ.distinctKmers());
        w.putU64(occ.sentinelWindows().size());
        for (const auto &[code, row] : occ.sentinelWindows()) {
            w.putU64(code);
            w.putU32(row);
        }
        w.putU64(occ.sentinelThresholds().size());
        for (const u64 t : occ.sentinelThresholds())
            w.putU64(t);
        w.putU32(static_cast<u32>(table.mode()));
        writeBlob(fb, kOccMeta, w);
        fb.writeArray<u32>(kOccBases, occ.baseArray());
        fb.writeArray<u32>(kOccRows, occ.allIncrements());
        if (table.mtlIndex() != nullptr)
            putMtlModel(fb, *table.mtlIndex());
        else if (table.naiveIndex() != nullptr)
            putNaiveModel(fb, *table.naiveIndex());
        fb.save(stem + kExtOcc);
    }

    { // .exma.sa
        const FmIndex &fm = table.fmIndex();
        FileBuilder fb(kMagicSa);
        BlobWriter w;
        w.putU32(fm.config().occ_sample);
        w.putU32(fm.config().sa_sample);
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
        fb.save(stem + kExtSa);
    }
}

void
saveScanFiles(std::span<const Base> local_text, const TextSegment &slice,
              const std::string &stem)
{
    exma_assert(local_text.size() == slice.length,
                "scan text holds %zu bases, its slice %llu",
                local_text.size(), (unsigned long long)slice.length);
    FileBuilder fb(kMagicPac);
    BlobWriter w;
    io_detail::putTableConfig(w, ExmaTable::Config{}); // no table here
    writeBlob(fb, kPacMeta, w);
    fb.writeArray<TextSegment>(kPacSegments, std::span(&slice, 1));
    const std::vector<u64> words = packText(local_text);
    fb.writeArray<u64>(kPacText, words);
    fb.save(stem + kExtPac);
}

LoadedExmaTable
loadTableFiles(const std::string &stem)
{
    probeLoadFaults(stem);
    LoadedExmaTable out;
    out.files.reserve(3);
    out.files.emplace_back(stem + kExtPac);
    out.files.emplace_back(stem + kExtOcc);
    out.files.emplace_back(stem + kExtSa);
    const FileView pac(out.files[0], kMagicPac);
    const FileView occ(out.files[1], kMagicOcc);
    const FileView sa(out.files[2], kMagicSa);

    ExmaTable::Parts parts;

    { // .exma.pac: config echo + text slice
        const std::vector<u8> blob = pac.readBlob(kPacMeta);
        BlobReader r(blob, stem + kExtPac);
        parts.cfg = io_detail::getTableConfig(r);
        r.finish();
        parts.slice = oneSlice(pac, stem + kExtPac);
    }

    { // .exma.occ: the EXMA table
        const std::vector<u8> blob = occ.readBlob(kOccMeta);
        BlobReader r(blob, stem + kExtOcc);
        KmerOccTable::Restored ro;
        ro.k = r.getI32();
        ro.n_rows = r.getU64();
        ro.distinct = r.getU64();
        ro.sentinel_windows.resize(r.getCount(kSentinelWindowBytes));
        for (auto &[code, row] : ro.sentinel_windows) {
            code = r.getU64();
            row = r.getU32();
        }
        ro.sentinel_thresholds.resize(r.getCount(sizeof(u64)));
        for (u64 &t : ro.sentinel_thresholds)
            t = r.getU64();
        const u32 mode = r.getU32();
        r.finish();
        if (mode != static_cast<u32>(parts.cfg.mode))
            throw LoadError(stem + kExtOcc +
                            ": occ-index mode disagrees with the "
                            "config echo in " +
                            stem + kExtPac);
        ro.bases = Storage<u32>::borrowed(occ.viewArray<u32>(kOccBases));
        ro.rows = Storage<u32>::borrowed(occ.viewArray<u32>(kOccRows));
        parts.occ = std::move(ro);
    }

    { // .exma.sa: the FM-index
        const std::vector<u8> blob = sa.readBlob(kSaMeta);
        BlobReader r(blob, stem + kExtSa);
        FmIndex::Restored rf;
        rf.cfg.occ_sample = r.getU32();
        rf.cfg.sa_sample = r.getU32();
        rf.n_rows = r.getU64();
        for (u64 &c : rf.count)
            c = r.getU64();
        const u64 rank_n = r.getU64();
        const u64 rank_primary = r.getU64();
        const u64 bv_bits = r.getU64();
        const u64 bv_ones = r.getU64();
        r.finish();
        rf.rank = PackedRank(
            rank_n, rank_primary,
            Storage<PackedRank::Block>::borrowed(
                sa.viewArray<PackedRank::Block>(kSaRankBlocks)));
        rf.sa_sampled = BitVector(
            bv_bits, bv_ones,
            Storage<u64>::borrowed(sa.viewArray<u64>(kSaBvWords)),
            Storage<u64>::borrowed(sa.viewArray<u64>(kSaBvSuper)));
        rf.sa_values =
            Storage<u32>::borrowed(sa.viewArray<u32>(kSaValues));
        parts.fm = std::move(rf);
    }

    switch (parts.cfg.mode) {
    case OccIndexMode::Exact:
        break;
    case OccIndexMode::Mtl:
        parts.mtl = getMtlModel(occ, parts.cfg.mtl, stem + kExtOcc);
        break;
    case OccIndexMode::NaiveLearned:
        parts.naive = getNaiveModel(occ, stem + kExtOcc);
        break;
    }

    if (parts.fm.n_rows == 0 || parts.slice.length != parts.fm.n_rows - 1)
        throw LoadError(stem + kExtPac +
                        ": text slice disagrees with the table's " +
                        std::to_string(parts.fm.n_rows) + " rows");
    out.table = std::make_unique<ExmaTable>(std::move(parts));
    return out;
}

LoadedScanShard
loadScanFiles(const std::string &stem)
{
    const MappedFile file(stem + kExtPac);
    const FileView pac(file, kMagicPac);
    const std::vector<u8> blob = pac.readBlob(kPacMeta);
    BlobReader r(blob, stem + kExtPac);
    io_detail::getTableConfig(r); // config echo, unused for scan shards
    r.finish();

    LoadedScanShard out;
    out.slice = oneSlice(pac, stem + kExtPac);
    // Scan text is copied out (unpacking is a format change anyway),
    // so the mapping can be dropped right here.
    out.text = unpackText(pac.viewArray<u64>(kPacText), out.slice.length,
                          stem + kExtPac);
    return out;
}

} // namespace exma
