#include "persist/index_io.hh"

#include <chrono>
#include <filesystem>
#include <span>
#include <stdexcept>
#include <utility>

#include "common/logging.hh"
#include "fault/fault_injector.hh"
#include "io/format.hh"

namespace exma {

namespace {

using io_detail::probeLoadFaults;
using io_detail::shardStem;
using io_detail::writeBlob;

constexpr u32 kManifestMeta = 1; ///< whole-index description blob

// --- shard plan ---------------------------------------------------------

void
putPlan(BlobWriter &w, const ShardPlan &plan)
{
    w.putU64(plan.size());
    for (const Shard &s : plan.shards()) {
        w.putString(s.name);
        w.putU64(s.begin);
        w.putU64(s.length);
    }
    w.putU32(static_cast<u32>(plan.kind()));
    w.putU64(plan.refLength());
    w.putU64(plan.overlap());
    w.putU64(plan.maxQueryLen());
    w.putI32(plan.prefixLen());
    w.putU64(plan.prefixRanges().size());
    for (const PrefixRange &r : plan.prefixRanges()) {
        w.putU64(r.lo);
        w.putU64(r.hi);
    }
}

/** Fewest blob bytes one serialized shard takes: name length, begin,
 *  length. */
constexpr u64 kShardMinBytes = 3 * 8;

ShardPlan
getPlan(BlobReader &r)
{
    const u64 n_shards = r.getCount(kShardMinBytes);
    std::vector<Shard> shards(n_shards);
    for (Shard &s : shards) {
        s.name = r.getString();
        s.begin = r.getU64();
        s.length = r.getU64();
    }
    const u32 kind_raw = r.getU32();
    if (kind_raw > static_cast<u32>(ShardPlanKind::KmerPrefix))
        throw LoadError(r.context() + ": unknown shard-plan kind " +
                        std::to_string(kind_raw));
    const auto kind = static_cast<ShardPlanKind>(kind_raw);
    const u64 ref_len = r.getU64();
    const u64 overlap = r.getU64();
    const u64 max_query_len = r.getU64();
    const int prefix_len = r.getI32();
    const u64 n_ranges = r.getCount(2 * sizeof(u64));
    std::vector<PrefixRange> ranges(n_ranges);
    for (PrefixRange &pr : ranges) {
        pr.lo = r.getU64();
        pr.hi = r.getU64();
    }
    try {
        return ShardPlan::restore(std::move(shards), kind, ref_len,
                                  overlap, max_query_len, prefix_len,
                                  std::move(ranges));
    } catch (const std::invalid_argument &e) {
        throw LoadError(r.context() + ": " + e.what());
    }
}

// --- helpers ------------------------------------------------------------

void
saveManifest(const std::string &dir, const BlobWriter &w)
{
    std::filesystem::create_directories(dir);
    FileBuilder fb(kMagicManifest);
    writeBlob(fb, kManifestMeta, w);
    fb.save(dir + "/" + kManifestName);
}

/** Companion files of a table shard; a scan shard has only the .pac. */
constexpr const char *kTableExts[] = {kExtPac, kExtOcc, kExtSa};

/**
 * Point @p dst's companion files (@p exts) at @p src's as hard links,
 * replacing any file already there. A failed link panics, like any
 * other save IO failure.
 */
void
linkShardFiles(const std::string &src, const std::string &dst,
               std::span<const char *const> exts)
{
    for (const char *ext : exts) {
        std::error_code ec;
        std::filesystem::remove(dst + ext, ec);
        std::filesystem::create_hard_link(src + ext, dst + ext, ec);
        if (ec)
            exma_panic("cannot link '%s%s' to '%s%s': %s", dst.c_str(),
                       ext, src.c_str(), ext, ec.message().c_str());
    }
}

} // namespace

// --- whole-index directories --------------------------------------------

void
saveIndex(const ShardRouter &router, const std::string &dir)
{
    const ShardPlan &plan = router.plan();
    BlobWriter w;
    w.putU64(router.config().min_table_bases);
    putPlan(w, plan);
    saveManifest(dir, w);
    // Each distinct text is written once, at its first shard's stem;
    // every other shard sharing it gets hard links at its own stem.
    for (size_t s = 0; s < plan.size(); ++s) {
        const ExmaTable *table = router.shardTable(s);
        const size_t text = plan.textOf(s);
        if (text != s)
            linkShardFiles(shardStem(dir, text), shardStem(dir, s),
                           std::span(kTableExts).first(table ? 3 : 1));
        else if (table)
            saveTableFiles(*table, shardStem(dir, s));
        else
            saveScanFiles(router.shardScanRef(s), plan.sliceOf(s),
                          shardStem(dir, s));
    }
}

LoadedIndex
loadIndex(const std::string &dir)
{
    installFaultInjectorFromEnvOnce();
    const auto t0 = std::chrono::steady_clock::now();
    LoadedIndex out;

    const std::string manifest_path = dir + "/" + kManifestName;
    probeLoadFaults(manifest_path);
    const MappedFile manifest(manifest_path);
    const FileView view(manifest, kMagicManifest);
    const std::vector<u8> blob = view.readBlob(kManifestMeta);
    BlobReader r(blob, manifest_path);

    RouterConfig cfg;
    cfg.min_table_bases = r.getU64();
    ShardPlan plan = getPlan(r);
    r.finish();

    // The shard files are right here: if this router is flipped to the
    // socket transport, its workers mmap-load from this directory
    // instead of re-saving into a temp dir.
    cfg.transport.worker_dir = dir;

    // Each distinct text is mapped once, at its first shard's stem, and
    // the router hands it to every shard sharing it. Table or scan
    // follows from the manifest, by the rule the router build applies.
    std::vector<std::unique_ptr<ExmaTable>> tables(plan.size());
    std::vector<std::vector<Base>> scan_refs(plan.size());
    for (size_t s = 0; s < plan.size(); ++s) {
        if (plan.textOf(s) != s)
            continue;
        const std::string stem = shardStem(dir, s);
        TextSegment slice;
        if (cfg.indexesSlice(plan.sliceOf(s))) {
            LoadedExmaTable t = loadTableFiles(stem);
            for (MappedFile &f : t.files)
                out.files.push_back(std::move(f));
            slice = t.table->slice();
            cfg.table = t.table->config(); // k from the .occ, Exact
            tables[s] = std::move(t.table);
        } else {
            LoadedScanShard scan = loadScanFiles(stem);
            slice = scan.slice;
            scan_refs[s] = std::move(scan.text);
        }
        if (slice != plan.sliceOf(s))
            throw LoadError(stem + kExtPac +
                            ": text slice disagrees with the manifest's "
                            "plan");
    }
    // load_seconds is stamped below; buildSeconds() reports the
    // pre-adoption wall clock, which is what the benches record.
    const auto t1 = std::chrono::steady_clock::now();
    out.router = std::make_unique<ShardRouter>(
        std::move(plan), cfg, std::move(tables), std::move(scan_refs),
        std::chrono::duration<double>(t1 - t0).count());

    const auto t_end = std::chrono::steady_clock::now();
    out.load_seconds =
        std::chrono::duration<double>(t_end - t0).count();
    return out;
}

} // namespace exma
