#include "persist/index_io.hh"

#include <chrono>
#include <filesystem>
#include <span>
#include <utility>

#include "common/logging.hh"
#include "fault/fault_injector.hh"
#include "io/format.hh"

namespace exma {

namespace {

using io_detail::getTableConfig;
using io_detail::probeLoadFaults;
using io_detail::putTableConfig;
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

ShardPlan
getPlan(BlobReader &r)
{
    const u64 n_shards = r.getU64();
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
    const u64 n_ranges = r.getU64();
    std::vector<PrefixRange> ranges(n_ranges);
    for (PrefixRange &pr : ranges) {
        pr.lo = r.getU64();
        pr.hi = r.getU64();
    }
    return ShardPlan::restore(std::move(shards), kind, ref_len, overlap,
                              max_query_len, prefix_len, std::move(ranges));
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

/** Per-shard worker state bytes in a routed manifest. */
constexpr u32 kShardScan = 1;
constexpr u32 kShardTable = 2;

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

/** Manifest kind of the retired text-sharded layout (see IndexKind). */
constexpr u32 kRetiredTextShardedKind = 1;

} // namespace

// --- whole-index directories --------------------------------------------

void
saveIndex(const ExmaTable &table, std::span<const Base> local_text,
          const std::string &dir)
{
    BlobWriter w;
    w.putU32(static_cast<u32>(IndexKind::Mono));
    saveManifest(dir, w);
    saveTableFiles(table, dir + "/table", local_text);
}

void
saveIndex(const ShardRouter &router, const std::string &dir)
{
    const ShardPlan &plan = router.plan();
    BlobWriter w;
    w.putU32(static_cast<u32>(IndexKind::Routed));
    putTableConfig(w, router.config().table);
    w.putU64(router.config().min_table_bases);
    putPlan(w, plan);
    w.putU64(plan.size());
    for (size_t s = 0; s < plan.size(); ++s)
        w.putU32(router.shardTable(s) != nullptr ? kShardTable : kShardScan);
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

    const u32 kind_raw = r.getU32();
    if (kind_raw == kRetiredTextShardedKind)
        throw LoadError(manifest_path +
                        ": index kind 1 (text-sharded) is no longer "
                        "served; rebuild it with `exma-index build "
                        "--layout routed`");
    if (kind_raw != static_cast<u32>(IndexKind::Mono) &&
        kind_raw != static_cast<u32>(IndexKind::Routed))
        throw LoadError(manifest_path + ": unknown index kind " +
                        std::to_string(kind_raw));
    out.kind = static_cast<IndexKind>(kind_raw);

    switch (out.kind) {
    case IndexKind::Mono: {
        r.finish();
        LoadedExmaTable t = loadTableFiles(dir + "/table");
        out.files = std::move(t.files);
        out.table = std::move(t.table);
        break;
    }
    case IndexKind::Routed: {
        RouterConfig cfg;
        cfg.table = getTableConfig(r);
        cfg.min_table_bases = r.getU64();
        ShardPlan plan = getPlan(r);
        const u64 n_states = r.getU64();
        if (n_states != plan.size())
            throw LoadError(manifest_path + ": " +
                            std::to_string(n_states) +
                            " shard states for a " +
                            std::to_string(plan.size()) + "-shard plan");
        std::vector<u32> states(n_states);
        for (u32 &s : states)
            s = r.getU32();
        r.finish();

        // The shard files are right here: if this router is flipped
        // to the socket transport, its workers mmap-load from this
        // directory instead of re-saving into a temp dir.
        cfg.transport.worker_dir = dir;

        // Each distinct text is mapped once, at its first shard's stem,
        // and the router hands it to every shard sharing it.
        std::vector<std::unique_ptr<ExmaTable>> tables(plan.size());
        std::vector<std::vector<Base>> scan_refs(plan.size());
        for (size_t s = 0; s < plan.size(); ++s) {
            const size_t text = plan.textOf(s);
            if (states[s] != kShardTable && states[s] != kShardScan)
                throw LoadError(manifest_path + ": unknown shard state " +
                                std::to_string(states[s]));
            if (states[s] != states[text])
                throw LoadError(manifest_path + ": shard " +
                                std::to_string(s) +
                                " shares its text with shard " +
                                std::to_string(text) +
                                " but not its state");
            if (text != s)
                continue;
            if (states[s] == kShardScan) {
                LoadedScanShard scan = loadScanFiles(shardStem(dir, s));
                if (scan.slice != plan.sliceOf(s))
                    throw LoadError(shardStem(dir, s) + kExtPac +
                                    ": text slice disagrees with the "
                                    "manifest's plan");
                scan_refs[s] = std::move(scan.text);
            } else {
                LoadedExmaTable t = loadTableFiles(shardStem(dir, s));
                if (t.table->slice() != plan.sliceOf(s))
                    throw LoadError(shardStem(dir, s) + kExtPac +
                                    ": text slice disagrees with the "
                                    "manifest's plan");
                for (MappedFile &f : t.files)
                    out.files.push_back(std::move(f));
                tables[s] = std::move(t.table);
            }
        }
        // load_seconds is stamped below; buildSeconds() reports the
        // pre-adoption wall clock, which is what the benches record.
        const auto t1 = std::chrono::steady_clock::now();
        out.router = std::make_unique<ShardRouter>(
            std::move(plan), cfg, std::move(tables), std::move(scan_refs),
            std::chrono::duration<double>(t1 - t0).count());
        break;
    }
    }

    const auto t_end = std::chrono::steady_clock::now();
    out.load_seconds =
        std::chrono::duration<double>(t_end - t0).count();
    return out;
}

} // namespace exma
