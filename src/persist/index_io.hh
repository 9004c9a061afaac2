/**
 * @file
 * Save / load of whole indexes: a directory holding an
 * `index.exma.manifest` (kind, configs, serialized ShardPlan,
 * per-shard state) plus `table.exma.*` for a monolithic index or
 * `shardNNNN.exma.*` per shard for a routed one (scan shards carry
 * only the `.pac`). Single-table companion files are the layer
 * below, io/table_io.hh — this layer adds the manifest and the
 * shard-plan/router wiring, which is why it lives *above* route/shard
 * in the module DAG (src/persist) while the table layer stays below.
 *
 * Loading mmaps the files read-only and points the restored
 * structures' hot arrays straight into the mappings, so LoadedIndex
 * holds the MappedFiles alongside the structures and must stay alive
 * as long as the index serves. A routed index loaded from a directory
 * remembers that directory in its RouterConfig, so switching the
 * router to the socket transport serves the *same* files to
 * out-of-process workers with no re-save.
 */

#ifndef EXMA_PERSIST_INDEX_IO_HH
#define EXMA_PERSIST_INDEX_IO_HH

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "io/table_io.hh"
#include "route/shard_router.hh"

namespace exma {

/**
 * Index kinds a directory manifest can describe. Kind 1 named a
 * retired text-sharded layout; its manifests fail to load with a
 * rebuild hint, and the value is never reused.
 */
enum class IndexKind : u32
{
    Mono = 0,   ///< one ExmaTable
    Routed = 2, ///< ShardRouter (any ShardPlan kind)
};

/**
 * Save a whole index into directory @p dir (created if absent):
 * manifest + per-table companion files. The ExmaTable overload also
 * takes the text it was built over for the `.pac` text echo (may be
 * empty). The ShardRouter overload reads everything it needs from the
 * router itself.
 */
void saveIndex(const ExmaTable &table, std::span<const Base> local_text,
               const std::string &dir);
void saveIndex(const ShardRouter &router, const std::string &dir);

/**
 * A loaded index of either kind. Exactly one of table / router is set,
 * matching kind. files backs every borrowed hot array and is declared
 * first so the structures are destroyed before the mappings.
 */
struct LoadedIndex
{
    std::vector<MappedFile> files;
    IndexKind kind = IndexKind::Mono;
    std::unique_ptr<ExmaTable> table;
    std::unique_ptr<ShardRouter> router;
    /** Wall-clock seconds of the whole load (mmap + restore). */
    double load_seconds = 0.0;
};

/**
 * Load whatever index directory @p dir holds; throws LoadError on any
 * defect (missing/truncated/corrupt/version-mismatched files, or a
 * manifest of the retired kind 1). A routed index reports
 * load_seconds as buildSeconds().
 */
LoadedIndex loadIndex(const std::string &dir);

} // namespace exma

#endif // EXMA_PERSIST_INDEX_IO_HH
