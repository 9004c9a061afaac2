/**
 * @file
 * Save / load of whole indexes. An index is a ShardRouter of any plan
 * (a single table is a 1-shard kmerPrefix router), saved as a
 * directory holding an `index.exma.manifest` (min_table_bases and the
 * serialized ShardPlan) plus `shardNNNN.exma.*` per shard. Whether a
 * shard is a table (`.pac`, `.occ`, `.sa`) or a scan shard (`.pac`
 * only, with its text) follows from the manifest alone
 * (RouterConfig::indexesSlice). Shards that share a text (every shard
 * of a kmerPrefix plan) share its files: the first shard's stem holds
 * them, every other shard's stem holds hard links to them, and a load
 * maps them once. Single-table companion files are the layer below,
 * io/table_io.hh — this layer adds the manifest and the
 * shard-plan/router wiring, which is why it lives *above* route/shard
 * in the module DAG (src/persist) while the table layer stays below.
 *
 * Loading mmaps the files read-only and points the restored
 * structures' hot arrays straight into the mappings, so LoadedIndex
 * holds the MappedFiles alongside the router and must stay alive as
 * long as the index serves. The files hold no learned model, so every
 * loaded table resolves Occ exactly, and the loaded router's
 * RouterConfig::table is its tables' own config (k from their files,
 * mode Exact). A loaded index remembers its
 * directory in its RouterConfig, so switching the router to the
 * socket transport serves the *same* files to out-of-process workers
 * with no re-save.
 */

#ifndef EXMA_PERSIST_INDEX_IO_HH
#define EXMA_PERSIST_INDEX_IO_HH

#include <memory>
#include <string>
#include <vector>

#include "io/table_io.hh"
#include "route/shard_router.hh"

namespace exma {

/**
 * Save @p router as an index in directory @p dir (created if absent):
 * manifest + per-shard companion files, read from the router itself.
 */
void saveIndex(const ShardRouter &router, const std::string &dir);

/**
 * A loaded index. files backs every borrowed hot array and is
 * declared first so the router is destroyed before the mappings.
 */
struct LoadedIndex
{
    std::vector<MappedFile> files;
    std::unique_ptr<ShardRouter> router;
    /** Wall-clock seconds of the whole load (mmap + restore). */
    double load_seconds = 0.0;
};

/**
 * Load the index directory @p dir; throws LoadError on any defect
 * (missing/truncated/corrupt/version-mismatched files, or a manifest
 * whose plan or counts do not hold together). The router reports the
 * load up to its construction as buildSeconds().
 */
LoadedIndex loadIndex(const std::string &dir);

} // namespace exma

#endif // EXMA_PERSIST_INDEX_IO_HH
