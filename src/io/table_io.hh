/**
 * @file
 * Save / load of single tables through the `.exma.*` companion-file
 * format (io/format.hh).
 *
 * One table is three files at a stem:
 *
 *   stem.exma.pac   the one text slice the table covers
 *   stem.exma.occ   EXMA table: base pointers, increments, the k
 *                   sentinel thresholds of Count_k, and the checksum
 *                   of the .sa it was saved with
 *   stem.exma.sa    FM-index: packed-rank blocks, SA samples, sampled-
 *                   row bit vector
 *
 * The files hold the exact EXMA table and nothing learned: a model is
 * an in-memory build product, so a table built in MTL or naive mode
 * saves the same files as an Exact one, and every loaded table
 * resolves Occ exactly (mode Exact, k from the .occ metadata; the SA
 * sample stride is the constant FmIndex::kSaSample). Loading mmaps
 * the files read-only and points the restored structures' hot arrays
 * straight into the mappings (common/storage.hh), so the Loaded*
 * wrappers hold the MappedFiles alongside the structures and must
 * stay alive as long as the table serves.
 *
 * Before anything is built over the mappings, the loader checks that
 * the .occ was saved with this .sa (its recorded checksum) and every
 * size a restore constructor asserts (k, base pointers, sentinel
 * thresholds, rank blocks, SA samples, the Count sum, rows on both
 * sides, the slice), throwing LoadError naming the file. It does not check array
 * contents, such as monotone base pointers or rank checkpoints: a file
 * whose checksum was forged over wrong contents is out of reach.
 *
 * Whole-index directories (manifest + per-shard files) are one layer
 * up, in persist/index_io.hh — that layer knows about shard plans and
 * routers; this one stops at a single table so the io module stays
 * below route/shard in the layering DAG (the exma-worker child loads
 * its shard through exactly this seam).
 */

#ifndef EXMA_IO_TABLE_IO_HH
#define EXMA_IO_TABLE_IO_HH

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/exma_table.hh"
#include "io/format.hh"
#include "io/mapped_file.hh"

namespace exma {

/** Write @p table as stem.exma.{pac,occ,sa}. */
void saveTableFiles(const ExmaTable &table, const std::string &stem);

/**
 * Write a table-less scan shard as stem.exma.pac only: its slice plus
 * the slice's 2-bit text the worker scans. Only scan shards store
 * text.
 */
void saveScanFiles(std::span<const Base> local_text,
                   const TextSegment &slice, const std::string &stem);

/** A loaded table plus the mappings its hot arrays are borrowed from. */
struct LoadedExmaTable
{
    /** Declared before the table so the table is destroyed first. */
    std::vector<MappedFile> files;
    std::unique_ptr<ExmaTable> table;
};

/**
 * Load stem.exma.{pac,occ,sa} as an Exact-mode table; throws LoadError
 * on any defect the file comment lists.
 */
LoadedExmaTable loadTableFiles(const std::string &stem);

/** Load a scan shard's stem.exma.pac: slice + unpacked text. */
struct LoadedScanShard
{
    TextSegment slice;
    std::vector<Base> text;
};
LoadedScanShard loadScanFiles(const std::string &stem);

/**
 * Shared plumbing between this layer and persist/index_io.cc — not a
 * public API. The manifest layer reuses the same blob framing,
 * shard-stem naming and load-fault hook so one format version covers
 * every file in an index directory.
 */
namespace io_detail {

/** Fault hook for the mmap load path (site "io.load"). */
void probeLoadFaults(const std::string &path);

/** Write @p w's bytes as section @p tag. */
void writeBlob(FileBuilder &fb, u32 tag, const BlobWriter &w);

/** dir + "/shardNNNN" (4-digit, zero-padded). */
std::string shardStem(const std::string &dir, size_t i);

} // namespace io_detail

} // namespace exma

#endif // EXMA_IO_TABLE_IO_HH
