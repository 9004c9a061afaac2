// The persistent `.exma.*` format (src/io/): container round trips,
// every corruption class failing closed with LoadError, and full-index
// differential proofs — a saved + mmap-loaded index must return
// bit-identical intervals, positions and SearchStats to the freshly
// built table it came from, in every occ-index mode and layout.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "genome/reference.hh"
#include "io/format.hh"
#include "persist/index_io.hh"

namespace exma {
namespace {

namespace fs = std::filesystem;

// On-disk element-layout contracts (lint: ondisk-pod-assert) for the
// array types this suite writes through FileBuilder.
static_assert(sizeof(u8) == 1);
static_assert(std::is_trivially_copyable_v<u8>);
static_assert(sizeof(u32) == 4);
static_assert(std::is_trivially_copyable_v<u32>);
static_assert(sizeof(u64) == 8);
static_assert(std::is_trivially_copyable_v<u64>);

std::string
tempDir(const std::string &name)
{
    const fs::path dir = fs::path(::testing::TempDir()) / name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

const std::vector<Base> &
testRef()
{
    static const std::vector<Base> ref = [] {
        ReferenceSpec spec;
        spec.length = 1 << 16;
        spec.repeat_fraction = 0.5;
        spec.seed = 77;
        return generateReference(spec);
    }();
    return ref;
}

ExmaTable::Config
cfgFor(OccIndexMode mode, int k = 4)
{
    ExmaTable::Config cfg;
    cfg.k = k;
    cfg.mode = mode;
    cfg.mtl.epochs = 15;
    cfg.mtl.samples_per_class = 1024;
    cfg.naive.epochs = 8;
    return cfg;
}

std::vector<std::vector<Base>>
refQueries(u64 count, u64 len, u64 seed = 3)
{
    const std::vector<Base> &ref = testRef();
    Rng rng(seed);
    std::vector<std::vector<Base>> queries(count);
    for (auto &q : queries) {
        const u64 pos = rng.below(ref.size() - len + 1);
        q.assign(ref.begin() + static_cast<long>(pos),
                 ref.begin() + static_cast<long>(pos + len));
    }
    return queries;
}

// --- container (FileBuilder / FileView) ---------------------------------

constexpr char kTestMagic[8] = {'E', 'X', 'M', 'A', 'T', 'S', 'T', '\0'};

std::string
writeTestFile(const std::string &dir)
{
    const std::string path = dir + "/file.bin";
    FileBuilder fb(kTestMagic);
    const std::vector<u32> words{1, 2, 3, 4, 5};
    fb.writeArray<u32>(1, words);
    BlobWriter w;
    w.putU64(42);
    w.putString("hello");
    fb.writeArray<u8>(2, w.bytes());
    fb.save(path);
    return path;
}

void
patchByte(const std::string &path, u64 offset, u8 value)
{
    std::fstream f(path,
                   std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(reinterpret_cast<const char *>(&value), 1); // NOLINT(cppcoreguidelines-pro-type-reinterpret-cast)
}

// XOR-flip so the byte is guaranteed to change whatever it held.
void
flipByte(const std::string &path, u64 offset)
{
    std::fstream f(path,
                   std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    f.seekg(static_cast<std::streamoff>(offset));
    char c = 0;
    f.read(&c, 1);
    c = static_cast<char>(c ^ 0xFF);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&c, 1);
}

bool
pointsIntoMapping(const std::vector<MappedFile> &files, const void *p)
{
    const u8 *b = static_cast<const u8 *>(p);
    for (const MappedFile &f : files)
        if (b >= f.data() && b < f.data() + f.size())
            return true;
    return false;
}

TEST(FileFormatTest, RoundTripsSectionsAndBlob)
{
    const std::string path = writeTestFile(tempDir("fmt_roundtrip"));
    const MappedFile file(path);
    const FileView view(file, kTestMagic);
    ASSERT_TRUE(view.has(1));
    ASSERT_TRUE(view.has(2));
    EXPECT_FALSE(view.has(3));

    const auto words = view.viewArray<u32>(1);
    ASSERT_EQ(words.size(), 5u);
    EXPECT_EQ(words[0], 1u);
    EXPECT_EQ(words[4], 5u);
    // Sections are 64-byte aligned into the mapping (zero-copy).
    EXPECT_EQ(reinterpret_cast<uintptr_t>(words.data()) % 64, 0u); // NOLINT(cppcoreguidelines-pro-type-reinterpret-cast)

    const std::vector<u8> blob = view.readBlob(2);
    BlobReader r(blob, "test blob");
    EXPECT_EQ(r.getU64(), 42u);
    EXPECT_EQ(r.getString(), "hello");
    r.finish();
}

TEST(FileFormatTest, MissingFileThrows)
{
    EXPECT_THROW(MappedFile("/nonexistent/exma/index.bin"), LoadError);
}

TEST(FileFormatTest, EmptyFileThrows)
{
    const std::string path = tempDir("fmt_empty") + "/empty.bin";
    { std::ofstream out(path); }
    EXPECT_THROW(MappedFile{path}, LoadError);
}

TEST(FileFormatTest, TruncatedFileThrows)
{
    const std::string path = writeTestFile(tempDir("fmt_trunc"));
    const u64 size = fs::file_size(path);
    fs::resize_file(path, size - 8);
    const MappedFile file(path);
    EXPECT_THROW(FileView(file, kTestMagic), LoadError);
}

TEST(FileFormatTest, BadMagicThrows)
{
    const std::string path = writeTestFile(tempDir("fmt_magic"));
    patchByte(path, 0, 'Z');
    const MappedFile file(path);
    EXPECT_THROW(FileView(file, kTestMagic), LoadError);
}

TEST(FileFormatTest, WrongMagicConstantThrows)
{
    // A valid file opened as the wrong companion kind must refuse too.
    const std::string path = writeTestFile(tempDir("fmt_kind"));
    const MappedFile file(path);
    EXPECT_THROW(FileView(file, kMagicOcc), LoadError);
}

TEST(FileFormatTest, WrongVersionThrows)
{
    const std::string path = writeTestFile(tempDir("fmt_version"));
    patchByte(path, 8, static_cast<u8>(kFormatVersion + 1)); // header.version
    const MappedFile file(path);
    try {
        const FileView view(file, kTestMagic);
        FAIL() << "version mismatch not detected";
    } catch (const LoadError &e) {
        EXPECT_NE(std::string(e.what()).find("version"),
                  std::string::npos);
    }
}

TEST(FileFormatTest, FlippedPayloadByteFailsChecksum)
{
    const std::string path = writeTestFile(tempDir("fmt_checksum"));
    const u64 size = fs::file_size(path);
    flipByte(path, size - 1); // last payload byte
    const MappedFile file(path);
    try {
        const FileView view(file, kTestMagic);
        FAIL() << "corruption not detected";
    } catch (const LoadError &e) {
        EXPECT_NE(std::string(e.what()).find("checksum"),
                  std::string::npos);
    }
}

TEST(FileFormatTest, ElementSizeMismatchThrows)
{
    const std::string path = writeTestFile(tempDir("fmt_elem"));
    const MappedFile file(path);
    const FileView view(file, kTestMagic);
    EXPECT_THROW(view.viewArray<u64>(1), LoadError); // written as u32
    EXPECT_THROW(view.viewArray<u32>(9), LoadError); // no such section
}

TEST(FileFormatTest, BlobReaderOverrunThrows)
{
    BlobWriter w;
    w.putU32(7);
    BlobReader r(w.bytes(), "blob");
    EXPECT_EQ(r.getU32(), 7u);
    try {
        r.getU64(); // nothing left
        FAIL() << "overrun not detected";
    } catch (const LoadError &e) {
        // The message carries the reader's label (load sites pass the
        // companion-file path) and the byte offset of the bad field.
        EXPECT_NE(std::string(e.what()).find("blob @+4"),
                  std::string::npos)
            << e.what();
    }
    BlobReader unfinished(w.bytes(), "blob");
    try {
        unfinished.finish(); // unconsumed bytes
        FAIL() << "trailing garbage not detected";
    } catch (const LoadError &e) {
        EXPECT_NE(std::string(e.what()).find("blob @+0"),
                  std::string::npos)
            << e.what();
    }
}

// --- single-table round trips -------------------------------------------

void
expectIdenticalSearch(const ExmaTable &built, const ExmaTable &loaded)
{
    ASSERT_EQ(loaded.k(), built.k());
    ASSERT_EQ(loaded.rows(), built.rows());
    ASSERT_EQ(loaded.mode(), built.mode());
    for (const auto &q : refQueries(60, 24)) {
        SearchStats sb, sl;
        const Interval ib = built.search(q, &sb);
        const Interval il = loaded.search(q, &sl);
        EXPECT_EQ(ib, il);
        EXPECT_EQ(sb, sl); // identical models -> identical error/probes
        EXPECT_GT(ib.count(), 0u); // sampled off the reference
        EXPECT_EQ(built.locateAllGlobal(ib, q.size()),
                  loaded.locateAllGlobal(il, q.size()));
    }
}

class TableRoundTripTest
    : public ::testing::TestWithParam<OccIndexMode>
{
};

TEST_P(TableRoundTripTest, LoadedTableSearchesIdentically)
{
    const ExmaTable built(testRef(), cfgFor(GetParam()));
    const std::string stem = tempDir("table_rt") + "/table";
    saveTableFiles(built, stem, testRef());
    const LoadedExmaTable loaded = loadTableFiles(stem);
    expectIdenticalSearch(built, *loaded.table);
    // The hot arrays must be borrowed from the mappings, not copied.
    EXPECT_TRUE(pointsIntoMapping(
        loaded.files, loaded.table->occTable().baseArray().data()));
}

INSTANTIATE_TEST_SUITE_P(AllModes, TableRoundTripTest,
                         ::testing::Values(OccIndexMode::Exact,
                                           OccIndexMode::NaiveLearned,
                                           OccIndexMode::Mtl),
                         [](const auto &info) {
                             switch (info.param) {
                             case OccIndexMode::Exact:
                                 return "Exact";
                             case OccIndexMode::NaiveLearned:
                                 return "Naive";
                             case OccIndexMode::Mtl:
                                 return "Mtl";
                             }
                             return "?";
                         });

TEST(TableCorruptionTest, FlippedOccByteFailsClosed)
{
    const ExmaTable built(testRef(), cfgFor(OccIndexMode::Exact));
    const std::string stem = tempDir("table_corrupt") + "/table";
    saveTableFiles(built, stem);
    const std::string occ_path = stem + kExtOcc;
    flipByte(occ_path, fs::file_size(occ_path) / 2);
    try {
        loadTableFiles(stem);
        FAIL() << "corruption not detected";
    } catch (const LoadError &e) {
        // Every load-path LoadError names the failing file.
        EXPECT_NE(std::string(e.what()).find(occ_path),
                  std::string::npos)
            << e.what();
    }
}

TEST(TableCorruptionTest, MissingCompanionFileFailsClosed)
{
    const ExmaTable built(testRef(), cfgFor(OccIndexMode::Exact));
    const std::string stem = tempDir("table_missing") + "/table";
    saveTableFiles(built, stem);
    fs::remove(stem + kExtSa);
    EXPECT_THROW(loadTableFiles(stem), LoadError);
}

TEST(TableCorruptionTest, SwappedCompanionFilesFailClosed)
{
    const ExmaTable built(testRef(), cfgFor(OccIndexMode::Exact));
    const std::string stem = tempDir("table_swap") + "/table";
    saveTableFiles(built, stem);
    fs::rename(stem + kExtSa, stem + ".tmp");
    fs::rename(stem + kExtOcc, stem + kExtSa);
    fs::rename(stem + ".tmp", stem + kExtOcc);
    EXPECT_THROW(loadTableFiles(stem), LoadError);
}

// --- whole-index round trips --------------------------------------------

TEST(IndexRoundTripTest, MonoDirectory)
{
    const ExmaTable built(testRef(), cfgFor(OccIndexMode::Mtl));
    const std::string dir = tempDir("idx_mono");
    saveIndex(built, testRef(), dir);
    const LoadedIndex loaded = loadIndex(dir);
    ASSERT_EQ(loaded.kind, IndexKind::Mono);
    ASSERT_NE(loaded.table, nullptr);
    expectIdenticalSearch(built, *loaded.table);
    EXPECT_GE(loaded.load_seconds, 0.0);
}

/**
 * Save a router over `plan`, load it back and expect the same shards,
 * segment maps, hits and stats. Prefix maps are read back from the
 * manifest; text maps are re-derived from the plan.
 */
void
expectRoutedRoundTrip(const ShardPlan &plan, const std::string &dir_name)
{
    RouterConfig cfg;
    cfg.table = cfgFor(OccIndexMode::Exact);
    const ShardRouter built(testRef(), plan, cfg);
    const std::string dir = tempDir(dir_name);
    saveIndex(built, dir);
    const LoadedIndex loaded = loadIndex(dir);
    ASSERT_EQ(loaded.kind, IndexKind::Routed);
    ASSERT_NE(loaded.router, nullptr);
    ASSERT_EQ(loaded.router->shardCount(), built.shardCount());
    for (size_t s = 0; s < plan.size(); ++s)
        EXPECT_EQ(loaded.router->plan().segmentsOf(s), plan.segmentsOf(s));

    const auto queries = refQueries(40, 32);
    const RoutedResult rb = built.search(queries);
    const RoutedResult rl = loaded.router->search(queries);
    EXPECT_EQ(rb.hits, rl.hits);
    EXPECT_EQ(rb.stats, rl.stats);
    EXPECT_EQ(rb.routed_queries, rl.routed_queries);
    for (const auto &h : rb.hits)
        EXPECT_FALSE(h.empty());
}

TEST(IndexRoundTripTest, ShardedTextDirectory)
{
    // A text-partitioned plan saves and loads as a routed index.
    expectRoutedRoundTrip(ShardPlan::fixedWidth(testRef().size(), 3, 64),
                          "idx_sharded");
}

TEST(IndexRoundTripTest, RoutedDirectory)
{
    expectRoutedRoundTrip(ShardPlan::kmerPrefix(testRef(), 4, 64),
                          "idx_routed");
}

TEST(IndexRoundTripTest, RoutedWithScanShards)
{
    // Force every shard under min_table_bases so the saved index
    // exercises the scan-shard (.pac-only) path end to end.
    const ShardPlan plan = ShardPlan::kmerPrefix(testRef(), 3, 48);
    RouterConfig cfg;
    cfg.table = cfgFor(OccIndexMode::Exact);
    cfg.min_table_bases = ~u64{0};
    const ShardRouter built(testRef(), plan, cfg);
    const std::string dir = tempDir("idx_scan");
    saveIndex(built, dir);
    const LoadedIndex loaded = loadIndex(dir);
    ASSERT_NE(loaded.router, nullptr);

    const auto queries = refQueries(20, 32);
    EXPECT_EQ(built.search(queries).hits,
              loaded.router->search(queries).hits);
}

TEST(IndexRoundTripTest, CorruptManifestFailsClosed)
{
    const ExmaTable built(testRef(), cfgFor(OccIndexMode::Exact));
    const std::string dir = tempDir("idx_corrupt_manifest");
    saveIndex(built, testRef(), dir);
    const std::string manifest = dir + "/" + kManifestName;
    flipByte(manifest, fs::file_size(manifest) - 1);
    EXPECT_THROW(loadIndex(dir), LoadError);
}

TEST(IndexRoundTripTest, RetiredOrUnknownKindFailsClosed)
{
    // Kind 1 named the retired text-sharded layout: its manifests must
    // fail with a rebuild hint instead of loading as an index with no
    // structure set. Every other unknown kind fails too.
    const std::string dir = tempDir("idx_retired_kind");
    const std::string manifest = dir + "/" + kManifestName;
    const auto writeKind = [&](u32 kind) {
        BlobWriter w;
        w.putU32(kind);
        FileBuilder fb(kMagicManifest);
        io_detail::writeBlob(fb, 1, w); // the manifest's meta blob tag
        fb.save(manifest);
    };

    writeKind(1);
    try {
        loadIndex(dir);
        FAIL() << "kind-1 manifest loaded";
    } catch (const LoadError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(manifest), std::string::npos) << what;
        EXPECT_NE(what.find("exma-index build --layout routed"),
                  std::string::npos)
            << what;
    }
    writeKind(3);
    EXPECT_THROW(loadIndex(dir), LoadError);
}

} // namespace
} // namespace exma
