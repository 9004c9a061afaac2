// The persistent `.exma.*` format (src/io/): container round trips,
// every corruption class failing closed with LoadError (crafted
// manifests and tables with valid checksums included), and full-index
// differential proofs — a saved + mmap-loaded index must return
// bit-identical intervals, positions and SearchStats to the freshly
// built one it came from, in every shard plan. Files hold no learned
// model: a table built in MTL or naive mode loads as an Exact one, with
// the same hits and an Exact table's stats.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "genome/reference.hh"
#include "io/format.hh"
#include "io/table_io.hh"
#include "persist/index_io.hh"
#include "transport/wire.hh"

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

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), {}};
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

TEST(FileFormatTest, WrappingSectionCountThrows)
{
    // 2^62 four-byte elements is 2^64 bytes, which wraps to 0: the
    // section must still be refused, checksum restamped or not.
    const std::string path = writeTestFile(tempDir("fmt_wrap"));
    std::string bytes = fileBytes(path);
    const u64 count = u64{1} << 62;
    // Section entry 0 follows the 64-byte header; its count sits 8 in.
    std::memcpy(bytes.data() + sizeof(FileHeader) + 8, &count, sizeof(count));
    const u64 sum = fnv1aWords(std::span(
        reinterpret_cast<const u8 *>(bytes.data()) + sizeof(FileHeader), // NOLINT(cppcoreguidelines-pro-type-reinterpret-cast)
        bytes.size() - sizeof(FileHeader)));
    std::memcpy(bytes.data() + offsetof(FileHeader, checksum), &sum,
                sizeof(sum));
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
    const MappedFile file(path);
    try {
        const FileView view(file, kTestMagic);
        FAIL() << "wrapped section count not detected";
    } catch (const LoadError &e) {
        EXPECT_NE(std::string(e.what()).find("runs past EOF"),
                  std::string::npos)
            << e.what();
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

TEST(FileFormatTest, BlobReaderCountOverflowThrows)
{
    // A count the blob cannot hold fails before any container is
    // sized, including counts whose byte size wraps u64 (2^61 words
    // is 2^64 bytes, which a multiplying check sees as 0).
    for (const u64 count : {u64{1} << 61, u64{1} << 40, ~u64{0}}) {
        BlobWriter w;
        w.putU64(count);
        w.putU64(1);
        BlobReader words(w.bytes(), "blob");
        EXPECT_THROW(words.getCount(sizeof(u64)), LoadError) << count;
        BlobReader chars(w.bytes(), "blob");
        EXPECT_THROW(chars.getString(), LoadError) << count;
        BlobReader shards(w.bytes(), "blob");
        EXPECT_THROW(shards.getCount(24), LoadError) << count;
    }
    BlobWriter w;
    w.putU64(1);
    w.putU64(25);
    BlobReader r(w.bytes(), "blob");
    EXPECT_EQ(r.getCount(sizeof(u64)), 1u);
    EXPECT_EQ(r.getU64(), 25u);
    r.finish();
}

/** @p n LCG bases, the same on every host. */
std::vector<Base>
fixedBases(size_t n, u64 seed)
{
    std::vector<Base> out(n);
    for (Base &b : out) {
        seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
        b = static_cast<Base>(seed >> 62);
    }
    return out;
}

// The layout lock freezes struct layouts, not the bodies built from
// them: a change to the bit order inside a packed word, a field order
// or a length width passes every round trip. These hashes were taken
// from the format-6 writers. Version 6 dropped the request head's
// grain and the .sa meta's two sampling fields, so the request body,
// the .sa checksum and the .occ meta blob (which records that
// checksum) changed; the response and scan-text bodies are format 5's.
// A body change must bump kFormatVersion and recapture them.
TEST(FileFormatTest, SerializedBodiesArePinnedToTheFormatVersion)
{
    EXPECT_EQ(kFormatVersion, 6u);

    // Query lengths on both sides of the 32-base word edges.
    std::vector<std::vector<Base>> queries;
    u64 seed = 11;
    for (const size_t len : {1, 31, 32, 33, 64})
        queries.push_back(fixedBases(len, seed++));
    WorkerRequest req;
    req.batch = QueryBatchView::own(std::move(queries), {9, 0, 4, 2, 7});
    EXPECT_EQ(fnv1aWords(encodeRequest(req)), 0x68b32626fa10d657ULL);

    WorkerResponse ok;
    ok.ids = {3, 1, 8};
    ok.hits = {{7, 19, u64{1} << 35}, {}, {2}};
    ok.stats = SearchStats{1, 2, 3, 4, 5};
    ok.seconds = 0.5;
    ok.canary = responseCanary(ok);
    EXPECT_EQ(fnv1aWords(encodeResponse(ok)), 0x730030fa3b187650ULL);

    WorkerResponse failed;
    failed.status = WorkerStatus::Failed;
    failed.error = "shard compute threw";
    failed.ids = {6, 2};
    EXPECT_EQ(fnv1aWords(encodeResponse(failed)), 0xc189d83bfdd99b52ULL);

    // A scan shard's packed text section (tag 3 of its .exma.pac).
    const std::string dir = tempDir("fmt_golden");
    const std::string stem = dir + "/scan";
    saveScanFiles(fixedBases(100, 5), TextSegment{1000, 100}, stem);
    const MappedFile pac_file(stem + kExtPac);
    const FileView pac(pac_file, kMagicPac);
    const std::span<const u64> words = pac.viewArray<u64>(3);
    const std::span<const u8> text(
        reinterpret_cast<const u8 *>(words.data()), // NOLINT(cppcoreguidelines-pro-type-reinterpret-cast)
        words.size_bytes());
    EXPECT_EQ(fnv1aWords(text), 0x5e2ae8c6e9cf5798ULL);

    // A table's whole .exma.sa body, through its checksum, and its
    // .exma.occ meta blob (tag 1), which records that checksum.
    ExmaTable::Config tcfg;
    tcfg.k = 4;
    saveTableFiles(ExmaTable(fixedBases(4096, 9), tcfg), dir + "/table");
    const MappedFile sa_file(dir + "/table" + kExtSa);
    const MappedFile occ_file(dir + "/table" + kExtOcc);
    EXPECT_EQ(FileView(sa_file, kMagicSa).checksum(), 0xb2c53dd3fda41f79ULL);
    EXPECT_EQ(fnv1aWords(FileView(occ_file, kMagicOcc).readBlob(1)),
              0xde9996ddfd9d91ceULL);
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
        EXPECT_EQ(sb, sl); // one mode -> identical error/probes
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
    const std::string stem =
        tempDir("table_rt_" + std::to_string(static_cast<int>(GetParam()))) +
        "/table";
    saveTableFiles(built, stem);
    const LoadedExmaTable loaded = loadTableFiles(stem);
    expectIdenticalSearch(built, *loaded.table);
    // The hot arrays must be borrowed from the mappings, not copied.
    EXPECT_TRUE(pointsIntoMapping(
        loaded.files, loaded.table->occTable().baseArray().data()));
}

// Files hold the one mode a loaded table has; tables built in a learned
// mode are LearnedTableRoundTripTest's.
INSTANTIATE_TEST_SUITE_P(AllModes, TableRoundTripTest,
                         ::testing::Values(OccIndexMode::Exact),
                         [](const auto &) { return "Exact"; });

TEST(LearnedTableRoundTripTest, MtlAndNaiveTablesLoadAsExact)
{
    // A model is an in-memory build product: an MTL or naive table
    // saves the very files an Exact table does, and loads as an Exact
    // table with the built table's intervals and hits and the Exact
    // table's stats.
    const ExmaTable exact(testRef(), cfgFor(OccIndexMode::Exact));
    const std::string exact_stem = tempDir("table_rt_learned_exact") + "/table";
    saveTableFiles(exact, exact_stem);
    for (const OccIndexMode mode :
         {OccIndexMode::Mtl, OccIndexMode::NaiveLearned}) {
        const ExmaTable built(testRef(), cfgFor(mode));
        const std::string stem =
            tempDir("table_rt_learned_" +
                    std::to_string(static_cast<int>(mode))) +
            "/table";
        saveTableFiles(built, stem);
        for (const char *ext : {kExtPac, kExtOcc, kExtSa})
            EXPECT_EQ(fileBytes(stem + ext), fileBytes(exact_stem + ext))
                << ext;
        const LoadedExmaTable loaded = loadTableFiles(stem);
        EXPECT_EQ(loaded.table->mode(), OccIndexMode::Exact);
        EXPECT_EQ(loaded.table->k(), built.k());
        u64 model_lookups = 0;
        for (const auto &q : refQueries(60, 24)) {
            SearchStats sb, sl, se;
            const Interval ib = built.search(q, &sb);
            const Interval il = loaded.table->search(q, &sl);
            exact.search(q, &se);
            EXPECT_EQ(il, ib);
            EXPECT_EQ(loaded.table->locateAllGlobal(il, q.size()),
                      built.locateAllGlobal(ib, q.size()));
            EXPECT_EQ(sl, se);
            model_lookups += sb.model_lookups;
        }
        EXPECT_GT(model_lookups, 0u) << "the built table never used its model";

        // The same holds for a whole index: a learned-mode router loads
        // as an Exact one with the same hits.
        RouterConfig rcfg;
        rcfg.table = cfgFor(mode);
        const ShardRouter router(testRef(),
                                 ShardPlan::kmerPrefix(testRef(), 2, 64), rcfg);
        const std::string dir = tempDir("idx_learned_" +
                                        std::to_string(static_cast<int>(mode)));
        saveIndex(router, dir);
        const LoadedIndex index = loadIndex(dir);
        EXPECT_EQ(index.router->config().table.mode, OccIndexMode::Exact);
        const auto queries = refQueries(40, 32);
        EXPECT_EQ(index.router->search(queries).hits,
                  router.search(queries).hits);
    }
}

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
    // A single table is a 1-shard kmerPrefix router (what `exma-index
    // build` writes by default): one shard stem, three files, no text.
    // The default table config is Exact, so the loaded router repeats
    // the built one's config as well as its hits and stats.
    RouterConfig cfg;
    cfg.table.k = 4;
    ASSERT_EQ(cfg.table.mode, OccIndexMode::Exact);
    const ShardRouter built(testRef(), ShardPlan::kmerPrefix(testRef(), 1, 64),
                            cfg);
    const std::string dir = tempDir("idx_mono");
    saveIndex(built, dir);
    const LoadedIndex loaded = loadIndex(dir);
    ASSERT_NE(loaded.router, nullptr);
    ASSERT_EQ(loaded.router->shardCount(), 1u);
    ASSERT_NE(loaded.router->shardTable(0), nullptr);
    EXPECT_EQ(loaded.router->shardTable(0)->slice(),
              (TextSegment{0, testRef().size()}));
    EXPECT_EQ(loaded.files.size(), 3u);
    // A 2-bit text echo alone would take a quarter byte per base.
    EXPECT_LT(fs::file_size(io_detail::shardStem(dir, 0) + kExtPac),
              testRef().size() / 4);
    expectIdenticalSearch(*built.shardTable(0), *loaded.router->shardTable(0));
    const ExmaTable::Config &lc = loaded.router->config().table;
    EXPECT_EQ(lc.k, cfg.table.k);
    EXPECT_EQ(lc.mode, cfg.table.mode);
    const auto queries = refQueries(40, 32);
    const RoutedResult rb = built.search(queries);
    const RoutedResult rl = loaded.router->search(queries);
    EXPECT_EQ(rb.hits, rl.hits);
    EXPECT_EQ(rb.stats, rl.stats);
    EXPECT_GE(loaded.load_seconds, 0.0);
}

/**
 * Save a router over `plan`, load it back and expect the same shards,
 * slices, hits and stats.
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
    ASSERT_NE(loaded.router, nullptr);
    ASSERT_EQ(loaded.router->shardCount(), built.shardCount());
    for (size_t s = 0; s < plan.size(); ++s)
        EXPECT_EQ(loaded.router->plan().sliceOf(s), plan.sliceOf(s));

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

TEST(IndexRoundTripTest, RoutedDirectorySharesOneTableFile)
{
    // Every shard of a prefix plan shares one table: saveIndex writes
    // it once and hard-links it at every other shard's stem (a second
    // save over the same directory replaces the links), and loadIndex
    // maps it once for all shards.
    const ShardPlan plan = ShardPlan::kmerPrefix(testRef(), 4, 64);
    RouterConfig cfg;
    cfg.table = cfgFor(OccIndexMode::Exact);
    const ShardRouter built(testRef(), plan, cfg);
    EXPECT_EQ(built.totalRows(), testRef().size() + 1);
    const std::string dir = tempDir("idx_shared");
    for (int save = 0; save < 2; ++save) {
        saveIndex(built, dir);
        for (size_t s = 1; s < plan.size(); ++s)
            for (const char *ext : {kExtPac, kExtOcc, kExtSa})
                EXPECT_TRUE(fs::equivalent(io_detail::shardStem(dir, 0) + ext,
                                           io_detail::shardStem(dir, s) + ext))
                    << "save " << save << " shard " << s << ext;
    }

    const LoadedIndex loaded = loadIndex(dir);
    ASSERT_NE(loaded.router, nullptr);
    EXPECT_EQ(loaded.files.size(), 3u) << "one table, mapped once";
    EXPECT_EQ(loaded.router->totalRows(), testRef().size() + 1);
    for (size_t s = 0; s < plan.size(); ++s)
        EXPECT_EQ(loaded.router->shardTable(s), loaded.router->shardTable(0));
    const auto queries = refQueries(20, 32);
    EXPECT_EQ(built.search(queries).hits,
              loaded.router->search(queries).hits);
}

TEST(IndexRoundTripTest, PreviousFormatDirectoryFailsClosed)
{
    // A directory written by the previous format version (whose
    // manifest carried per-shard segment maps and two retired config
    // fields) must fail closed with a LoadError naming the version.
    RouterConfig cfg;
    cfg.table = cfgFor(OccIndexMode::Exact);
    const ShardRouter built(testRef(), ShardPlan::kmerPrefix(testRef(), 2, 64),
                            cfg);
    const std::string dir = tempDir("idx_old_format");
    saveIndex(built, dir);
    const std::string manifest = dir + "/" + kManifestName;
    patchByte(manifest, 8, static_cast<u8>(kFormatVersion - 1));
    try {
        loadIndex(dir);
        FAIL() << "previous-format directory loaded";
    } catch (const LoadError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("format version " +
                            std::to_string(kFormatVersion - 1)),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find(manifest), std::string::npos) << what;
    }
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

TEST(IndexRoundTripTest, TableShardWithoutOccFailsClosed)
{
    // Table or scan follows from the manifest: a shard long enough for
    // a table must have one, and its missing .occ fails the load.
    RouterConfig cfg;
    cfg.table = cfgFor(OccIndexMode::Exact);
    const ShardRouter built(testRef(), ShardPlan::kmerPrefix(testRef(), 2, 64),
                            cfg);
    const std::string dir = tempDir("idx_missing_occ");
    saveIndex(built, dir);
    const std::string occ = io_detail::shardStem(dir, 0) + kExtOcc;
    fs::remove(occ);
    try {
        loadIndex(dir);
        FAIL() << "table shard without its .occ loaded";
    } catch (const LoadError &e) {
        EXPECT_NE(std::string(e.what()).find(occ), std::string::npos)
            << e.what();
    }
}

TEST(IndexRoundTripTest, CorruptManifestFailsClosed)
{
    RouterConfig cfg;
    cfg.table = cfgFor(OccIndexMode::Exact);
    const ShardRouter built(testRef(), ShardPlan::kmerPrefix(testRef(), 1, 64),
                            cfg);
    const std::string dir = tempDir("idx_corrupt_manifest");
    saveIndex(built, dir);
    const std::string manifest = dir + "/" + kManifestName;
    flipByte(manifest, fs::file_size(manifest) - 1);
    EXPECT_THROW(loadIndex(dir), LoadError);
}

// --- crafted manifests --------------------------------------------------
//
// Metadata with a valid checksum can still be wrong. Each manifest
// below is written through FileBuilder, so only the loader's own
// checks stand between it and a crash.

/**
 * Write a manifest whose plan is a text plan over a @p ref_len-base
 * reference declaring @p n_shards shards, of which @p shards follow.
 */
std::string
writeTextPlanManifest(const std::string &name, u64 n_shards,
                      const std::vector<Shard> &shards, u64 ref_len)
{
    const std::string dir = tempDir(name);
    BlobWriter w;
    w.putU64(ShardPlan::kMinShardBases);
    w.putU64(n_shards);
    for (const Shard &sh : shards) {
        w.putString(sh.name);
        w.putU64(sh.begin);
        w.putU64(sh.length);
    }
    w.putU32(static_cast<u32>(ShardPlanKind::Text));
    w.putU64(ref_len);
    w.putU64(0); // overlap
    w.putU64(ShardPlan::kUnboundedQueryLen);
    w.putI32(0); // prefix_len
    w.putU64(0); // prefix ranges
    FileBuilder fb(kMagicManifest);
    io_detail::writeBlob(fb, 1, w); // the manifest's meta blob tag
    fb.save(dir + "/" + kManifestName);
    return dir;
}

/** loadIndex(@p dir) throws a LoadError naming the manifest. */
void
expectManifestLoadError(const std::string &dir, const std::string &needle)
{
    const std::string manifest = dir + "/" + kManifestName;
    try {
        loadIndex(dir);
        FAIL() << "crafted manifest loaded";
    } catch (const LoadError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(manifest), std::string::npos) << what;
        EXPECT_NE(what.find(needle), std::string::npos) << what;
    }
}

TEST(CraftedManifestTest, ZeroShardPlan)
{
    expectManifestLoadError(
        writeTextPlanManifest("crafted_zero_shards", 0, {}, 1000),
        "no shards");
}

TEST(CraftedManifestTest, SlicePastReferenceEnd)
{
    expectManifestLoadError(
        writeTextPlanManifest("crafted_slice_past_end", 1,
                              {{"s0", 900, 200}}, 1000),
        "does not fit the 1000-base reference");
    // A begin + length that wraps u64 must not pass for one that fits.
    expectManifestLoadError(
        writeTextPlanManifest("crafted_slice_wraps", 1,
                              {{"s0", 900, ~u64{0} - 800}}, 1000),
        "does not fit");
}

TEST(CraftedManifestTest, HugeShardCount)
{
    // 2^40 shards would be sized before a single one is read.
    expectManifestLoadError(
        writeTextPlanManifest("crafted_huge_count", u64{1} << 40,
                              {{"s0", 0, 1000}}, 1000),
        "overruns");
}

// --- crafted tables -----------------------------------------------------
//
// Each companion file below is whole (valid checksum) but does not
// belong with the others, or was written through FileBuilder with a
// size no table has. The loader must refuse each with a LoadError
// naming the file, before any restore constructor asserts on it.

/** Save an Exact table over a fresh @p length-base reference at a new stem. */
std::string
saveTableOver(const std::string &name, u64 length, u64 seed)
{
    ReferenceSpec spec;
    spec.length = length;
    spec.seed = seed;
    const std::string stem = tempDir(name) + "/table";
    saveTableFiles(ExmaTable(generateReference(spec),
                             cfgFor(OccIndexMode::Exact)),
                   stem);
    return stem;
}

/** loadTableFiles(@p stem) throws a LoadError naming @p file and @p needle. */
void
expectTableLoadError(const std::string &stem, const std::string &file,
                     const std::string &needle)
{
    try {
        loadTableFiles(stem);
        FAIL() << "crafted table loaded";
    } catch (const LoadError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(file), std::string::npos) << what;
        EXPECT_NE(what.find(needle), std::string::npos) << what;
    }
}

TEST(CraftedTableTest, OccFromAnotherReferenceOfTheSameLength)
{
    const std::string stem = saveTableOver("crafted_occ_same_len", 4096, 1);
    const std::string other = saveTableOver("crafted_occ_same_len_src", 4096, 2);
    fs::copy_file(other + kExtOcc, stem + kExtOcc,
                  fs::copy_options::overwrite_existing);
    expectTableLoadError(stem, stem + kExtOcc, "do not belong together");
}

TEST(CraftedTableTest, OccFromALongerReference)
{
    const std::string stem = saveTableOver("crafted_occ_longer", 4096, 1);
    const std::string other = saveTableOver("crafted_occ_longer_src", 8192, 2);
    fs::copy_file(other + kExtOcc, stem + kExtOcc,
                  fs::copy_options::overwrite_existing);
    expectTableLoadError(stem, stem + kExtOcc, "do not belong together");
}

TEST(CraftedTableTest, OccWithKAboveTheSupportedRange)
{
    // Bound to the genuine .sa, so only the k check stands in the way
    // of a 4^28-entry base array that the file does not hold.
    const std::string stem = saveTableOver("crafted_occ_k28", 4096, 1);
    const MappedFile sa_file(stem + kExtSa);
    BlobWriter w;
    w.putI32(28);       // k
    w.putU64(4097);     // rows
    w.putU64(1);        // distinct k-mers
    w.putU64(0);        // sentinel windows
    w.putU64(0);        // sentinel thresholds
    w.putU64(FileView(sa_file, kMagicSa).checksum());
    FileBuilder fb(kMagicOcc);
    io_detail::writeBlob(fb, 1, w); // the .occ's meta blob tag
    const std::vector<u32> bases{0, 0};
    fb.writeArray<u32>(2, bases);   // base pointers
    fb.writeArray<u32>(3, std::span<const u32>{}); // increments
    fb.save(stem + kExtOcc);
    expectTableLoadError(stem, stem + kExtOcc, "k=28");
}

} // namespace
} // namespace exma
