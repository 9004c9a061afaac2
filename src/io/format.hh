/**
 * @file
 * The on-disk layout of the persistent index: TMAP-style companion
 * files (`.exma.occ` / `.exma.sa` / `.exma.pac` / `.exma.manifest`),
 * each carrying a magic string, the format version, an endianness tag
 * and a checksum, followed by a table of 64-byte-aligned typed
 * sections.
 *
 * Every file is:
 *
 *   FileHeader (64 B)            magic, version, endian, checksum
 *   SectionEntry[n_sections]     tag, element size, count, offset
 *   ...payload sections...       each offset 64-byte aligned
 *
 * All integers are little-endian; big-endian hosts are refused at both
 * save and load (no byte-swapping deserializer exists — the whole
 * point of the format is that hot arrays are used in place via mmap).
 * The checksum is fnv1aWords over every byte after the header: FNV-1a
 * taken a little-endian 64-bit word at a time, one multiply per 8
 * bytes where byte-wise FNV-1a makes one per byte. A truncated or
 * bit-flipped file fails closed with a LoadError before any structure
 * touches it.
 *
 * Version-bump policy: any change to FileHeader, SectionEntry, a
 * section's element layout, or the meaning of an existing tag bumps
 * kFormatVersion; loaders refuse other versions outright (no
 * migration). Adding a new tag to a file is also a bump — older
 * readers would silently ignore data the writer considered part of
 * the index.
 */

#ifndef EXMA_IO_FORMAT_HH
#define EXMA_IO_FORMAT_HH

#include <bit>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/dna.hh"
#include "common/logging.hh"
#include "common/types.hh"
#include "io/mapped_file.hh"

namespace exma {

/** Bumped on any on-disk layout change (see the policy above). */
constexpr u32 kFormatVersion = 6;

/** Value of FileHeader::endian on a little-endian writer. */
constexpr u32 kEndianTag = 0x01020304;

/** Companion-file magics, 8 bytes each (NUL-padded). */
constexpr char kMagicOcc[8] = {'E', 'X', 'M', 'A', 'O', 'C', 'C', '\0'};
constexpr char kMagicSa[8] = {'E', 'X', 'M', 'A', 'S', 'A', '\0', '\0'};
constexpr char kMagicPac[8] = {'E', 'X', 'M', 'A', 'P', 'A', 'C', '\0'};
constexpr char kMagicManifest[8] = {'E', 'X', 'M', 'A', 'I', 'D', 'X', '\0'};

/** Companion-file extensions (appended to an index stem). */
constexpr const char *kExtOcc = ".exma.occ";
constexpr const char *kExtSa = ".exma.sa";
constexpr const char *kExtPac = ".exma.pac";
constexpr const char *kManifestName = "index.exma.manifest";

/** Section payload alignment: one cache line, so mmap'd arrays keep
 *  the alignment their in-memory builders guarantee (PackedRank's
 *  alignas(32) blocks in particular). */
constexpr u64 kSectionAlign = 64;

struct FileHeader
{
    char magic[8] = {};
    u32 version = 0;
    u32 endian = 0;
    u64 file_bytes = 0; ///< total file size, for truncation detection
    u64 checksum = 0;   ///< fnv1aWords over bytes [64, file_bytes)
    u32 n_sections = 0;
    u32 flags = 0;      ///< reserved, written 0
    u8 pad[24] = {};    ///< reserved, written 0
};
static_assert(sizeof(FileHeader) == 64, "header must stay one line");
static_assert(std::is_trivially_copyable_v<FileHeader>);

struct SectionEntry
{
    u32 tag = 0;       ///< section id, unique within the file
    u32 elem_size = 0; ///< sizeof one element
    u64 count = 0;     ///< number of elements
    u64 offset = 0;    ///< byte offset from file start, 64-aligned
    u64 reserved = 0;  ///< written 0
};
static_assert(sizeof(SectionEntry) == 32, "section entry is 32 bytes");
static_assert(std::is_trivially_copyable_v<SectionEntry>);

/**
 * FNV-1a-64 over @p bytes a word at a time, continuing from @p seed:
 * each 8-byte little-endian word is XORed in and multiplied by the FNV
 * prime, then the last size % 8 bytes one at a time. Every step is a
 * bijection of the state (an XOR, then a multiply by an odd constant),
 * so a change confined to one word always changes the hash. File
 * checksums and wire-frame canaries both use it.
 */
inline u64
fnv1aWords(std::span<const u8> bytes, u64 seed = 0xcbf29ce484222325ULL)
{
    constexpr u64 kPrime = 0x100000001b3ULL;
    const size_t whole = bytes.size() & ~size_t{7};
    u64 h = seed;
    for (size_t i = 0; i < whole; i += 8) {
        u64 word = 0;
        std::memcpy(&word, bytes.data() + i, sizeof(word));
        h = (h ^ word) * kPrime;
    }
    for (size_t i = whole; i < bytes.size(); ++i)
        h = (h ^ bytes[i]) * kPrime;
    return h;
}

/** The format is little-endian only; see the file comment. */
inline void
requireLittleEndian(const char *verb)
{
    exma_assert(std::endian::native == std::endian::little,
                "cannot %s .exma files on a big-endian host (the "
                "format is little-endian mmap-in-place)",
                verb);
}

/**
 * In-memory builder for one companion file: append typed sections,
 * then save() writes header + section table + 64-byte-aligned payload
 * and stamps the checksum.
 *
 * Call sites must name the element type explicitly and static_assert
 * its size and trivial copyability right at the write site (enforced
 * by tools/lint/exma_lint.py rule `ondisk-pod-assert`), so a silent
 * struct-layout change cannot silently change the format.
 */
class FileBuilder
{
  public:
    explicit FileBuilder(const char (&magic)[8])
    {
        requireLittleEndian("save");
        std::memcpy(magic_, magic, sizeof(magic_));
    }

    template <typename T>
    void
    writeArray(u32 tag, std::span<const T> data)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "only trivially copyable elements are mmap-safe");
        Section s;
        s.tag = tag;
        s.elem_size = static_cast<u32>(sizeof(T));
        s.count = data.size();
        s.bytes.resize(data.size_bytes());
        if (!data.empty())
            std::memcpy(s.bytes.data(), data.data(), data.size_bytes());
        for (const Section &prev : sections_)
            exma_assert(prev.tag != tag, "duplicate section tag %u", tag);
        sections_.push_back(std::move(s));
    }

    /** Write @p path atomically (tmp file + rename); panics on IO
     *  failure — saving is a build step, not a serving path. Returns
     *  the checksum stamped into the header. */
    u64 save(const std::string &path) const;

  private:
    struct Section
    {
        u32 tag = 0;
        u32 elem_size = 0;
        u64 count = 0;
        std::vector<u8> bytes;
    };

    char magic_[8] = {};
    std::vector<Section> sections_;
};

/**
 * Validated view of a mapped companion file: checks magic, version,
 * endianness, size, section geometry and checksum up front (throwing
 * LoadError), then hands out zero-copy typed spans into the mapping.
 */
class FileView
{
  public:
    FileView(const MappedFile &file, const char (&magic)[8]);

    bool has(u32 tag) const { return find(tag) != nullptr; }

    /** The header's (validated) payload checksum. */
    u64 checksum() const { return checksum_; }

    /**
     * Zero-copy span over section @p tag. The element type must match
     * the writer's (size-checked); call sites carry the same
     * static_asserts as writeArray sites.
     */
    template <typename T>
    std::span<const T>
    viewArray(u32 tag) const
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "only trivially copyable elements are mmap-safe");
        const SectionEntry *e = find(tag);
        if (e == nullptr)
            throw LoadError(file_->path() + ": missing section " +
                            std::to_string(tag));
        if (e->elem_size != sizeof(T))
            throw LoadError(file_->path() + ": section " +
                            std::to_string(tag) + " holds " +
                            std::to_string(e->elem_size) +
                            "-byte elements, reader expects " +
                            std::to_string(sizeof(T)));
        // NOLINTNEXTLINE(cppcoreguidelines-pro-type-reinterpret-cast):
        // the pointer is kSectionAlign-aligned (validated) and T is
        // trivially copyable — this cast is the zero-copy load.
        return {reinterpret_cast<const T *>(file_->data() + e->offset),
                e->count};
    }

    /** Section @p tag copied out as owned bytes (small metadata). */
    std::vector<u8> readBlob(u32 tag) const;

  private:
    const SectionEntry *find(u32 tag) const;

    const MappedFile *file_ = nullptr;
    u64 checksum_ = 0;
    std::span<const SectionEntry> entries_;
};

/**
 * Growable little-endian byte blob: index metadata (everything that is
 * not a hot array) and worker frame bodies alike. Paired with
 * BlobReader.
 */
class BlobWriter
{
  public:
    /** A trivially copyable record, byte-copied as it sits in memory. */
    template <typename T>
    void
    putPod(const T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "only trivially copyable records serialize");
        putBytes(&v, sizeof(T));
    }
    void
    putU32(u32 v)
    {
        putBytes(&v, sizeof(v));
    }
    void
    putU64(u64 v)
    {
        putBytes(&v, sizeof(v));
    }
    void
    putI32(i32 v)
    {
        putBytes(&v, sizeof(v));
    }
    void
    putString(const std::string &s)
    {
        putU64(s.size());
        putBytes(s.data(), s.size());
    }
    void
    putBytes(const void *p, size_t n)
    {
        if (n == 0)
            return;
        // resize + memcpy rather than a range insert, which GCC 12
        // misreads as an overflow of an empty vector
        // (-Wstringop-overflow).
        const size_t at = buf_.size();
        buf_.resize(at + n);
        std::memcpy(buf_.data() + at, p, n);
    }

    std::span<const u8> bytes() const { return buf_; }
    std::vector<u8> take() { return std::move(buf_); }

  private:
    std::vector<u8> buf_;
};

/**
 * Bounds-checked reader over a blob: every get checks the bytes left
 * before it touches them, so a corrupt length never over-reads, and
 * every failure throws LoadError naming the blob and the offset.
 */
class BlobReader
{
  public:
    BlobReader(std::span<const u8> bytes, std::string what)
        : bytes_(bytes), what_(std::move(what))
    {
    }

    /** A trivially copyable record, as BlobWriter::putPod wrote it. */
    template <typename T>
    T
    getPod()
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "only trivially copyable records serialize");
        T v{};
        getRaw(&v, sizeof(T));
        return v;
    }

    u32
    getU32()
    {
        u32 v = 0;
        getRaw(&v, sizeof(v));
        return v;
    }
    u64
    getU64()
    {
        u64 v = 0;
        getRaw(&v, sizeof(v));
        return v;
    }
    i32
    getI32()
    {
        i32 v = 0;
        getRaw(&v, sizeof(v));
        return v;
    }
    /**
     * An element count, for a sequence whose elements each take at
     * least @p min_elem_bytes of the blob. A count the remaining bytes
     * cannot hold throws before any container is sized, and the check
     * divides rather than multiplies, so no count can wrap it.
     */
    u64
    getCount(u64 min_elem_bytes)
    {
        const u64 n = getU64();
        if (n > remaining() / min_elem_bytes)
            throw LoadError(context() + ": count " + std::to_string(n) +
                            " of " + std::to_string(min_elem_bytes) +
                            "-byte elements overruns the " +
                            std::to_string(remaining()) + " bytes left");
        return n;
    }
    std::string
    getString()
    {
        const std::span<const u8> b = getBytes(getCount(1));
        return {reinterpret_cast<const char *>(b.data()), b.size()}; // NOLINT(cppcoreguidelines-pro-type-reinterpret-cast)
    }
    /** The next @p n bytes, as a view into the blob (no copy). */
    std::span<const u8>
    getBytes(u64 n)
    {
        if (n > remaining())
            throw LoadError(context() + ": truncated blob (" +
                            std::to_string(n) + " bytes wanted, " +
                            std::to_string(remaining()) + " left)");
        const std::span<const u8> b = bytes_.subspan(pos_, n);
        pos_ += n;
        return b;
    }

    u64 pos() const { return pos_; }
    u64 remaining() const { return bytes_.size() - pos_; }

    /** Every byte must be consumed — trailing garbage is corruption. */
    void
    finish() const
    {
        if (remaining() != 0)
            throw LoadError(context() + ": " +
                            std::to_string(remaining()) +
                            " unconsumed bytes");
    }

    /**
     * Source label plus current byte offset ("file (blob) @+N") —
     * decoding code folds this into its LoadErrors so a corrupt field
     * names the companion file or frame and where inside the blob it
     * sat.
     */
    std::string
    context() const
    {
        return what_ + " @+" + std::to_string(pos_);
    }

  private:
    void
    getRaw(void *p, size_t n)
    {
        std::memcpy(p, getBytes(n).data(), n);
    }

    std::span<const u8> bytes_;
    size_t pos_ = 0;
    std::string what_;
};

/** Bases per 2-bit packed word. */
constexpr size_t kBasesPerWord = 32;

/**
 * The one 2-bit packing of base codes, for scan-shard text and request
 * frames alike: a sequence is a run of u64 words, word w holding bases
 * [32w, 32w + 32) with base i of a word at bits 2i..2i+1 and unused
 * high bits zero. Packs up to 32 bases; a code above 3 panics.
 */
inline u64
packWord(std::span<const Base> bases)
{
    exma_assert(bases.size() <= kBasesPerWord,
                "%zu bases do not fit one packed word", bases.size());
    u64 word = 0;
    for (size_t i = 0; i < bases.size(); ++i) {
        exma_assert(bases[i] <= 3, "base code %u is not 2-bit-packable",
                    static_cast<unsigned>(bases[i]));
        word |= u64{bases[i]} << (2 * i);
    }
    return word;
}

/** Unpack the first out.size() (at most 32) bases of @p word. */
inline void
unpackWord(u64 word, std::span<Base> out)
{
    exma_assert(out.size() <= kBasesPerWord,
                "%zu bases do not fit one packed word", out.size());
    for (size_t i = 0; i < out.size(); ++i)
        out[i] = static_cast<Base>((word >> (2 * i)) & 3);
}

} // namespace exma

#endif // EXMA_IO_FORMAT_HH
