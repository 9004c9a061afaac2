#include "io/format.hh"

#include <cstdio>
#include <fstream>

namespace exma {

namespace {

constexpr u64
alignUp(u64 v, u64 a)
{
    return (v + a - 1) / a * a;
}

} // namespace

u64
FileBuilder::save(const std::string &path) const
{
    // Lay the file out: header, section table, then each payload at
    // the next 64-byte boundary.
    std::vector<SectionEntry> entries(sections_.size());
    u64 offset = sizeof(FileHeader) +
                 sections_.size() * sizeof(SectionEntry);
    for (size_t i = 0; i < sections_.size(); ++i) {
        offset = alignUp(offset, kSectionAlign);
        entries[i].tag = sections_[i].tag;
        entries[i].elem_size = sections_[i].elem_size;
        entries[i].count = sections_[i].count;
        entries[i].offset = offset;
        offset += sections_[i].bytes.size();
    }
    const u64 file_bytes = offset;

    // Assemble the whole post-header image in memory so the checksum
    // is one pass; index files are modest next to the live tables.
    std::vector<u8> body(file_bytes - sizeof(FileHeader), 0);
    std::memcpy(body.data(), entries.data(),
                entries.size() * sizeof(SectionEntry));
    for (size_t i = 0; i < sections_.size(); ++i)
        if (!sections_[i].bytes.empty())
            std::memcpy(body.data() +
                            (entries[i].offset - sizeof(FileHeader)),
                        sections_[i].bytes.data(),
                        sections_[i].bytes.size());

    FileHeader hdr;
    std::memcpy(hdr.magic, magic_, sizeof(hdr.magic));
    hdr.version = kFormatVersion;
    hdr.endian = kEndianTag;
    hdr.file_bytes = file_bytes;
    hdr.checksum = fnv1aWords(body);
    hdr.n_sections = static_cast<u32>(sections_.size());

    // Write tmp + rename so a crashed save never leaves a readable
    // half-file under the real name.
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        exma_assert(out.good(), "cannot open '%s' for writing",
                    tmp.c_str());
        out.write(reinterpret_cast<const char *>(&hdr), sizeof(hdr)); // NOLINT(cppcoreguidelines-pro-type-reinterpret-cast)
        out.write(reinterpret_cast<const char *>(body.data()), // NOLINT(cppcoreguidelines-pro-type-reinterpret-cast)
                  static_cast<std::streamsize>(body.size()));
        out.flush();
        exma_assert(out.good(), "short write to '%s'", tmp.c_str());
    }
    exma_assert(std::rename(tmp.c_str(), path.c_str()) == 0,
                "cannot rename '%s' into place", tmp.c_str());
    return hdr.checksum;
}

FileView::FileView(const MappedFile &file, const char (&magic)[8])
    : file_(&file)
{
    requireLittleEndian("load");
    if (file.size() < sizeof(FileHeader))
        throw LoadError(file.path() + ": shorter than a file header");

    FileHeader hdr;
    std::memcpy(&hdr, file.data(), sizeof(hdr));
    if (std::memcmp(hdr.magic, magic, sizeof(hdr.magic)) != 0)
        throw LoadError(file.path() + ": bad magic (expected '" +
                        std::string(magic, strnlen(magic, 8)) + "')");
    if (hdr.endian != kEndianTag)
        throw LoadError(file.path() +
                        ": endianness mismatch (file written on a "
                        "different-endian host)");
    if (hdr.version != kFormatVersion)
        throw LoadError(file.path() + ": format version " +
                        std::to_string(hdr.version) +
                        ", this build reads only version " +
                        std::to_string(kFormatVersion) +
                        " — rebuild the index with exma-index");
    if (hdr.file_bytes != file.size())
        throw LoadError(file.path() + ": header says " +
                        std::to_string(hdr.file_bytes) +
                        " bytes, file holds " +
                        std::to_string(file.size()) + " (truncated?)");

    const u64 table_end =
        sizeof(FileHeader) + u64{hdr.n_sections} * sizeof(SectionEntry);
    if (table_end > file.size())
        throw LoadError(file.path() + ": section table runs past EOF");

    const u64 sum = fnv1aWords(file.bytes().subspan(sizeof(FileHeader)));
    if (sum != hdr.checksum)
        throw LoadError(file.path() + ": checksum mismatch (file is "
                                      "corrupt)");
    checksum_ = sum;

    // NOLINTNEXTLINE(cppcoreguidelines-pro-type-reinterpret-cast):
    // SectionEntry is trivially copyable and the table sits right
    // after the 64-byte header, so it is sufficiently aligned.
    entries_ = {reinterpret_cast<const SectionEntry *>(
                    file.data() + sizeof(FileHeader)),
                hdr.n_sections};

    for (const SectionEntry &e : entries_) {
        if (e.offset % kSectionAlign != 0)
            throw LoadError(file.path() + ": section " +
                            std::to_string(e.tag) + " is misaligned");
        // Divide rather than multiply, so no count can wrap the check.
        if (e.elem_size == 0 || e.offset > file.size() ||
            e.count > (file.size() - e.offset) / e.elem_size)
            throw LoadError(file.path() + ": section " +
                            std::to_string(e.tag) + " runs past EOF");
    }
}

const SectionEntry *
FileView::find(u32 tag) const
{
    for (const SectionEntry &e : entries_)
        if (e.tag == tag)
            return &e;
    return nullptr;
}

std::vector<u8>
FileView::readBlob(u32 tag) const
{
    const auto bytes = viewArray<u8>(tag);
    static_assert(sizeof(u8) == 1);
    static_assert(std::is_trivially_copyable_v<u8>);
    return {bytes.begin(), bytes.end()};
}

} // namespace exma
