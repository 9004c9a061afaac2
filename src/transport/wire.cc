#include "transport/wire.hh"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <type_traits>
#include <utility>

#include "common/logging.hh"

namespace exma {
namespace {

// Serialized wire PODs (see ondisk-pod-assert): layouts are frozen in
// src/io/format_abi.lock; a drift here is a router/worker wire break.
static_assert(sizeof(FrameHeader) == 32, "wire ABI drift");
static_assert(std::is_trivially_copyable_v<FrameHeader>);
static_assert(sizeof(WireRequestHead) == 16, "wire ABI drift");
static_assert(std::is_trivially_copyable_v<WireRequestHead>);
static_assert(sizeof(WireResponseHead) == 64, "wire ABI drift");
static_assert(std::is_trivially_copyable_v<WireResponseHead>);

void
readFully(int fd, void *buf, size_t n, u64 frame_offset, const char *what,
          bool *clean_eof)
{
    u8 *p = static_cast<u8 *>(buf);
    size_t got = 0;
    while (got < n) {
        const ssize_t rc = ::read(fd, p + got, n - got);
        if (rc == 0) {
            if (clean_eof && got == 0) {
                *clean_eof = true;
                return;
            }
            throw TransportError(std::string(what) + ": peer closed after " +
                                     std::to_string(got) + " of " +
                                     std::to_string(n) + " bytes",
                                 fd, frame_offset + got);
        }
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            throw TransportError(std::string(what) + ": read failed: " +
                                     std::strerror(errno),
                                 fd, frame_offset + got);
        }
        got += static_cast<size_t>(rc);
    }
}

void
writeFully(int fd, const void *buf, size_t n, u64 frame_offset,
           const char *what)
{
    const u8 *p = static_cast<const u8 *>(buf);
    size_t put = 0;
    while (put < n) {
        const ssize_t rc = ::write(fd, p + put, n - put);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            throw TransportError(std::string(what) + ": write failed: " +
                                     std::strerror(errno),
                                 fd, frame_offset + put);
        }
        put += static_cast<size_t>(rc);
    }
}

} // namespace

std::vector<u8>
encodeRequest(const WorkerRequest &req)
{
    BlobWriter w;
    WireRequestHead head;
    exma_assert(req.batch.size() <= ~u32{0},
                "request batch of %zu queries is too large to frame",
                req.batch.size());
    head.n_queries = static_cast<u32>(req.batch.size());
    head.total_bases = req.batch.totalBases();
    w.putPod<WireRequestHead>(head);
    for (size_t j = 0; j < req.batch.size(); ++j) {
        const std::span<const Base> q = req.batch.query(j);
        exma_assert(q.size() <= ~u32{0},
                    "query of %zu bases is too long to frame", q.size());
        w.putU32(req.batch.ids()[j]);
        w.putU32(static_cast<u32>(q.size()));
        for (size_t i = 0; i < q.size(); i += kBasesPerWord)
            w.putU64(packWord(
                q.subspan(i, std::min(kBasesPerWord, q.size() - i))));
    }
    return w.take();
}

WorkerRequest
decodeRequest(std::span<const u8> body, int fd)
{
    BlobReader r(body, "request body");
    const auto fail = [&](const std::string &msg) {
        throw TransportError(msg, fd, r.pos());
    };
    try {
        const auto head = r.getPod<WireRequestHead>();
        // Every query costs at least 8 body bytes (id + length); refuse
        // a count the frame cannot possibly hold before any allocation.
        if (u64{head.n_queries} * 8 > r.remaining())
            fail("request head claims " + std::to_string(head.n_queries) +
                 " queries; the frame cannot hold them");
        std::vector<std::vector<Base>> queries(head.n_queries);
        std::vector<u32> ids(head.n_queries);
        u64 total_bases = 0;
        for (u32 j = 0; j < head.n_queries; ++j) {
            ids[j] = r.getU32();
            const u32 n = r.getU32();
            if ((u64{n} + kBasesPerWord - 1) / kBasesPerWord * 8 >
                r.remaining())
                fail("query of " + std::to_string(n) +
                     " bases overruns the frame");
            std::vector<Base> &q = queries[j];
            q.resize(n);
            for (size_t i = 0; i < n; i += kBasesPerWord)
                unpackWord(r.getU64(),
                           std::span(q).subspan(
                               i, std::min<size_t>(kBasesPerWord, n - i)));
            total_bases += n;
        }
        if (total_bases != head.total_bases)
            fail("request base-count mismatch: head says " +
                 std::to_string(head.total_bases) + ", queries carry " +
                 std::to_string(total_bases));
        r.finish();
        WorkerRequest req;
        req.batch = QueryBatchView::own(std::move(queries), std::move(ids));
        return req;
    } catch (const LoadError &e) {
        throw TransportError(e.what(), fd, r.pos());
    }
}

std::vector<u8>
encodeResponse(const WorkerResponse &resp)
{
    BlobWriter w;
    WireResponseHead head;
    head.status = static_cast<u32>(resp.status);
    exma_assert(resp.ids.size() <= ~u32{0},
                "response carries %zu ids — too many to frame",
                resp.ids.size());
    head.n_ids = static_cast<u32>(resp.ids.size());
    head.canary = resp.canary;
    head.seconds = resp.seconds;
    head.stats = resp.stats;
    w.putPod<WireResponseHead>(head);
    // Length-prefixed and capped both ways: the decoder refuses
    // anything larger, so truncate at the source too.
    const size_t err_len =
        std::min<size_t>(resp.error.size(), kMaxErrorBytes);
    w.putU32(static_cast<u32>(err_len));
    w.putBytes(resp.error.data(), err_len);
    for (const u32 id : resp.ids)
        w.putU32(id);
    exma_assert(resp.hits.size() <= ~u32{0},
                "response carries %zu hit rows — too many to frame",
                resp.hits.size());
    w.putU32(static_cast<u32>(resp.hits.size()));
    for (const auto &row : resp.hits) {
        w.putU64(row.size());
        w.putBytes(row.data(), row.size() * sizeof(u64));
    }
    return w.take();
}

WorkerResponse
decodeResponse(std::span<const u8> body, int fd)
{
    BlobReader r(body, "response body");
    const auto fail = [&](const std::string &msg) {
        throw TransportError(msg, fd, r.pos());
    };
    try {
        const auto head = r.getPod<WireResponseHead>();
        if (head.status > static_cast<u32>(WorkerStatus::WorkerDown))
            fail("response status " + std::to_string(head.status) +
                 " is not a WorkerStatus");
        WorkerResponse resp;
        resp.status = static_cast<WorkerStatus>(head.status);
        resp.canary = head.canary;
        resp.seconds = head.seconds;
        resp.stats = head.stats;
        const u32 err_len = r.getU32();
        if (err_len > kMaxErrorBytes)
            fail("error string of " + std::to_string(err_len) +
                 " bytes exceeds the " + std::to_string(kMaxErrorBytes) +
                 "-byte cap");
        const std::span<const u8> err = r.getBytes(err_len);
        resp.error.assign(reinterpret_cast<const char *>(err.data()),
                          err.size());
        if (u64{head.n_ids} * 4 > r.remaining())
            fail("response head claims " + std::to_string(head.n_ids) +
                 " ids; the frame cannot hold them");
        resp.ids.resize(head.n_ids);
        for (u32 &id : resp.ids)
            id = r.getU32();
        const u32 n_rows = r.getU32();
        if (u64{n_rows} * 8 > r.remaining())
            fail("response claims " + std::to_string(n_rows) +
                 " hit rows; the frame cannot hold them");
        // The router's merge reads one row per id.
        if (resp.status == WorkerStatus::Ok && n_rows != head.n_ids)
            fail("Ok response carries " + std::to_string(n_rows) +
                 " hit rows for " + std::to_string(head.n_ids) + " ids");
        resp.hits.resize(n_rows);
        for (std::vector<u64> &row : resp.hits) {
            row.resize(r.getCount(sizeof(u64)));
            const std::span<const u8> hits =
                r.getBytes(row.size() * sizeof(u64));
            if (!row.empty())
                std::memcpy(row.data(), hits.data(), hits.size());
        }
        r.finish();
        return resp;
    } catch (const LoadError &e) {
        throw TransportError(e.what(), fd, r.pos());
    }
}

bool
readFrame(int fd, WireFrame &out)
{
    bool clean_eof = false;
    out.header = FrameHeader{};
    readFully(fd, &out.header, sizeof(FrameHeader), 0, "frame header",
              &clean_eof);
    if (clean_eof)
        return false;
    const FrameHeader &h = out.header;
    if (std::memcmp(h.magic, "EXMF", 4) != 0)
        throw TransportError("bad frame magic", fd, 0);
    if (h.version != kFormatVersion)
        throw TransportError("frame version " + std::to_string(h.version) +
                                 " != built " +
                                 std::to_string(kFormatVersion) +
                                 " (router/worker binary skew)",
                             fd, offsetof(FrameHeader, version));
    if (h.type < kFrameRequest || h.type > kFrameHeartbeat)
        throw TransportError("unknown frame type " + std::to_string(h.type),
                             fd, offsetof(FrameHeader, type));
    if (h.body_bytes > kMaxFrameBytes)
        throw TransportError("frame body of " +
                                 std::to_string(h.body_bytes) +
                                 " bytes exceeds the cap",
                             fd, offsetof(FrameHeader, body_bytes));
    out.body.resize(h.body_bytes);
    if (h.body_bytes)
        readFully(fd, out.body.data(), out.body.size(),
                  sizeof(FrameHeader), "frame body", nullptr);
    if (fnv1aWords(std::span<const u8>(out.body)) != h.canary)
        throw TransportError("frame canary mismatch", fd,
                             sizeof(FrameHeader));
    return true;
}

void
writeFrame(int fd, u16 type, u32 seq, std::span<const u8> body)
{
    exma_assert(body.size() <= kMaxFrameBytes,
                "frame body of %zu bytes exceeds the cap", body.size());
    FrameHeader h;
    h.type = type;
    h.seq = seq;
    h.body_bytes = body.size();
    h.canary = fnv1aWords(body);
    writeFully(fd, &h, sizeof h, 0, "frame header");
    if (!body.empty())
        writeFully(fd, body.data(), body.size(), sizeof h, "frame body");
}

void
ignoreSigpipe()
{
    // A write to a dead peer must surface as EPIPE -> TransportError,
    // not kill the process. Thread-safe via the magic static.
    static const bool installed = [] {
        std::signal(SIGPIPE, SIG_IGN);
        return true;
    }();
    (void)installed;
}

} // namespace exma
