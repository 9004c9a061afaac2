/**
 * @file
 * The wire protocol between a router and an out-of-process shard
 * worker: length-prefixed, canary-stamped, version-tagged frames over
 * a byte stream (a Unix-domain socket in practice).
 *
 * Every frame is a fixed 32-byte FrameHeader followed by body_bytes
 * of payload. The header carries the magic, the on-disk format
 * version (a router and a worker built from different format
 * generations refuse each other outright — the same policy the mmap
 * loaders apply), the frame type, a request sequence number the
 * response echoes, and a canary over the body (io/format.hh's
 * fnv1aWords, the index files' checksum) so a flipped bit anywhere in
 * the payload is a detected transport error, not a silently wrong
 * answer.
 *
 * Bodies are built and read with the index format's blob codec
 * (io/format.hh's BlobWriter / BlobReader), and request bodies
 * 2-bit-pack each query with the same word packer as a scan shard's
 * text, so a batch frame costs ~n/4 bytes of query payload. Response
 * bodies carry the typed WorkerResponse: status, a length-prefixed
 * error string (capped at kMaxErrorBytes — a corrupt length fails
 * closed, it never over-reads), ids, per-id hit rows, the
 * application-level response canary, timing and search stats. An Ok
 * response carries exactly one hit row per id.
 *
 * Decoding is fail-closed end to end: every length is bounds-checked
 * against the remaining body before any allocation, trailing bytes
 * are an error, and all failures — the blob reader's LoadErrors
 * included — throw TransportError carrying the fd and the body
 * offset where decoding stopped, the transport analogue of
 * LoadError's path + section offset.
 *
 * The framing structs are serialized PODs and therefore registered
 * in src/io/format_abi.lock by the ondisk-abi analyzer pass: a
 * layout drift between a router and an older worker binary is a CI
 * failure, not a wire corruption.
 */

#ifndef EXMA_TRANSPORT_WIRE_HH
#define EXMA_TRANSPORT_WIRE_HH

#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/search_stats.hh"
#include "common/types.hh"
#include "io/format.hh"
#include "transport/transport.hh"

namespace exma {

/**
 * A wire-layer failure: framing, I/O, or a bounds/validation error
 * while decoding. Carries the fd and the byte offset (within the
 * frame being read or written) where decoding stopped, like
 * LoadError carries path + offset for the mmap path.
 */
class TransportError : public std::runtime_error
{
  public:
    TransportError(const std::string &what, int fd, u64 offset)
        : std::runtime_error(what + " (fd " + std::to_string(fd) +
                             " @+" + std::to_string(offset) + ")"),
          fd_(fd), offset_(offset)
    {
    }

    int fd() const { return fd_; }
    u64 frameOffset() const { return offset_; }

  private:
    int fd_;
    u64 offset_;
};

/** Frame types (FrameHeader::type). */
enum : u16 {
    kFrameRequest = 1,   ///< router -> worker: encoded WorkerRequest
    kFrameResponse = 2,  ///< worker -> router: encoded WorkerResponse
    kFrameHeartbeat = 3, ///< worker -> router: liveness tick, no body
};

/** Hard cap on a frame body; a corrupt length fails closed here. */
constexpr u64 kMaxFrameBytes = u64{1} << 31;
/** Hard cap on a decoded WorkerResponse::error string. */
constexpr u32 kMaxErrorBytes = 4096;

/** Fixed preamble of every frame. */
struct FrameHeader
{
    char magic[4] = {'E', 'X', 'M', 'F'};
    u32 version = kFormatVersion; ///< wire format == on-disk format
    u16 type = 0;                 ///< kFrame*
    u16 reserved0 = 0;
    u32 seq = 0;        ///< request sequence; responses echo it
    u64 body_bytes = 0; ///< payload length following this header
    u64 canary = 0;     ///< fnv1aWords over the body bytes
};

/** Leading record of a request body. */
struct WireRequestHead
{
    u32 n_queries = 0;
    u32 reserved0 = 0;
    u64 total_bases = 0; ///< cross-check over all packed queries
};

/** Leading record of a response body. */
struct WireResponseHead
{
    u32 status = 0; ///< WorkerStatus, validated on decode
    u32 n_ids = 0;
    u64 canary = 0; ///< application-level responseCanary
    double seconds = 0.0;
    SearchStats stats;
};

/** One decoded frame: validated header + raw body bytes. */
struct WireFrame
{
    FrameHeader header;
    std::vector<u8> body;
};

/** Encode @p req (queries 2-bit-packed) into a request body. */
std::vector<u8> encodeRequest(const WorkerRequest &req);

/** Decode a request body; throws TransportError on any violation. */
WorkerRequest decodeRequest(std::span<const u8> body, int fd);

/** Encode @p resp into a response body. */
std::vector<u8> encodeResponse(const WorkerResponse &resp);

/** Decode a response body; throws TransportError on any violation. */
WorkerResponse decodeResponse(std::span<const u8> body, int fd);

/**
 * Read one frame from @p fd (blocking, EINTR-safe). Returns false on
 * a clean EOF at a frame boundary — the peer closed the stream
 * between frames. Anything else that is not a whole valid frame
 * (truncation, bad magic, version skew, oversized body, canary
 * mismatch, I/O error) throws TransportError.
 */
bool readFrame(int fd, WireFrame &out);

/** Write one frame (header + body) to @p fd; EINTR/partial-safe. */
void writeFrame(int fd, u16 type, u32 seq, std::span<const u8> body);

/**
 * Process-wide, once: ignore SIGPIPE so a write to a dead peer
 * surfaces as an EPIPE TransportError instead of killing the
 * process. Both sides of the socket call this before first I/O.
 */
void ignoreSigpipe();

} // namespace exma

#endif // EXMA_TRANSPORT_WIRE_HH
