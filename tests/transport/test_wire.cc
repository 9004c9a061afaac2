// The wire codec, fail-closed: encode/decode round trips must be
// lossless, and every malformed frame or body — truncation at any
// byte, corrupt counts/lengths, bad magic, version skew, flipped
// canary — must throw a typed TransportError without ever over-reading
// or over-allocating.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cstddef>
#include <cstring>
#include <string>
#include <vector>

#include "transport/wire.hh"

namespace exma {
namespace {

WorkerRequest
sampleRequest()
{
    // Lengths straddle the 2-bit packing word size: 1, exactly 32,
    // 33 (one spill bit), and a multi-word 70.
    std::vector<std::vector<Base>> queries;
    std::vector<u32> ids = {5, 0, 7, 2};
    u64 seed = 1;
    for (const size_t len : {size_t{1}, size_t{32}, size_t{33}, size_t{70}}) {
        std::vector<Base> q(len);
        for (auto &b : q) {
            seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
            b = static_cast<Base>(seed >> 62);
        }
        queries.push_back(std::move(q));
    }
    WorkerRequest req;
    req.batch = QueryBatchView::own(std::move(queries), std::move(ids));
    return req;
}

WorkerResponse
sampleResponse()
{
    WorkerResponse resp;
    resp.status = WorkerStatus::Ok;
    resp.ids = {4, 9, 1};
    resp.hits = {{3, 17, 290}, {}, {u64{1} << 40}};
    resp.stats.kstep_iterations = 3;
    resp.stats.total_probes = 4;
    resp.seconds = 0.125;
    resp.canary = responseCanary(resp);
    return resp;
}

TEST(Wire, RequestRoundTripPreservesQueriesAndIds)
{
    const WorkerRequest req = sampleRequest();
    const std::vector<u8> body = encodeRequest(req);
    const WorkerRequest back = decodeRequest(body, -1);
    ASSERT_EQ(back.batch.size(), req.batch.size());
    EXPECT_EQ(back.batch.ids(), req.batch.ids());
    for (size_t j = 0; j < req.batch.size(); ++j)
        EXPECT_EQ(back.batch.query(j), req.batch.query(j))
            << "query " << j;
    EXPECT_EQ(back.batch.totalBases(), req.batch.totalBases());
}

TEST(Wire, EmptyRequestRoundTrip)
{
    const WorkerRequest req;
    const std::vector<u8> body = encodeRequest(req);
    EXPECT_EQ(body.size(), sizeof(WireRequestHead));
    const WorkerRequest back = decodeRequest(body, -1);
    EXPECT_TRUE(back.batch.empty());
}

TEST(Wire, BorrowedAndOwnedRequestsEncodeIdentically)
{
    const std::vector<std::vector<Base>> batch = {
        {0, 1, 2, 3}, {3, 3}, {1}};
    const WorkerRequest borrowed{
        QueryBatchView::borrow(batch, {2, 0}), {}};
    const WorkerRequest owned{
        QueryBatchView::own({batch[2], batch[0]}, {2, 0}), {}};
    EXPECT_EQ(encodeRequest(borrowed), encodeRequest(owned));
}

TEST(Wire, ResponseRoundTripPreservesEverything)
{
    const WorkerResponse resp = sampleResponse();
    const std::vector<u8> body = encodeResponse(resp);
    const WorkerResponse back = decodeResponse(body, -1);
    EXPECT_EQ(back.status, resp.status);
    EXPECT_EQ(back.error, resp.error);
    EXPECT_EQ(back.ids, resp.ids);
    EXPECT_EQ(back.hits, resp.hits);
    EXPECT_EQ(back.canary, resp.canary);
    EXPECT_EQ(back.stats, resp.stats);
    EXPECT_EQ(back.seconds, resp.seconds);
    // The application-level canary still verifies after the trip.
    EXPECT_EQ(responseCanary(back), back.canary);
}

TEST(Wire, FailedResponseCarriesItsMessage)
{
    WorkerResponse resp;
    resp.status = WorkerStatus::Failed;
    resp.error = "injected fault: process() threw in worker 'w'";
    resp.ids = {1, 2};
    const WorkerResponse back = decodeResponse(encodeResponse(resp), -1);
    EXPECT_EQ(back.status, WorkerStatus::Failed);
    EXPECT_EQ(back.error, resp.error);
    EXPECT_EQ(back.ids, resp.ids);
}

TEST(Wire, OversizedErrorStringIsTruncatedAtTheCap)
{
    WorkerResponse resp;
    resp.status = WorkerStatus::Failed;
    resp.error.assign(kMaxErrorBytes + 100, 'x');
    const WorkerResponse back = decodeResponse(encodeResponse(resp), -1);
    EXPECT_EQ(back.error.size(), size_t{kMaxErrorBytes});
}

TEST(Wire, RequestDecodeFailsClosedOnTruncationAtEveryByte)
{
    const std::vector<u8> body = encodeRequest(sampleRequest());
    for (size_t len = 0; len < body.size(); ++len) {
        const std::span<const u8> cut(body.data(), len);
        EXPECT_THROW(decodeRequest(cut, -1), TransportError)
            << "prefix of " << len << " bytes decoded";
    }
}

TEST(Wire, RequestDecodeRejectsCorruptCounts)
{
    const std::vector<u8> good = encodeRequest(sampleRequest());

    // A query count the frame cannot possibly hold: refused before
    // any allocation.
    std::vector<u8> huge = good;
    std::memset(huge.data(), 0xff, 4); // WireRequestHead::n_queries
    EXPECT_THROW(decodeRequest(huge, -1), TransportError);

    // The total_bases cross-check catches a flipped count.
    std::vector<u8> mismatch = good;
    mismatch[offsetof(WireRequestHead, total_bases)] ^= 1;
    EXPECT_THROW(decodeRequest(mismatch, -1), TransportError);

    // Trailing garbage is an error, not silently ignored.
    std::vector<u8> trailing = good;
    trailing.push_back(0);
    EXPECT_THROW(decodeRequest(trailing, -1), TransportError);
}

TEST(Wire, ResponseDecodeFailsClosedOnTruncationAtEveryByte)
{
    const std::vector<u8> body = encodeResponse(sampleResponse());
    for (size_t len = 0; len < body.size(); ++len) {
        const std::span<const u8> cut(body.data(), len);
        EXPECT_THROW(decodeResponse(cut, -1), TransportError)
            << "prefix of " << len << " bytes decoded";
    }
}

TEST(Wire, ResponseDecodeRejectsCorruptLengthsAndStatus)
{
    // Fixture with a known layout: head (64) | err_len u32 (68) |
    // 1 id (72) | n_rows u32 (76) | row-0 n_hits u64 (84) | 2 hits.
    WorkerResponse resp;
    resp.ids = {3};
    resp.hits = {{10, 20}};
    resp.canary = responseCanary(resp);
    const std::vector<u8> good = encodeResponse(resp);
    ASSERT_EQ(good.size(), 100u);

    // An out-of-range status byte.
    std::vector<u8> status = good;
    status[0] = 0x7f;
    EXPECT_THROW(decodeResponse(status, -1), TransportError);

    // An error length past the cap must never over-read.
    std::vector<u8> err = good;
    std::memset(err.data() + 64, 0xff, 4);
    EXPECT_THROW(decodeResponse(err, -1), TransportError);

    // An id count the frame cannot hold.
    std::vector<u8> ids = good;
    std::memset(ids.data() + 4, 0xff, 4); // WireResponseHead::n_ids
    EXPECT_THROW(decodeResponse(ids, -1), TransportError);

    // A row count the frame cannot hold.
    std::vector<u8> rows = good;
    std::memset(rows.data() + 72, 0xff, 4);
    EXPECT_THROW(decodeResponse(rows, -1), TransportError);

    // A per-row hit count that overruns the frame.
    std::vector<u8> hits = good;
    std::memset(hits.data() + 76, 0xff, 8);
    EXPECT_THROW(decodeResponse(hits, -1), TransportError);

    // An Ok response owes one hit row per id: the router's merge reads
    // hits[j] for every id, and the sender's canary covers the same
    // wrong shape, so only the decoder can refuse it.
    WorkerResponse short_rows;
    short_rows.ids = {0, 1};
    short_rows.hits = {{5}};
    short_rows.canary = responseCanary(short_rows);
    EXPECT_THROW(decodeResponse(encodeResponse(short_rows), -1),
                 TransportError);
}

/** A connected socket pair whose fds close on destruction. */
struct Channel
{
    int a = -1;
    int b = -1;

    Channel()
    {
        EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
        a = fds[0];
        b = fds[1];
    }

    ~Channel()
    {
        closeA();
        if (b >= 0)
            ::close(b);
    }

    void closeA()
    {
        if (a >= 0)
            ::close(a);
        a = -1;
    }

    int fds[2] = {-1, -1};
};

TEST(Wire, FrameRoundTripOverSocketpair)
{
    Channel ch;
    const std::vector<u8> body = encodeResponse(sampleResponse());
    writeFrame(ch.a, kFrameResponse, 42, body);
    writeFrame(ch.a, kFrameHeartbeat, 42, {});

    WireFrame frame;
    ASSERT_TRUE(readFrame(ch.b, frame));
    EXPECT_EQ(frame.header.type, kFrameResponse);
    EXPECT_EQ(frame.header.seq, 42u);
    EXPECT_EQ(frame.body, body);

    ASSERT_TRUE(readFrame(ch.b, frame));
    EXPECT_EQ(frame.header.type, kFrameHeartbeat);
    EXPECT_TRUE(frame.body.empty());

    // A close between frames is a clean EOF, not an error.
    ch.closeA();
    EXPECT_FALSE(readFrame(ch.b, frame));
}

/** Write a hand-crafted header (+ optional body) and expect readFrame
 *  to refuse it. */
void
expectRefused(const FrameHeader &h, std::span<const u8> body)
{
    Channel ch;
    ASSERT_EQ(::write(ch.a, &h, sizeof h),
              static_cast<ssize_t>(sizeof h));
    if (!body.empty()) {
        ASSERT_EQ(::write(ch.a, body.data(), body.size()),
                  static_cast<ssize_t>(body.size()));
    }
    ch.closeA();
    WireFrame frame;
    EXPECT_THROW(readFrame(ch.b, frame), TransportError);
}

TEST(Wire, FrameRejectsBadMagicVersionSkewTypeAndCanary)
{
    const std::vector<u8> body = {1, 2, 3, 4};

    FrameHeader bad_magic;
    bad_magic.magic[0] = 'X';
    bad_magic.type = kFrameRequest;
    expectRefused(bad_magic, {});

    // Version skew: a router and a worker built from different format
    // generations must refuse each other outright.
    FrameHeader skew;
    skew.type = kFrameRequest;
    skew.version = kFormatVersion + 1;
    expectRefused(skew, {});
    skew.version = kFormatVersion - 1; // a worker one format older
    expectRefused(skew, {});

    FrameHeader bad_type;
    bad_type.type = 0;
    expectRefused(bad_type, {});
    bad_type.type = kFrameHeartbeat + 1;
    expectRefused(bad_type, {});

    // A corrupt body length fails closed at the cap — no allocation,
    // no read of a 2^60-byte "body".
    FrameHeader oversized;
    oversized.type = kFrameRequest;
    oversized.body_bytes = kMaxFrameBytes + 1;
    expectRefused(oversized, {});

    // A flipped canary bit is a detected transport error.
    FrameHeader flipped;
    flipped.type = kFrameRequest;
    flipped.body_bytes = body.size();
    flipped.canary = fnv1aWords(std::span<const u8>(body)) ^ 1;
    expectRefused(flipped, body);
}

TEST(Wire, TruncatedFrameBodyThrowsOnPeerClose)
{
    Channel ch;
    const std::vector<u8> part = {9, 9, 9};
    FrameHeader h;
    h.type = kFrameRequest;
    h.body_bytes = 100; // claims more than will ever arrive
    h.canary = 0;
    ASSERT_EQ(::write(ch.a, &h, sizeof h),
              static_cast<ssize_t>(sizeof h));
    ASSERT_EQ(::write(ch.a, part.data(), part.size()),
              static_cast<ssize_t>(part.size()));
    ch.closeA();
    WireFrame frame;
    EXPECT_THROW(readFrame(ch.b, frame), TransportError);
}

} // namespace
} // namespace exma
