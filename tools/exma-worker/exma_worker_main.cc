/**
 * @file
 * The out-of-process shard worker: mmap-loads one shard's persisted
 * files and serves wire.hh frames on an inherited socket fd until the
 * router closes the stream. One process per replica — the paper's
 * per-channel parallelism with real OS-level isolation: a crash here
 * is a closed socket and a WorkerDown at the router, never a
 * corrupted router address space.
 *
 * Spawned by SocketTransport as
 *
 *   exma-worker --fd 3 --name <shard>/r<i> --state table|scan|empty
 *               [--stem <dir>/shardNNNN]
 *
 * Request compute is serveShardRequest (transport/worker_core.cc) —
 * the same code the in-process ShardWorker runs, canary stamp and
 * compute-exception-to-Failed included, which is what makes socket
 * serving differentially testable against the in-process path.
 * Channel breakage ends the process (the router translates the EOF
 * into WorkerDown and respawns). A malformed or out-of-range flag
 * exits 2 with a message naming the flag.
 */

#include <charconv>
#include <chrono>
#include <cstdio>
#include <exception>
#include <string>

#include "io/table_io.hh"
#include "transport/wire.hh"
#include "transport/worker_core.hh"

namespace {

using namespace exma;

/** Print @p err (naming the offending flag) and the usage line. */
int
usage(const char *argv0, const std::string &err)
{
    std::fprintf(stderr,
                 "exma-worker: %s\n"
                 "usage: %s --fd N --name NAME --state table|scan|empty "
                 "[--stem STEM]\n",
                 err.c_str(), argv0);
    return 2;
}

/** @p v parsed whole-token as a non-negative int, or -1. */
int
parseFd(const std::string &v)
{
    const char *end = v.data() + v.size();
    int fd = -1;
    const auto [stop, ec] = std::from_chars(v.data(), end, fd);
    return ec == std::errc{} && stop == end && fd >= 0 ? fd : -1;
}

/** Least time between two heartbeat frames of one request. */
constexpr auto kHeartbeatEvery = std::chrono::milliseconds(20);

/**
 * Serve requests off @p fd until the peer closes the stream.
 * Heartbeat frames ride between request and response so the
 * supervisor can tell a slow batch from a hung process. They are
 * throttled by time, not by tick count — the router only needs to see
 * *movement* — so a slow request sends one every kHeartbeatEvery
 * however few progress ticks it makes.
 */
int
serveLoop(int fd, const ShardState &st)
{
    WireFrame frame;
    while (readFrame(fd, frame)) {
        if (frame.header.type != kFrameRequest) {
            std::fprintf(stderr,
                         "exma-worker: unexpected frame type %u\n",
                         unsigned{frame.header.type});
            return 1;
        }
        WorkerResponse resp;
        try {
            const WorkerRequest req = decodeRequest(frame.body, fd);
            auto last = std::chrono::steady_clock::now();
            resp = serveShardRequest(st, req, [&] {
                const auto now = std::chrono::steady_clock::now();
                if (now - last < kHeartbeatEvery)
                    return;
                last = now;
                writeFrame(fd, kFrameHeartbeat, frame.header.seq, {});
            });
        } catch (const TransportError &e) {
            // The frame decoded as no valid request. Answer Failed so
            // the router retries elsewhere; if the channel itself is
            // sick the write below ends the process.
            resp = WorkerResponse{};
            resp.status = WorkerStatus::Failed;
            resp.error = e.what();
        }
        const std::vector<u8> body = encodeResponse(resp);
        writeFrame(fd, kFrameResponse, frame.header.seq, body);
    }
    return 0; // clean EOF: the router closed the channel
}

} // namespace

int
main(int argc, char **argv)
{
    int fd = 3;
    std::string name = "exma-worker";
    std::string state;
    std::string stem;
    for (int i = 1; i < argc; i += 2) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage(argv[0], arg + " needs a value");
        const std::string value = argv[i + 1];
        if (arg == "--fd") {
            fd = parseFd(value);
            if (fd < 0)
                return usage(argv[0], "--fd takes a descriptor number "
                                      ">= 0, got '" + value + "'");
        } else if (arg == "--name") {
            name = value;
        } else if (arg == "--state") {
            state = value;
        } else if (arg == "--stem") {
            stem = value;
        } else {
            return usage(argv[0], "unknown flag '" + arg + "'");
        }
    }
    if (state != "table" && state != "scan" && state != "empty")
        return usage(argv[0], "--state takes table|scan|empty, got '" +
                                  state + "'");
    if (state != "empty" && stem.empty())
        return usage(argv[0], "--stem is required with --state " + state);

    ignoreSigpipe();

    try {
        // Keep the loaded state alive for the whole serving loop; the
        // table's hot arrays live inside the mmaps.
        LoadedExmaTable table;
        LoadedScanShard scan;
        ShardState st;
        if (state == "table") {
            table = loadTableFiles(stem);
            st.table = table.table.get();
        } else if (state == "scan") {
            scan = loadScanFiles(stem);
            st.scan_ref = &scan.text;
            st.scan_begin = scan.slice.global_begin;
        }
        validateShardState(name, st);
        return serveLoop(fd, st);
    } catch (const TransportError &e) {
        // Channel breakage mid-stream: the router already sees the
        // closed socket; the message is for human post-mortems.
        std::fprintf(stderr, "exma-worker[%s]: %s\n", name.c_str(),
                     e.what());
        return 1;
    } catch (const std::exception &e) {
        // Load failure: exit before serving a single frame — the
        // router reads EOF and treats the replica as down.
        std::fprintf(stderr, "exma-worker[%s]: %s\n", name.c_str(),
                     e.what());
        return 1;
    }
}
