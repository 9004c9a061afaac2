#include "transport/socket_transport.hh"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <utility>

#include "common/logging.hh"
#include "transport/wire.hh"

extern char **environ;

namespace exma {

std::string
discoverWorkerBinary(const std::string &hint)
{
    namespace fs = std::filesystem;
    if (!hint.empty())
        return hint;
    // Build-tree layout: any binary under build/ has the worker at
    // build/tools/exma-worker/exma-worker — walk up from our own
    // executable until the relative path resolves.
    std::error_code ec;
    const fs::path self = fs::read_symlink("/proc/self/exe", ec);
    if (!ec) {
        fs::path dir = self.parent_path();
        for (;;) {
            const fs::path cand =
                dir / "tools" / "exma-worker" / "exma-worker";
            if (fs::exists(cand, ec) && !ec)
                return cand.string();
            const fs::path parent = dir.parent_path();
            if (parent == dir)
                break;
            dir = parent;
        }
    }
    return "exma-worker"; // last resort: PATH lookup (posix_spawnp)
}

SocketTransport::SocketTransport(std::string name,
                                 SocketTransportConfig cfg, bool has_table,
                                 bool is_empty)
    : Transport(std::move(name), has_table, is_empty), cfg_(std::move(cfg))
{
    ignoreSigpipe();
    spawnChild();
    startLane();
}

SocketTransport::~SocketTransport()
{
    // A healthy child's pending response is abandoned: every queued or
    // in-flight request completes WorkerDown, and a router's
    // completions own what they touch (their queue, any batch copy),
    // so nothing they reach dangles.
    stopLane();
    if (pid_ > 0)
        ::waitpid(pid_, nullptr, 0); // reap exactly once, here
    if (fd_ >= 0)
        ::close(fd_);
}

void
SocketTransport::spawnChild()
{
    int sv[2] = {-1, -1};
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
        exma_warn("socket worker '%s': socketpair failed: %s",
                  name().c_str(), std::strerror(errno));
        return; // fd_ stays -1; every request resolves WorkerDown
    }
    // Parent end must not leak into other spawned children.
    ::fcntl(sv[0], F_SETFD, FD_CLOEXEC);

    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    if (sv[1] != 3) {
        posix_spawn_file_actions_adddup2(&fa, sv[1], 3);
        posix_spawn_file_actions_addclose(&fa, sv[1]);
    }

    const std::string fd_arg = "3";
    const char *argv[] = {
        cfg_.binary.c_str(), "--fd",    fd_arg.c_str(),
        "--name",            name().c_str(),
        "--state",           cfg_.state.c_str(),
        "--stem",            cfg_.stem.c_str(),
        nullptr,
    };
    // Faults are injected parent-side only: the injector's per-site
    // nth counters must survive child respawns, and a child running
    // its own injector would double-fire every plan. Strip EXMA_FAULTS
    // from the child's environment.
    std::vector<char *> envp;
    for (char **e = environ; *e != nullptr; ++e) {
        if (std::strncmp(*e, "EXMA_FAULTS=", 12) == 0)
            continue;
        envp.push_back(*e);
    }
    envp.push_back(nullptr);

    pid_t pid = -1;
    const int rc =
        ::posix_spawnp(&pid, cfg_.binary.c_str(), &fa, nullptr,
                       const_cast<char *const *>(argv), envp.data());
    posix_spawn_file_actions_destroy(&fa);
    ::close(sv[1]);
    fd_ = sv[0];
    if (rc != 0) {
        // Not fatal: with the child end closed and no child, the
        // first round-trip reads EOF and resolves WorkerDown — the
        // same signal as a replica crashing at startup.
        exma_warn("socket worker '%s': spawn of '%s' failed: %s",
                  name().c_str(), cfg_.binary.c_str(), std::strerror(rc));
        return;
    }
    pid_ = pid;
}

void
SocketTransport::interrupt()
{
    if (pid_ > 0)
        ::kill(pid_, SIGKILL);
    if (fd_ >= 0)
        ::shutdown(fd_, SHUT_RDWR);
}

WorkerResponse
SocketTransport::serveRequest(const WorkerRequest &req)
{
    if (fd_ < 0)
        throw TransportError("worker '" + name() + "' has no channel",
                             -1, 0);
    const u32 seq = ++seq_;
    const std::vector<u8> body = encodeRequest(req);
    writeFrame(fd_, kFrameRequest, seq, body);
    WireFrame frame;
    for (;;) {
        if (!readFrame(fd_, frame))
            throw TransportError("worker '" + name() +
                                     "' closed the channel mid-request",
                                 fd_, 0);
        if (frame.header.type == kFrameHeartbeat) {
            // Chunk-granular liveness across the process boundary.
            tickHeartbeat();
            continue;
        }
        if (frame.header.type != kFrameResponse ||
            frame.header.seq != seq)
            throw TransportError(
                "worker '" + name() + "' sent frame type " +
                    std::to_string(frame.header.type) + " seq " +
                    std::to_string(frame.header.seq) +
                    " while awaiting response " + std::to_string(seq),
                fd_, 0);
        return decodeResponse(
            std::span<const u8>(frame.body.data(), frame.body.size()),
            fd_);
    }
}

} // namespace exma
