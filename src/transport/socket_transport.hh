/**
 * @file
 * The out-of-process Transport: each replica is a real child process
 * (tools/exma-worker) spawned over a Unix-domain socketpair and
 * spoken to in wire.hh frames. The lane (inbox, fault dispatch,
 * liveness, the completion contract) is Transport's; see
 * transport.hh. What differs is how a request is answered: a frame
 * round trip — encode, write, then read frames until the response
 * with the matching sequence number arrives. Heartbeat frames tick
 * the liveness counter in between, so the supervisor sees
 * chunk-granular progress across the process boundary; the child
 * stamps the canary before encoding.
 *
 * Failure is physical. A broken channel — the child died, a read was
 * shut down, a frame failed validation — throws out of the round trip,
 * which the lane turns into WorkerDown. interrupt() sends a real
 * SIGKILL and shuts the socket down so any blocked read unblocks
 * immediately; it is repeatable. The child is reaped (waitpid)
 * exactly once, in the destructor.
 *
 * Fault injection stays parent-side, in the lane, at the same
 * per-replica site name as in-process: EXMA_FAULTS is stripped from
 * the child's environment, so the injector's per-site nth counters
 * survive respawns and a child never fires a plan twice.
 */

#ifndef EXMA_TRANSPORT_SOCKET_TRANSPORT_HH
#define EXMA_TRANSPORT_SOCKET_TRANSPORT_HH

#include <sys/types.h>

#include <string>

#include "transport/transport.hh"

namespace exma {

/** How to spawn one exma-worker child. */
struct SocketTransportConfig
{
    std::string binary; ///< resolved exma-worker executable path
    std::string stem;   ///< shard file stem ("" for an empty state)
    std::string state;  ///< "table" | "scan" | "empty"
};

/**
 * Resolve the exma-worker binary: @p hint (the configured path) if
 * non-empty, else a walk up from /proc/self/exe looking for
 * tools/exma-worker/exma-worker (the build-tree layout), else the
 * bare name for a PATH lookup.
 */
std::string discoverWorkerBinary(const std::string &hint);

class SocketTransport final : public Transport
{
  public:
    /**
     * Spawns the child and starts the lane. A spawn failure is not
     * fatal: the first request finds a closed channel and resolves
     * WorkerDown, which is exactly what the failover tier expects
     * from a replica that cannot come up.
     *
     * @param name       stable replica name (fault-injection site).
     * @param cfg        child binary + shard files to serve.
     * @param has_table  what hasTable() reports (the shard files are
     *                   in the child; the parent only knows the
     *                   shape).
     * @param is_empty   what isEmpty() reports.
     */
    SocketTransport(std::string name, SocketTransportConfig cfg,
                    bool has_table, bool is_empty);

    /**
     * Stops the lane (SIGKILL plus a socket shutdown unblock any
     * in-flight round trip), then reaps the child.
     */
    ~SocketTransport() override;

  private:
    void spawnChild();
    /** One request over the wire; throws TransportError on breakage. */
    WorkerResponse serveRequest(const WorkerRequest &req) override;
    /** SIGKILL the child if it was ever spawned and shut the socket
     *  down so a blocked read()/write() on either side returns. */
    void interrupt() override;

    const SocketTransportConfig cfg_;

    int fd_ = -1;    ///< parent socket end; immutable after ctor
    pid_t pid_ = -1; ///< child pid, or -1 if spawn failed
    u32 seq_ = 0;    ///< request sequence; lane-thread-only
};

} // namespace exma

#endif // EXMA_TRANSPORT_SOCKET_TRANSPORT_HH
