#include "transport/shard_worker.hh"

#include <utility>

namespace exma {

ShardWorker::ShardWorker(std::string name, ShardState state)
    : Transport(std::move(name), state.table != nullptr,
                state.table == nullptr && state.scan_ref == nullptr),
      state_(state)
{
    validateShardState(this->name(), state_);
    startLane();
}

ShardWorker::~ShardWorker()
{
    stopLane();
}

WorkerResponse
ShardWorker::serveRequest(const WorkerRequest &req)
{
    return serveShardRequest(state_, req, [this] { tickHeartbeat(); });
}

} // namespace exma
