#include "transport/shard_worker.hh"

#include <utility>

namespace exma {

ShardWorker::ShardWorker(std::string name, const ExmaTable *table,
                         const std::vector<Base> *scan_ref,
                         const std::vector<TextSegment> *segments)
    : Transport(std::move(name), table != nullptr,
                table == nullptr && scan_ref == nullptr),
      state_{table, scan_ref, segments}
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
