#include "trace/numa.h"

#include <algorithm>

namespace aftermath {
namespace trace {

std::uint64_t
NumaAccessSummary::totalBytes() const
{
    std::uint64_t total = 0;
    for (std::uint64_t b : bytesPerNode)
        total += b;
    return total;
}

NodeId
NumaAccessSummary::dominantNode() const
{
    NodeId best = kInvalidNode;
    std::uint64_t best_bytes = 0;
    for (NodeId n = 0; n < bytesPerNode.size(); n++) {
        if (bytesPerNode[n] > best_bytes) {
            best_bytes = bytesPerNode[n];
            best = n;
        }
    }
    return best;
}

double
NumaAccessSummary::remoteFraction(NodeId local_node) const
{
    std::uint64_t total = totalBytes();
    if (total == 0)
        return 0.0;
    std::uint64_t local = local_node < bytesPerNode.size()
        ? bytesPerNode[local_node] : 0;
    return static_cast<double>(total - local) / static_cast<double>(total);
}

NumaAccessSummary
summarizeTaskAccesses(const Trace &trace, TaskInstanceId task, bool writes)
{
    NumaAccessSummary summary;
    summary.bytesPerNode.assign(trace.topology().numNodes(), 0);

    auto [first, last] = trace.accessRange(task);
    for (auto it = first; it != last; ++it) {
        if (it->isWrite != writes)
            continue;
        const MemRegion *region = trace.regionContaining(it->address);
        if (!region || region->node == kInvalidNode) {
            summary.unknownBytes += it->size;
            continue;
        }
        summary.bytesPerNode[region->node] += it->size;
    }
    return summary;
}

} // namespace trace
} // namespace aftermath
