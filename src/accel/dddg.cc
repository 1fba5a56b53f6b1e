#include "dddg.hh"

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "sim/logging.hh"

namespace genie
{

namespace
{

/** Key for the last-writer map: array id + byte offset word. */
constexpr std::uint64_t
memKey(int arrayId, Addr byteAddr)
{
    return (static_cast<std::uint64_t>(
                static_cast<std::uint16_t>(arrayId))
            << 48) |
           (byteAddr & 0xffffffffffffull);
}

} // namespace

Dddg::Dddg(const Trace &trace)
{
    const std::size_t n = trace.ops.size();
    parentCount.assign(n, 0);
    lowered.reserve(n);
    opsPerIteration.assign(std::max<std::uint32_t>(trace.numIterations, 1),
                           0);

    // Pass 1: collect every edge flat, grouped by consumer in program
    // order. Node i's producers are the next parentCount[i] entries of
    // `from`, so no per-edge consumer id is stored. The same walk
    // lowers each op.
    std::size_t estimate = 0;
    for (const TraceOp &op : trace.ops)
        estimate += op.deps.size() + (op.op == Opcode::Load ? 1 : 0);
    std::vector<NodeId> from;
    from.reserve(estimate);

    // Last store covering each (array, word) location. Word
    // granularity (4 bytes) bounds map size; accesses are word
    // aligned in all workloads.
    std::unordered_map<std::uint64_t, NodeId> lastWriter;
    lastWriter.reserve(n / 4 + 16);

    auto addEdge = [&](NodeId producer, NodeId consumer) {
        GENIE_ASSERT(producer < consumer, "DDDG edge must go forward");
        from.push_back(producer);
        ++parentCount[consumer];
    };

    constexpr unsigned wordGran = 4;

    std::uint32_t iteration = 0;
    for (NodeId i = 0; i < n; ++i) {
        const TraceOp &op = trace.ops[i];
        for (NodeId d : op.deps)
            addEdge(d, i);

        if (op.iteration != iteration) {
            GENIE_ASSERT(op.iteration > iteration &&
                             op.iteration < opsPerIteration.size(),
                         "op %u: iteration %u after %u, or past %zu", i,
                         op.iteration, iteration, opsPerIteration.size());
            iteration = op.iteration;
        }
        ++opsPerIteration[iteration];
        if (!isMemoryOp(op.op)) {
            lowered.push_back({static_cast<std::uint8_t>(fuKindOf(op.op))});
            continue;
        }

        const auto arr = static_cast<std::size_t>(op.arrayId);
        GENIE_ASSERT(arr < trace.arrays.size(),
                     "op %u accesses unknown array %d", i, op.arrayId);
        if (op.offset > std::numeric_limits<std::uint32_t>::max())
            fatal("op %u: offset %llu past the 32 bits a lowered op holds",
                  i, (unsigned long long)op.offset);
        lowered.push_back({op.op == Opcode::Load ? DddgOp::loadKind
                                                 : DddgOp::storeKind,
                           op.arrayId, static_cast<std::uint32_t>(op.offset)});

        if (op.op == Opcode::Load) {
            // True (RAW) memory dependences.
            NodeId lastDep = invalidNode;
            for (Addr a = alignDown(op.offset, wordGran);
                 a < op.offset + op.size; a += wordGran) {
                auto it = lastWriter.find(memKey(op.arrayId, a));
                if (it != lastWriter.end() && it->second != lastDep) {
                    addEdge(it->second, i);
                    ++memEdges;
                    lastDep = it->second;
                }
            }
        } else {
            for (Addr a = alignDown(op.offset, wordGran);
                 a < op.offset + op.size; a += wordGran) {
                lastWriter[memKey(op.arrayId, a)] = i;
            }
        }
    }
    GENIE_ASSERT(from.size() < std::numeric_limits<std::uint32_t>::max(),
                 "DDDG too large");

    // Pass 2: stable counting sort by producer. Consumers were
    // visited in ascending order, so every producer's segment comes
    // out sorted.
    childOff.assign(n + 1, 0);
    for (NodeId p : from)
        ++childOff[p + 1];
    for (std::size_t p = 1; p <= n; ++p)
        childOff[p] += childOff[p - 1];
    childIdx.resize(from.size());
    std::size_t e = 0;
    for (NodeId i = 0; i < n; ++i) {
        for (std::uint32_t k = 0; k < parentCount[i]; ++k)
            childIdx[childOff[from[e++]]++] = i;
    }
    // Each childOff[p] now holds its segment's end; shift back to
    // segment starts.
    for (std::size_t p = n; p > 0; --p)
        childOff[p] = childOff[p - 1];
    childOff[0] = 0;
    std::vector<NodeId>().swap(from);

    // Pass 3: drop adjacent duplicates (an op may depend on the same
    // producer through several inputs, e.g. x*x), compacting in place.
    std::uint32_t out = 0;
    std::uint32_t begin = 0;
    for (std::size_t p = 0; p < n; ++p) {
        std::uint32_t end = childOff[p + 1];
        childOff[p] = out;
        for (std::uint32_t k = begin; k < end; ++k) {
            NodeId c = childIdx[k];
            if (out > childOff[p] && childIdx[out - 1] == c)
                --parentCount[c];
            else
                childIdx[out++] = c;
        }
        begin = end;
    }
    childOff[n] = out;
    childIdx.resize(out);

    // The roots: pass 3 drops only duplicate edges, so these are the
    // nodes pass 1 gave no producer. Filled without a branch per node.
    rootNodes.resize(static_cast<std::size_t>(
        std::count(parentCount.begin(), parentCount.end(), 0u)));
    for (NodeId i = 0, r = 0; r < rootNodes.size(); ++i) {
        rootNodes[r] = i;
        r += parentCount[i] == 0;
    }
}

std::uint64_t
Dddg::criticalPathCycles(const Trace &trace) const
{
    std::vector<std::uint64_t> depth(numNodes(), 0);
    std::uint64_t best = 0;
    for (NodeId i = 0; i < numNodes(); ++i) {
        std::uint64_t finish =
            depth[i] + latencyOf(trace.ops[i].op);
        best = std::max(best, finish);
        for (NodeId c : children(i))
            depth[c] = std::max(depth[c], finish);
    }
    return best;
}

} // namespace genie
