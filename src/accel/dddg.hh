/**
 * @file
 * The dynamic data dependence graph (DDDG).
 *
 * Vertices are the trace's dynamic ops; edges are true dependences:
 * the register dependences recorded by the trace builder plus memory
 * dependences inferred from trace addresses (a load depends on the
 * most recent earlier store that wrote any byte it reads), exactly the
 * dataflow representation Aladdin schedules (Section III-B).
 *
 * Children are stored flat in compressed-sparse-row form: node n's
 * consumers are childIdx[childOff[n], childOff[n+1]), sorted and
 * duplicate-free.
 *
 * The graph also holds everything the datapath's issue records take
 * from the trace alone (a DddgOp per node, the roots and the op count
 * of each iteration), so each design point only adds what its own
 * configuration decides (DESIGN.md §4).
 */

#ifndef GENIE_ACCEL_DDDG_HH
#define GENIE_ACCEL_DDDG_HH

#include <cstdint>
#include <span>
#include <vector>

#include "accel/trace.hh"

namespace genie
{

/** One node as every design point issues it: the trace-only part of
 * the datapath's per-node record. The node's iteration follows from
 * Dddg::iterationOps(), as a trace lists its iterations in order. */
struct DddgOp
{
    /** Memory kinds, after the compute ops' FuKind values. */
    static constexpr std::uint8_t loadKind =
        static_cast<std::uint8_t>(FuKind::Other) + 1;
    static constexpr std::uint8_t storeKind = loadKind + 1;

    /** A compute op's FuKind, else loadKind or storeKind. */
    std::uint8_t kind = 0;
    /** For Load/Store: the accessed array. */
    std::int16_t arrayId = -1;
    /** For Load/Store: the byte offset into the array. */
    std::uint32_t offset = 0;
};
static_assert(sizeof(DddgOp) == 8, "DddgOp grew");

class Dddg
{
  public:
    explicit Dddg(const Trace &trace);

    std::size_t numNodes() const { return parentCount.size(); }
    std::size_t numEdges() const { return childIdx.size(); }

    /** Consumers of node @p n (register + memory dependents), in
     * ascending node order without duplicates. */
    std::span<const NodeId>
    children(NodeId n) const
    {
        return {childIdx.data() + childOff[n],
                childOff[n + 1] - childOff[n]};
    }

    /** The number of producers each node waits for, in node order. */
    std::span<const std::uint32_t> parentCounts() const
    {
        return parentCount;
    }

    /** Every node, lowered for issue. */
    std::span<const DddgOp> ops() const { return lowered; }

    /** The nodes with no producers, in ascending order. */
    std::span<const NodeId> roots() const { return rootNodes; }

    /** The number of nodes in each loop iteration, which hold
     * consecutive nodes; at least one entry, as an iteration-less
     * trace runs as iteration 0. */
    std::span<const std::uint32_t> iterationOps() const
    {
        return opsPerIteration;
    }

    /** Number of memory-dependence edges inferred from addresses. */
    std::size_t numMemoryEdges() const { return memEdges; }

    /**
     * Length of the longest dependence chain, weighted by op latency.
     * This is the resource-unconstrained lower bound on compute
     * cycles; the analytic validation model (Figure 4) uses it.
     */
    std::uint64_t criticalPathCycles(const Trace &trace) const;

  private:
    std::vector<std::uint32_t> childOff;
    std::vector<NodeId> childIdx;
    std::vector<std::uint32_t> parentCount;
    std::size_t memEdges = 0;
    std::vector<DddgOp> lowered;
    std::vector<NodeId> rootNodes;
    std::vector<std::uint32_t> opsPerIteration;
};

} // namespace genie

#endif // GENIE_ACCEL_DDDG_HH
