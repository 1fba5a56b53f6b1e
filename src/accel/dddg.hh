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
 */

#ifndef GENIE_ACCEL_DDDG_HH
#define GENIE_ACCEL_DDDG_HH

#include <cstdint>
#include <span>
#include <vector>

#include "accel/trace.hh"

namespace genie
{

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

    /** Number of producers node @p n waits for. */
    std::uint32_t parents(NodeId n) const { return parentCount[n]; }

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
};

} // namespace genie

#endif // GENIE_ACCEL_DDDG_HH
