/**
 * @file
 * Dynamic execution traces and the trace-builder DSL.
 *
 * Aladdin profiles a C program with LLVM instrumentation to obtain a
 * dynamic trace; Genie's workloads instead *execute functionally in
 * C++* while recording the same information through a TraceBuilder:
 * every load, store, arithmetic op, and loop iteration boundary, with
 * explicit register dependences (the builder returns node ids that are
 * passed as dependences of later ops). Memory (store-to-load)
 * dependences are inferred later by the DDDG builder, exactly as
 * Aladdin infers them from trace addresses. See DESIGN.md
 * substitution #1.
 */

#ifndef GENIE_ACCEL_TRACE_HH
#define GENIE_ACCEL_TRACE_HH

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "accel/opcode.hh"
#include "sim/types.hh"

namespace genie
{

/** Index of an op within a trace. */
using NodeId = std::uint32_t;
constexpr NodeId invalidNode = 0xffffffff;

/** One dynamic operation. Fields are ordered to leave no padding;
 * its register dependences live in the Trace (Trace::deps()). */
struct TraceOp
{
    Opcode op = Opcode::Nop;
    /** For Load/Store: access size in bytes. */
    std::uint8_t size = 0;
    /** For Load/Store: the accessed array. */
    std::int16_t arrayId = -1;
    /** Loop iteration this op belongs to (drives lane assignment). */
    std::uint32_t iteration = 0;
    /** For Load/Store: byte offset within the array. */
    Addr offset = 0;
};
static_assert(sizeof(TraceOp) == 16, "TraceOp grew");

/** A workload array visible to the accelerator. */
struct ArrayInfo
{
    std::string name;
    std::uint64_t sizeBytes = 0;
    unsigned wordBytes = 4;
    /** Transferred in before compute (flushed + DMA-loaded). */
    bool isInput = false;
    /** Transferred out after compute (invalidated + DMA-stored). */
    bool isOutput = false;
    /**
     * In cache mode, data that must be shared with the system goes
     * through the cache; private intermediate data stays in local
     * scratchpads (Section IV-D). Inputs/outputs default to shared.
     */
    bool privateScratch = false;
};

/**
 * A complete dynamic trace. Register (true) dependences are stored
 * flat in compressed-sparse-row form: op i's producers are
 * depIds[depOff[i], depOff[i+1]), so depOff has one entry more than
 * ops.
 */
class Trace
{
  public:
    std::vector<ArrayInfo> arrays;
    std::vector<TraceOp> ops;
    std::vector<std::uint32_t> depOff{0};
    std::vector<NodeId> depIds;
    std::uint32_t numIterations = 0;

    /** Producers of op @p i's inputs, in the order they were given. */
    std::span<const NodeId>
    deps(NodeId i) const
    {
        return {depIds.data() + depOff[i], depOff[i + 1] - depOff[i]};
    }

    std::uint64_t
    totalInputBytes() const
    {
        std::uint64_t total = 0;
        for (const auto &a : arrays)
            if (a.isInput)
                total += a.sizeBytes;
        return total;
    }

    std::uint64_t
    totalOutputBytes() const
    {
        std::uint64_t total = 0;
        for (const auto &a : arrays)
            if (a.isOutput)
                total += a.sizeBytes;
        return total;
    }

    std::uint64_t
    totalArrayBytes() const
    {
        std::uint64_t total = 0;
        for (const auto &a : arrays)
            total += a.sizeBytes;
        return total;
    }

    std::size_t
    countMemoryOps() const
    {
        std::size_t n = 0;
        for (const auto &op : ops)
            if (isMemoryOp(op.op))
                ++n;
        return n;
    }
};

/** The DSL with which workloads emit traces. */
class TraceBuilder
{
  public:
    TraceBuilder() = default;

    /** Register an array; @return its array id. */
    int addArray(const std::string &name, std::uint64_t sizeBytes,
                 unsigned wordBytes, bool isInput, bool isOutput,
                 bool privateScratch = false);

    /** Mark the start of the next loop iteration (work unit). */
    void beginIteration();

    /** Emit a load; @p deps are address-producing ops (for indirect
     * accesses) or previous values. @return the load's node id. */
    NodeId load(int arrayId, Addr offset, unsigned size,
                std::span<const NodeId> deps = {});
    NodeId
    load(int arrayId, Addr offset, unsigned size,
         std::initializer_list<NodeId> deps)
    {
        return load(arrayId, offset, size, std::span(deps));
    }

    /** Emit a store whose value is produced by @p deps. */
    NodeId store(int arrayId, Addr offset, unsigned size,
                 std::span<const NodeId> deps = {});
    NodeId
    store(int arrayId, Addr offset, unsigned size,
          std::initializer_list<NodeId> deps)
    {
        return store(arrayId, offset, size, std::span(deps));
    }

    /** Emit a compute op depending on @p deps. */
    NodeId op(Opcode opcode, std::span<const NodeId> deps = {});
    NodeId
    op(Opcode opcode, std::initializer_list<NodeId> deps)
    {
        return op(opcode, std::span(deps));
    }

    /** Convenience chain: fold @p values with @p opcode pairwise
     * (balanced reduction tree). */
    NodeId reduce(Opcode opcode, std::vector<NodeId> values);

    /** Finish and take the trace. */
    Trace take();

    const Trace &peek() const { return trace; }

  private:
    NodeId emit(TraceOp op, std::span<const NodeId> deps);

    Trace trace;
    std::uint32_t currentIteration = 0;
    bool anyIteration = false;
};

} // namespace genie

#endif // GENIE_ACCEL_TRACE_HH
