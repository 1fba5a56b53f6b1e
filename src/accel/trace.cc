#include "trace.hh"

#include <utility>

#include "sim/logging.hh"

namespace genie
{

int
TraceBuilder::addArray(const std::string &name, std::uint64_t sizeBytes,
                       unsigned wordBytes, bool isInput, bool isOutput,
                       bool privateScratch)
{
    if (sizeBytes == 0 || wordBytes == 0)
        fatal("array '%s' needs non-zero size and word size",
              name.c_str());
    ArrayInfo info;
    info.name = name;
    info.sizeBytes = sizeBytes;
    info.wordBytes = wordBytes;
    info.isInput = isInput;
    info.isOutput = isOutput;
    info.privateScratch = privateScratch;
    trace.arrays.push_back(std::move(info));
    return static_cast<int>(trace.arrays.size() - 1);
}

void
TraceBuilder::beginIteration()
{
    if (anyIteration)
        ++currentIteration;
    anyIteration = true;
    trace.numIterations = currentIteration + 1;
}

NodeId
TraceBuilder::emit(TraceOp op, std::span<const NodeId> deps)
{
    const auto id = static_cast<NodeId>(trace.ops.size());
    for (NodeId d : deps)
        GENIE_ASSERT(d < id, "dependence on future node %u", d);
    op.iteration = currentIteration;
    trace.ops.push_back(op);
    trace.depIds.insert(trace.depIds.end(), deps.begin(), deps.end());
    GENIE_ASSERT(trace.ops.size() < invalidNode &&
                     trace.depIds.size() < invalidNode,
                 "trace too large");
    trace.depOff.push_back(static_cast<std::uint32_t>(trace.depIds.size()));
    return id;
}

NodeId
TraceBuilder::load(int arrayId, Addr offset, unsigned size,
                   std::span<const NodeId> deps)
{
    GENIE_ASSERT(arrayId >= 0 && static_cast<std::size_t>(arrayId) <
                     trace.arrays.size(),
                 "load from unknown array %d", arrayId);
    GENIE_ASSERT(offset + size <=
                     trace.arrays[static_cast<std::size_t>(arrayId)]
                         .sizeBytes,
                 "load out of bounds in array '%s'",
                 trace.arrays[static_cast<std::size_t>(arrayId)]
                     .name.c_str());
    TraceOp op;
    op.op = Opcode::Load;
    op.arrayId = static_cast<std::int16_t>(arrayId);
    op.offset = offset;
    op.size = static_cast<std::uint8_t>(size);
    return emit(op, deps);
}

NodeId
TraceBuilder::store(int arrayId, Addr offset, unsigned size,
                    std::span<const NodeId> deps)
{
    GENIE_ASSERT(arrayId >= 0 && static_cast<std::size_t>(arrayId) <
                     trace.arrays.size(),
                 "store to unknown array %d", arrayId);
    GENIE_ASSERT(offset + size <=
                     trace.arrays[static_cast<std::size_t>(arrayId)]
                         .sizeBytes,
                 "store out of bounds in array '%s'",
                 trace.arrays[static_cast<std::size_t>(arrayId)]
                     .name.c_str());
    TraceOp op;
    op.op = Opcode::Store;
    op.arrayId = static_cast<std::int16_t>(arrayId);
    op.offset = offset;
    op.size = static_cast<std::uint8_t>(size);
    return emit(op, deps);
}

NodeId
TraceBuilder::op(Opcode opcode, std::span<const NodeId> deps)
{
    GENIE_ASSERT(!isMemoryOp(opcode),
                 "use load()/store() for memory ops");
    TraceOp o;
    o.op = opcode;
    return emit(o, deps);
}

NodeId
TraceBuilder::reduce(Opcode opcode, std::vector<NodeId> values)
{
    GENIE_ASSERT(!values.empty(), "reduce of zero values");
    while (values.size() > 1) {
        std::vector<NodeId> next;
        for (std::size_t i = 0; i + 1 < values.size(); i += 2)
            next.push_back(op(opcode, {values[i], values[i + 1]}));
        if (values.size() % 2 == 1)
            next.push_back(values.back());
        values = std::move(next);
    }
    return values[0];
}

Trace
TraceBuilder::take()
{
    Trace t = std::move(trace);
    trace = Trace{};
    currentIteration = 0;
    anyIteration = false;
    return t;
}

} // namespace genie
