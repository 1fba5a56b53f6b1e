/**
 * @file
 * The accelerator micro-op vocabulary.
 *
 * Aladdin traces are streams of LLVM IR instructions; Genie's traces
 * use an equivalent small vocabulary of dataflow ops with fixed
 * functional-unit latencies (calibrated to what HLS produces for a
 * 10 ns / 100 MHz accelerator clock, the paper's operating point).
 */

#ifndef GENIE_ACCEL_OPCODE_HH
#define GENIE_ACCEL_OPCODE_HH

#include <cstdint>

#include "power/energy_model.hh"
#include "sim/types.hh"

namespace genie
{

enum class Opcode : std::uint8_t
{
    IntAdd,   ///< integer add/sub
    IntMul,
    IntCmp,   ///< compare/select
    Shift,
    Logic,    ///< and/or/xor
    Index,    ///< address computation (gep)
    Mov,
    FpAdd,    ///< FP add/sub
    FpMul,
    FpDiv,    ///< FP div/sqrt
    Load,
    Store,
    Branch,
    Nop,
};

constexpr bool
isMemoryOp(Opcode op)
{
    return op == Opcode::Load || op == Opcode::Store;
}

constexpr bool
isComputeOp(Opcode op)
{
    return !isMemoryOp(op);
}

/** Functional-unit class used for issue limits and energy lookup. */
constexpr FuKind
fuKindOf(Opcode op)
{
    switch (op) {
      case Opcode::IntAdd:
      case Opcode::IntCmp:
      case Opcode::Shift:
      case Opcode::Logic:
        return FuKind::IntAlu;
      case Opcode::IntMul:
        return FuKind::IntMul;
      case Opcode::FpAdd:
        return FuKind::FpAdd;
      case Opcode::FpMul:
        return FuKind::FpMul;
      case Opcode::FpDiv:
        return FuKind::FpDiv;
      default:
        return FuKind::Other;
    }
}

/** Execution latency in accelerator cycles of an op on a @p kind
 * unit (all pipelined but the divider). */
constexpr Cycles
latencyOf(FuKind kind)
{
    switch (kind) {
      case FuKind::IntMul: return 2;
      case FuKind::FpAdd:  return 3;
      case FuKind::FpMul:  return 4;
      case FuKind::FpDiv:  return 12;
      default:             return 1;
    }
}

/** Execution latency in accelerator cycles (memory ops: 1). */
constexpr Cycles
latencyOf(Opcode op)
{
    return latencyOf(fuKindOf(op));
}

constexpr const char *
opcodeName(Opcode op)
{
    switch (op) {
      case Opcode::IntAdd: return "IntAdd";
      case Opcode::IntMul: return "IntMul";
      case Opcode::IntCmp: return "IntCmp";
      case Opcode::Shift:  return "Shift";
      case Opcode::Logic:  return "Logic";
      case Opcode::Index:  return "Index";
      case Opcode::Mov:    return "Mov";
      case Opcode::FpAdd:  return "FpAdd";
      case Opcode::FpMul:  return "FpMul";
      case Opcode::FpDiv:  return "FpDiv";
      case Opcode::Load:   return "Load";
      case Opcode::Store:  return "Store";
      case Opcode::Branch: return "Branch";
      case Opcode::Nop:    return "Nop";
    }
    return "?";
}

} // namespace genie

#endif // GENIE_ACCEL_OPCODE_HH
