/**
 * @file
 * Trace serialization.
 *
 * Aladdin's workflow stores dynamic traces in files so that one
 * profiled execution can drive many design-space sweeps. Genie's
 * equivalent is a line-oriented text format:
 *
 *   genie-trace v1
 *   array <name> <sizeBytes> <wordBytes> <in> <out> <private>
 *   iter                          # begins the next iteration
 *   op <opcode> [dep...]          # compute op
 *   ld <arrayId> <offset> <size> [dep...]
 *   st <arrayId> <offset> <size> [dep...]
 *
 * Dependences are node indices (the implicit line order). The format
 * round-trips exactly: writeTrace followed by readTrace reproduces
 * the original Trace.
 */

#ifndef GENIE_ACCEL_TRACE_IO_HH
#define GENIE_ACCEL_TRACE_IO_HH

#include <iosfwd>
#include <string>

#include "accel/trace.hh"

namespace genie
{

/** Serialize @p trace to @p os. */
void writeTrace(std::ostream &os, const Trace &trace);

/** Parse a trace; fatal() on malformed input. */
Trace readTrace(std::istream &is);

/** Parse an opcode mnemonic (fatal() on unknown names). */
Opcode opcodeFromName(const std::string &name);

} // namespace genie

#endif // GENIE_ACCEL_TRACE_IO_HH
