#include "trace_io.hh"

#include <fstream>
#include <limits>
#include <sstream>
#include <utility>

#include "sim/logging.hh"

namespace genie
{

namespace
{

constexpr const char *magic = "genie-trace v1";

/**
 * Read the dependence list that ends a record. Each must name an
 * earlier node: the trace builder treats anything else as a
 * programming error and aborts.
 */
std::vector<NodeId>
readDeps(std::istringstream &ss, std::size_t lineNo, std::size_t numOps)
{
    std::vector<NodeId> deps;
    NodeId d;
    while (ss >> d) {
        if (d >= numOps)
            fatal("trace line %zu: dependence on node %u, which is not "
                  "earlier than this node (%zu)",
                  lineNo, d, numOps);
        deps.push_back(d);
    }
    if (!ss.eof())
        fatal("trace line %zu: malformed dependence list", lineNo);
    return deps;
}

/** Check a ld/st record against the arrays declared so far. */
void
checkAccess(const Trace &trace, std::size_t lineNo, int arrayId,
            Addr offset, unsigned size)
{
    if (arrayId < 0 ||
        static_cast<std::size_t>(arrayId) >= trace.arrays.size())
        fatal("trace line %zu: unknown array id %d", lineNo, arrayId);
    // TraceOp::size is one byte.
    if (size == 0 || size > 255)
        fatal("trace line %zu: access size %u outside [1, 255]", lineNo,
              size);
    const ArrayInfo &a = trace.arrays[static_cast<std::size_t>(arrayId)];
    if (offset > a.sizeBytes || size > a.sizeBytes - offset)
        fatal("trace line %zu: access [%llu, +%u) outside array '%s' "
              "(%llu bytes)",
              lineNo, (unsigned long long)offset, size, a.name.c_str(),
              (unsigned long long)a.sizeBytes);
}

} // namespace

Opcode
opcodeFromName(const std::string &name)
{
    for (int i = 0; i <= static_cast<int>(Opcode::Nop); ++i) {
        auto op = static_cast<Opcode>(i);
        if (name == opcodeName(op))
            return op;
    }
    fatal("unknown opcode '%s' in trace", name.c_str());
}

void
writeTrace(std::ostream &os, const Trace &trace)
{
    os << magic << '\n';
    for (const auto &a : trace.arrays) {
        os << "array " << a.name << ' ' << a.sizeBytes << ' '
           << a.wordBytes << ' ' << (a.isInput ? 1 : 0) << ' '
           << (a.isOutput ? 1 : 0) << ' '
           << (a.privateScratch ? 1 : 0) << '\n';
    }
    std::uint32_t nextIter = 0;
    for (const auto &op : trace.ops) {
        while (nextIter <= op.iteration) {
            os << "iter\n";
            ++nextIter;
        }
        if (isMemoryOp(op.op)) {
            os << (op.op == Opcode::Load ? "ld " : "st ")
               << op.arrayId << ' ' << op.offset << ' '
               << static_cast<unsigned>(op.size);
        } else {
            os << "op " << opcodeName(op.op);
        }
        for (NodeId d : op.deps)
            os << ' ' << d;
        os << '\n';
    }
}

Trace
readTrace(std::istream &is)
{
    std::string line;
    if (!std::getline(is, line) || line != magic)
        fatal("not a genie trace (bad magic '%s')", line.c_str());

    TraceBuilder tb;
    bool sawIter = false;
    std::size_t lineNo = 1;
    while (std::getline(is, line)) {
        ++lineNo;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ss(line);
        std::string kind;
        ss >> kind;
        if (kind == "array") {
            std::string name;
            std::uint64_t size = 0;
            unsigned word = 0;
            int in = 0, outFlag = 0, priv = 0;
            ss >> name >> size >> word >> in >> outFlag >> priv;
            if (ss.fail())
                fatal("trace line %zu: malformed array", lineNo);
            // TraceOp::arrayId is 16-bit.
            if (tb.peek().arrays.size() >
                std::size_t(std::numeric_limits<std::int16_t>::max()))
                fatal("trace line %zu: too many arrays", lineNo);
            tb.addArray(name, size, word, in != 0, outFlag != 0,
                        priv != 0);
        } else if (kind == "iter") {
            tb.beginIteration();
            sawIter = true;
        } else if (kind == "op") {
            if (!sawIter)
                fatal("trace line %zu: op before first iter", lineNo);
            std::string mnemonic;
            ss >> mnemonic;
            Opcode opcode = opcodeFromName(mnemonic);
            if (isMemoryOp(opcode))
                fatal("trace line %zu: '%s' needs an ld/st record",
                      lineNo, mnemonic.c_str());
            tb.op(opcode, readDeps(ss, lineNo, tb.peek().ops.size()));
        } else if (kind == "ld" || kind == "st") {
            if (!sawIter)
                fatal("trace line %zu: access before first iter",
                      lineNo);
            int arrayId = -1;
            Addr offset = 0;
            unsigned size = 0;
            ss >> arrayId >> offset >> size;
            if (ss.fail())
                fatal("trace line %zu: malformed access", lineNo);
            checkAccess(tb.peek(), lineNo, arrayId, offset, size);
            std::vector<NodeId> deps =
                readDeps(ss, lineNo, tb.peek().ops.size());
            if (kind == "ld")
                tb.load(arrayId, offset, size, std::move(deps));
            else
                tb.store(arrayId, offset, size, std::move(deps));
        } else {
            fatal("trace line %zu: unknown record '%s'", lineNo,
                  kind.c_str());
        }
    }
    return tb.take();
}

void
saveTrace(const std::string &path, const Trace &trace)
{
    std::ofstream os(path);
    if (!os)
        fatal("cannot open '%s' for writing", path.c_str());
    writeTrace(os, trace);
}

Trace
loadTrace(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        fatal("cannot open '%s'", path.c_str());
    return readTrace(is);
}

} // namespace genie
