#include "scratchpad.hh"

#include "sim/logging.hh"
#include "trace/tracer.hh"

namespace genie
{

Scratchpad::Scratchpad(std::string name, EventQueue &eq,
                       ClockDomain domain)
    : SimObject(std::move(name)), Clocked(eq, domain),
      statReads(stats().add("reads", "scratchpad word reads")),
      statWrites(stats().add("writes", "scratchpad word writes")),
      statConflicts(stats().add("conflicts",
                                "accesses retried due to bank conflicts"))
{
    eq.registerStats(stats());
}

int
Scratchpad::addArray(const ArrayConfig &cfg)
{
    if (cfg.partitions == 0 || cfg.portsPerPartition == 0)
        fatal("scratchpad array '%s' needs >=1 partition and port",
              cfg.name.c_str());
    ArrayState st;
    st.cfg = cfg;
    st.used.assign(cfg.partitions, 0);
    arrays.push_back(std::move(st));
    return static_cast<int>(arrays.size() - 1);
}

std::size_t
Scratchpad::bankOf(int arrayId, Addr offset) const
{
    const ArrayConfig &cfg = arrayConfig(arrayId);
    return static_cast<std::size_t>((offset / cfg.wordBytes) %
                                    cfg.partitions);
}

void
Scratchpad::recordConflicts(std::uint64_t k)
{
    statConflicts += static_cast<double>(k);
    if (Tracer *t = tracerFor(eventq, TraceCategory::Spad)) {
        for (std::uint64_t i = 0; i < k; ++i)
            t->instant(TraceCategory::Spad, name(), "conflict");
    }
}

std::uint64_t
Scratchpad::arrayReads(int arrayId) const
{
    return state(arrayId).reads;
}

std::uint64_t
Scratchpad::arrayWrites(int arrayId) const
{
    return state(arrayId).writes;
}

const Scratchpad::ArrayConfig &
Scratchpad::arrayConfig(int arrayId) const
{
    return state(arrayId).cfg;
}

std::uint64_t
Scratchpad::totalBytes() const
{
    std::uint64_t total = 0;
    for (const auto &a : arrays)
        total += a.cfg.sizeBytes;
    return total;
}

unsigned
Scratchpad::peakAccessesPerCycle() const
{
    unsigned total = 0;
    for (const auto &a : arrays)
        total += a.cfg.partitions * a.cfg.portsPerPartition;
    return total;
}

} // namespace genie
