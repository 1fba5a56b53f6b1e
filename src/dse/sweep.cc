#include "sweep.hh"

#include <algorithm>
#include <limits>

#include "dse/sweep_engine.hh"
#include "sim/logging.hh"
#include "sim/whole_number.hh"

namespace genie
{

const std::vector<unsigned> &
DesignSpace::laneValues()
{
    static const std::vector<unsigned> v = {1, 2, 4, 8, 16};
    return v;
}

const std::vector<unsigned> &
DesignSpace::partitionValues()
{
    static const std::vector<unsigned> v = {1, 2, 4, 8, 16};
    return v;
}

const std::vector<unsigned> &
DesignSpace::cacheSizeValues()
{
    static const std::vector<unsigned> v = {
        2 * 1024, 4 * 1024, 8 * 1024, 16 * 1024, 32 * 1024,
        64 * 1024};
    return v;
}

const std::vector<unsigned> &
DesignSpace::cacheLineValues()
{
    static const std::vector<unsigned> v = {16, 32, 64};
    return v;
}

const std::vector<unsigned> &
DesignSpace::cachePortValues()
{
    static const std::vector<unsigned> v = {1, 2, 4, 8};
    return v;
}

const std::vector<unsigned> &
DesignSpace::cacheAssocValues()
{
    static const std::vector<unsigned> v = {4, 8};
    return v;
}

std::vector<SocConfig>
DesignSpace::isolated(const SocConfig &base)
{
    std::vector<SocConfig> configs;
    for (unsigned lanes : laneValues()) {
        for (unsigned parts : partitionValues()) {
            SocConfig c = base;
            c.memType = MemInterface::ScratchpadDma;
            c.lanes = lanes;
            c.spadPartitions = parts;
            c.isolated = true;
            configs.push_back(std::move(c));
        }
    }
    return configs;
}

std::vector<SocConfig>
DesignSpace::dma(const SocConfig &base)
{
    std::vector<SocConfig> configs;
    for (unsigned lanes : laneValues()) {
        for (unsigned parts : partitionValues()) {
            SocConfig c = base;
            c.memType = MemInterface::ScratchpadDma;
            c.lanes = lanes;
            c.spadPartitions = parts;
            c.isolated = false;
            c.dma.pipelined = true;
            c.dma.triggeredCompute = true;
            configs.push_back(std::move(c));
        }
    }
    return configs;
}

std::vector<SocConfig>
DesignSpace::dmaOptions(const SocConfig &base)
{
    std::vector<SocConfig> configs;
    for (unsigned lanes : laneValues()) {
        for (unsigned parts : partitionValues()) {
            for (int pipe = 0; pipe <= 1; ++pipe) {
                for (int trig = 0; trig <= 1; ++trig) {
                    SocConfig c = base;
                    c.memType = MemInterface::ScratchpadDma;
                    c.lanes = lanes;
                    c.spadPartitions = parts;
                    c.isolated = false;
                    c.dma.pipelined = pipe != 0;
                    c.dma.triggeredCompute = trig != 0;
                    configs.push_back(std::move(c));
                }
            }
        }
    }
    return configs;
}

std::vector<SocConfig>
DesignSpace::cache(const SocConfig &base)
{
    std::vector<SocConfig> configs;
    for (unsigned lanes : laneValues()) {
        for (unsigned size : cacheSizeValues()) {
            for (unsigned line : cacheLineValues()) {
                for (unsigned ports : cachePortValues()) {
                    for (unsigned assoc : cacheAssocValues()) {
                        SocConfig c = base;
                        c.memType = MemInterface::Cache;
                        c.lanes = lanes;
                        // Private scratchpads (intermediate data)
                        // are co-designed with the datapath: match
                        // their banking to the lane count.
                        c.spadPartitions = lanes;
                        c.isolated = false;
                        c.cache.sizeBytes = size;
                        c.cache.lineBytes = line;
                        c.cache.ports = ports;
                        c.cache.assoc = assoc;
                        configs.push_back(std::move(c));
                    }
                }
            }
        }
    }
    return configs;
}

std::vector<SocConfig>
DesignSpace::acp(const SocConfig &base)
{
    std::vector<SocConfig> configs;
    for (unsigned lanes : laneValues()) {
        for (unsigned parts : partitionValues()) {
            SocConfig c = base;
            c.memType = MemInterface::ScratchpadDma;
            c.iface.memType = IfaceMemType::Acp;
            c.lanes = lanes;
            c.spadPartitions = parts;
            c.isolated = false;
            // The ACP replaces the flush+DMA path entirely, so the
            // DMA-latency optimizations have nothing to optimize.
            c.dma.pipelined = false;
            c.dma.triggeredCompute = false;
            configs.push_back(std::move(c));
        }
    }
    return configs;
}

std::vector<SocConfig>
DesignSpace::iface(const SocConfig &base)
{
    std::vector<SocConfig> configs;
    const CompletionMode modes[] = {CompletionMode::Spin,
                                    CompletionMode::Interrupt};
    for (CompletionMode mode : modes) {
        SocConfig b = base;
        b.iface.completion = mode;
        for (auto &c : dma(b))
            configs.push_back(std::move(c));
        for (auto &c : acp(b))
            configs.push_back(std::move(c));
        // One default-parameter cache design per lane count keeps the
        // hardware-coherent regime on the chart without exploding the
        // point count (the full cache space is DesignSpace::cache).
        for (unsigned lanes : laneValues()) {
            SocConfig c = b;
            c.memType = MemInterface::Cache;
            c.iface.memType = IfaceMemType::Cache;
            c.lanes = lanes;
            c.spadPartitions = lanes;
            c.isolated = false;
            configs.push_back(std::move(c));
        }
    }
    return configs;
}

SocConfig
DesignSpace::isolatedAsCache(const SocConfig &isolated,
                             std::uint64_t workingSetBytes)
{
    SocConfig c = isolated;
    c.memType = MemInterface::Cache;
    c.isolated = false;
    unsigned size = cacheSizeValues().front();
    for (unsigned s : cacheSizeValues()) {
        size = s;
        if (s >= workingSetBytes)
            break;
    }
    c.cache.sizeBytes = size;
    c.cache.lineBytes = 64;
    c.cache.assoc = 4;
    c.cache.ports = std::min(8u, isolated.spadPartitions);
    return c;
}

namespace
{

bool
axisAccepts(const std::vector<unsigned> &allowed, unsigned value)
{
    return allowed.empty() ||
           std::find(allowed.begin(), allowed.end(), value) !=
               allowed.end();
}

bool
axisAcceptsName(const std::vector<std::string> &allowed,
                const char *value)
{
    return allowed.empty() ||
           std::find(allowed.begin(), allowed.end(), value) !=
               allowed.end();
}

/** A config's interface regime for mem_type filtering. */
const char *
regimeName(const SocConfig &c)
{
    if (c.memType == MemInterface::Cache)
        return "cache";
    return c.iface.anyAcp() ? "acp" : "dma";
}

std::vector<std::string>
parseAxisNames(const std::string &axis, const std::string &csv,
               std::initializer_list<const char *> valid)
{
    std::vector<std::string> values;
    std::size_t start = 0;
    while (start <= csv.size()) {
        std::size_t comma = csv.find(',', start);
        std::string item = csv.substr(
            start, comma == std::string::npos ? std::string::npos
                                              : comma - start);
        bool ok = false;
        for (const char *v : valid)
            ok = ok || item == v;
        if (!ok) {
            fatal("filter axis %s: unknown value '%s'", axis.c_str(),
                  item.c_str());
        }
        values.push_back(std::move(item));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return values;
}

std::vector<unsigned>
parseAxisValues(const std::string &axis, const std::string &csv)
{
    std::vector<unsigned> values;
    std::size_t start = 0;
    while (start <= csv.size()) {
        std::size_t comma = csv.find(',', start);
        std::string item = csv.substr(
            start, comma == std::string::npos ? std::string::npos
                                              : comma - start);
        unsigned v = 0;
        if (!parseWholeNumber(item.c_str(), v)) {
            fatal("filter axis %s: expected a whole number from 0 to "
                  "%u, got '%s'",
                  axis.c_str(), std::numeric_limits<unsigned>::max(),
                  item.c_str());
        }
        values.push_back(v);
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return values;
}

} // namespace

bool
SpaceFilter::accepts(const SocConfig &c) const
{
    if (!axisAccepts(lanes, c.lanes) ||
        !axisAccepts(partitions, c.spadPartitions))
        return false;
    if (!axisAcceptsName(memTypes, regimeName(c)) ||
        !axisAcceptsName(completions,
                         completionModeName(c.iface.completion)))
        return false;
    if (c.memType != MemInterface::Cache)
        return true;
    return axisAccepts(cacheKb, c.cache.sizeBytes / 1024) &&
           axisAccepts(cacheLine, c.cache.lineBytes) &&
           axisAccepts(cachePorts, c.cache.ports) &&
           axisAccepts(cacheAssoc, c.cache.assoc);
}

SpaceFilter
SpaceFilter::parse(const std::string &spec)
{
    SpaceFilter f;
    std::vector<std::string> seen;
    std::size_t start = 0;
    while (start < spec.size()) {
        std::size_t semi = spec.find(';', start);
        std::string clause = spec.substr(
            start, semi == std::string::npos ? std::string::npos
                                             : semi - start);
        if (!clause.empty()) {
            std::size_t eq = clause.find('=');
            if (eq == std::string::npos) {
                fatal("filter clause '%s': expected axis=v1,v2,...",
                      clause.c_str());
            }
            std::string axis = clause.substr(0, eq);
            std::string csv = clause.substr(eq + 1);
            if (std::find(seen.begin(), seen.end(), axis) != seen.end())
                fatal("filter axis '%s' is given twice", axis.c_str());
            seen.push_back(axis);
            if (axis == "lanes")
                f.lanes = parseAxisValues(axis, csv);
            else if (axis == "partitions")
                f.partitions = parseAxisValues(axis, csv);
            else if (axis == "cache_kb")
                f.cacheKb = parseAxisValues(axis, csv);
            else if (axis == "cache_line")
                f.cacheLine = parseAxisValues(axis, csv);
            else if (axis == "cache_ports")
                f.cachePorts = parseAxisValues(axis, csv);
            else if (axis == "cache_assoc")
                f.cacheAssoc = parseAxisValues(axis, csv);
            else if (axis == "mem_type")
                f.memTypes = parseAxisNames(axis, csv,
                                            {"dma", "acp", "cache"});
            else if (axis == "completion")
                f.completions = parseAxisNames(axis, csv,
                                               {"spin", "interrupt"});
            else
                fatal("unknown filter axis '%s'", axis.c_str());
        }
        if (semi == std::string::npos)
            break;
        start = semi + 1;
    }
    return f;
}

std::vector<SocConfig>
enumerateSpace(const std::string &space, const SocConfig &base)
{
    if (space == "single")
        return {base};
    if (space == "isolated")
        return DesignSpace::isolated(base);
    if (space == "dma")
        return DesignSpace::dma(base);
    if (space == "fig6" || space == "dma-options")
        return DesignSpace::dmaOptions(base);
    if (space == "cache")
        return DesignSpace::cache(base);
    if (space == "fig8") {
        auto configs = DesignSpace::dma(base);
        auto cacheConfigs = DesignSpace::cache(base);
        configs.insert(configs.end(), cacheConfigs.begin(),
                       cacheConfigs.end());
        return configs;
    }
    if (space == "acp")
        return DesignSpace::acp(base);
    if (space == "iface")
        return DesignSpace::iface(base);
    fatal("unknown space '%s' "
          "(single|isolated|dma|fig6|cache|fig8|acp|iface)",
          space.c_str());
}

std::vector<SocConfig>
filterConfigs(const std::vector<SocConfig> &configs,
              const SpaceFilter &filter)
{
    std::vector<SocConfig> out;
    for (const auto &c : configs) {
        if (filter.accepts(c))
            out.push_back(c);
    }
    return out;
}

std::vector<DesignPoint>
runSweep(const std::vector<SocConfig> &configs, const Trace &trace,
         const Dddg &dddg, unsigned threads)
{
    SweepOptions options;
    options.threads = threads;
    SweepEngine engine(std::move(options));
    return engine.run(configs, trace, dddg);
}

} // namespace genie
