#include "bench.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <map>
#include <utility>

#include "core/fingerprint.hh"
#include "dse/journal.hh"
#include "dse/sweep.hh"
#include "metrics/profiler.hh"
#include "sim/logging.hh"
#include "sim/random.hh"

namespace perfbench
{

using genie::DesignSpace;
using genie::SocConfig;

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"dse-dma", "dse-cache"};
    return names;
}

std::vector<std::string>
workloadKernels(const std::string &workload)
{
    // The DMA-leaning and cache-leaning halves of the paper's Fig. 8
    // kernel order.
    if (workload == "dse-dma")
        return {"aes-aes", "nw-nw", "gemm-ncubed", "stencil-stencil2d"};
    if (workload == "dse-cache")
        return {"stencil-stencil3d", "md-knn", "spmv-crs",
                "fft-transpose"};
    genie::fatal("unknown workload '%s'", workload.c_str());
}

namespace
{

using Stratum = std::array<unsigned, 3>;

/**
 * The stratum key of @p c in @p workload's space. Every axis that moves
 * host cost per point is held per stratum, so the seed only chooses
 * among configs of about equal cost. dse-dma: lanes, partitions and
 * triggered compute (+10%); the seed picks pipelined DMA (within 2%).
 * dse-cache: lanes, size and ports (-13% to +25%); the seed picks line
 * size (within 10%) and associativity (within 0.5%).
 */
Stratum
stratumOf(const std::string &workload, const SocConfig &c)
{
    if (workload == "dse-dma")
        return {c.lanes, c.spadPartitions, c.dma.triggeredCompute ? 1u : 0u};
    return {c.lanes, c.cache.sizeBytes, c.cache.ports};
}

std::vector<SocConfig>
spaceOf(const std::string &workload)
{
    const SocConfig base;
    if (workload == "dse-dma")
        return DesignSpace::dmaOptions(base);
    return DesignSpace::cache(base);
}

} // namespace

std::vector<Point>
generatePoints(const std::string &workload, std::uint64_t seed)
{
    const std::vector<std::string> kernels = workloadKernels(workload);
    const std::vector<SocConfig> space = spaceOf(workload);
    // std::map keeps strata in key order, so the list order depends only
    // on the space, and the draws only on the seed.
    std::map<Stratum, std::vector<const SocConfig *>> strata;
    for (const SocConfig &c : space)
        strata[stratumOf(workload, c)].push_back(&c);

    genie::Rng rng(seed);
    std::vector<Point> points;
    for (const std::string &kernel : kernels) {
        for (const auto &[key, members] : strata) {
            const SocConfig &pick = *members[rng.below(members.size())];
            points.push_back({kernel, pick, genie::configFingerprint(pick)});
        }
    }
    return points;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    std::size_t n = values.size();
    return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double
percentileOf(std::vector<double> values, double percentile)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(percentile / 100.0 * static_cast<double>(values.size())));
    rank = std::clamp<std::size_t>(rank, 1, values.size());
    return values[rank - 1];
}

int
tailPercentile(std::size_t samples)
{
    // Nearest rank of percentile p is ceil(p n / 100); the samples
    // beyond it are n minus that rank.
    for (int p = 99; p >= 1; --p) {
        auto rank = static_cast<std::size_t>(
            std::ceil(p * static_cast<double>(samples) / 100.0));
        if (samples >= rank + 10)
            return p;
    }
    return 0;
}

Tail
tailOf(const std::vector<double> &values)
{
    Tail t;
    t.samples = values.size();
    t.percentile = tailPercentile(values.size());
    if (t.percentile > 0)
        t.value = percentileOf(values, t.percentile);
    return t;
}

std::string
moduleOfKind(const std::string &kind)
{
    static const std::vector<std::pair<std::string, std::string>> prefixes =
        {{"accel.", "accel"},  {"bus.", "mem.bus"},
         {"cache.", "mem.cache"}, {"dram.", "mem.dram"},
         {"tlb.", "mem.tlb"},  {"dma.", "dma"},
         {"flush.", "dma"},    {"cpu.", "cpu"},
         {"iface.", "iface"},  {"soc.", "core"},
         {"watchdog.", "sim"}, {"fault.", "sim"},
         {"metrics.", "sim"},  {"(untagged)", "sim"}};
    for (const auto &[prefix, module] : prefixes) {
        if (kind.compare(0, prefix.size(), prefix) == 0)
            return module;
    }
    return "";
}

const std::vector<std::string> &
moduleNames()
{
    static const std::vector<std::string> names = {
        "accel", "mem.bus", "mem.cache", "mem.dram", "mem.tlb",
        "dma",   "cpu",     "iface",     "core",     "sim"};
    return names;
}

std::string
resultsText(const genie::SocResults &results)
{
    return genie::resultsJson(results);
}

bool
Reference::matches(std::size_t i, const std::string &text)
{
    if (texts[i].empty()) {
        texts[i] = text;
        return true;
    }
    return texts[i] == text;
}

void
Checks::point(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        std::fprintf(stderr, "perfbench: point failed: %s\n", what.c_str());
    }
}

void
Checks::run(bool ok, const std::string &what)
{
    if (!ok) {
        correct = false;
        std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
    }
}

std::int64_t
SpanRecorder::begin(const char *name, std::uint64_t point)
{
    if (!on)
        return -1;
    Span s;
    s.name = name;
    s.parent = open.empty() ? -1 : open.back();
    s.point = point;
    records.push_back(s);
    auto id = static_cast<std::int64_t>(records.size() - 1);
    open.push_back(id);
    // Read the clock last so the bookkeeping above is not timed.
    records.back().startNs = genie::profilerNowNs();
    return id;
}

void
SpanRecorder::end(std::int64_t id)
{
    if (id < 0)
        return;
    records[static_cast<std::size_t>(id)].endNs = genie::profilerNowNs();
    if (!open.empty() && open.back() == id)
        open.pop_back();
}

std::vector<double>
SpanRecorder::durations(const std::string &name,
                        const std::string &parentName) const
{
    std::vector<double> out;
    for (const Span &s : records) {
        if (name != s.name)
            continue;
        if (!parentName.empty() &&
            (s.parent < 0 ||
             parentName != records[static_cast<std::size_t>(s.parent)].name))
            continue;
        out.push_back(s.ms());
    }
    return out;
}

void
SpanRecorder::writeJson(std::ostream &os) const
{
    os << "{\"schema\": \"perfbench-spans-1\", \"spans\": [\n";
    for (std::size_t i = 0; i < records.size(); ++i) {
        const Span &s = records[i];
        os << "  {\"id\": " << i << ", \"name\": \"" << s.name
           << "\", \"parent\": " << s.parent << ", \"point\": " << s.point
           << ", \"start_ns\": "
           << s.startNs << ", \"end_ns\": " << s.endNs << "}"
           << (i + 1 < records.size() ? ",\n" : "\n");
    }
    os << "]}\n";
}

} // namespace perfbench
