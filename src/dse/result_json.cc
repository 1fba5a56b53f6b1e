#include "result_json.hh"

#include <limits>
#include <type_traits>

#include "core/fingerprint.hh"
#include "metrics/export.hh"
#include "sim/logging.hh"
#include "sim/whole_number.hh"

namespace genie
{

namespace
{

/**
 * The result fields of a record, in their frozen order, each spelled
 * once: calls @p f(name, member) for every field of @p r. A double
 * member is written as a double; every other member (u64, unsigned,
 * bool) as a whole number.
 */
template <typename Results, typename F>
void
forEachResultField(Results &r, F &&f)
{
    f("total_ticks", r.totalTicks);
    f("accel_cycles", r.accelCycles);
    f("flush_only", r.breakdown.flushOnly);
    f("dma_flush", r.breakdown.dmaFlush);
    f("compute_dma", r.breakdown.computeDma);
    f("compute_only", r.breakdown.computeOnly);
    f("other", r.breakdown.other);
    f("energy_pj", r.energyPj);
    f("dynamic_pj", r.dynamicPj);
    f("leakage_pj", r.leakagePj);
    f("avg_power_mw", r.avgPowerMw);
    f("edp", r.edp);
    f("cache_miss_rate", r.cacheMissRate);
    f("tlb_hit_rate", r.tlbHitRate);
    f("dram_row_hit_rate", r.dramRowHitRate);
    f("bus_utilization", r.busUtilization);
    f("dma_bytes", r.dmaBytes);
    f("spad_conflicts", r.spadConflicts);
    f("ready_bit_stalls", r.readyBitStalls);
    f("cache_to_cache", r.cacheToCacheTransfers);
    f("stalled", r.stalled);
    f("local_sram_bytes", r.localSramBytes);
    f("local_mem_bw", r.localMemBandwidthBytesPerCycle);
    f("lanes", r.lanes);
}

/** Value text after `"name": ` up to the field's closing ',' or
 * '}', or empty when absent or unterminated. */
std::string
fieldText(const std::string &line, const char *name)
{
    std::string needle = format("\"%s\": ", name);
    std::size_t pos = line.find(needle);
    if (pos == std::string::npos)
        return "";
    pos += needle.size();
    std::size_t end = line.find_first_of(",}", pos);
    if (end == std::string::npos)
        return "";
    return line.substr(pos, end - pos);
}

/** A whole number that fits @p out's type (0 or 1 for a bool): a
 * sign, an overflow or junk makes the record unparseable. */
template <typename T>
bool
parseCountField(const std::string &line, const char *name, T &out)
{
    std::uint64_t v = 0;
    if (!parseWholeNumber(fieldText(line, name).c_str(), v) ||
        v > static_cast<std::uint64_t>(std::numeric_limits<T>::max()))
        return false;
    out = static_cast<T>(v);
    return true;
}

bool
parseStringField(const std::string &line, const char *name,
                 std::string &out)
{
    std::string needle = format("\"%s\": \"", name);
    std::size_t pos = line.find(needle);
    if (pos == std::string::npos)
        return false;
    std::size_t begin = pos + needle.size();
    // Result keys are plain `key=value` ASCII — no quotes or
    // escapes — so the closing quote is unambiguous.
    std::size_t end = line.find('"', begin);
    if (end == std::string::npos)
        return false;
    out = line.substr(begin, end - begin);
    return true;
}

} // namespace

std::string
resultsJson(const SocResults &r)
{
    std::string s = "{";
    const char *sep = "";
    forEachResultField(r, [&](const char *name, const auto &v) {
        s += sep;
        sep = ", ";
        if constexpr (std::is_same_v<std::decay_t<decltype(v)>, double>)
            s += format("\"%s\": %s", name, formatStatNumber(v).c_str());
        else
            s += format("\"%s\": %llu", name, (unsigned long long)v);
    });
    s += "}";
    return s;
}

std::string
resultRecordLine(const std::string &key, const SocResults &results)
{
    return format("{\"key\": \"%s\", \"results\": ", key.c_str()) +
           resultsJson(results) + "}";
}

bool
parseResultRecordLine(const std::string &line, std::string &key,
                      SocResults &results)
{
    // A record always closes with the results object's "}}"; a torn
    // line cannot.
    std::size_t end = line.find_last_not_of(" \t\r");
    if (end == std::string::npos || end < 1 ||
        line.compare(end - 1, 2, "}}") != 0)
        return false;

    std::string k;
    if (!parseStringField(line, "key", k))
        return false;
    SocResults r;
    bool ok = true;
    forEachResultField(r, [&](const char *name, auto &v) {
        if constexpr (std::is_same_v<std::decay_t<decltype(v)>, double>)
            ok = ok && parseDecimal(fieldText(line, name).c_str(), v);
        else
            ok = ok && parseCountField(line, name, v);
    });
    if (!ok)
        return false;
    key = std::move(k);
    results = r;
    return true;
}

void
writeSweepResultsJson(std::ostream &os,
                      const std::vector<DesignPoint> &points,
                      const std::string &workload)
{
    os << "{\"schema\": \"genie-sweep-results-1\",\n";
    if (!workload.empty())
        os << "  \"workload\": \"" << workload << "\",\n";
    os << "  \"points\": [\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
        const DesignPoint &p = points[i];
        const std::string key = configCanonicalKey(p.config);
        os << "    {\"fp\": \""
           << fingerprintHex(configFingerprint(p.config))
           << "\", \"key\": \"" << key << "\",\n     \"results\": "
           << resultsJson(p.results) << "}"
           << (i + 1 < points.size() ? ",\n" : "\n");
    }
    os << "  ]\n}\n";
}

} // namespace genie
