#include "result_json.hh"

#include <cmath>
#include <cstdlib>

#include "core/fingerprint.hh"
#include "metrics/export.hh"
#include "sim/logging.hh"
#include "sim/whole_number.hh"

namespace genie
{

namespace
{

std::string
u64Field(const char *name, std::uint64_t v)
{
    return format("\"%s\": %llu", name, (unsigned long long)v);
}

std::string
dblField(const char *name, double v)
{
    return format("\"%s\": %s", name, formatStatNumber(v).c_str());
}

/** Value text after `"name": `, or empty when absent. */
std::string
fieldText(const std::string &line, const char *name)
{
    std::string needle = format("\"%s\": ", name);
    std::size_t pos = line.find(needle);
    if (pos == std::string::npos)
        return "";
    return line.substr(pos + needle.size());
}

/** A whole number that fits 64 bits, ending the field: a sign, an
 * overflow or trailing junk makes the record unparseable. */
bool
parseU64Field(const std::string &line, const char *name,
              std::uint64_t &out)
{
    std::string text = fieldText(line, name);
    std::size_t digits = text.find_first_not_of("0123456789");
    if (digits == std::string::npos ||
        (text[digits] != ',' && text[digits] != '}'))
        return false;
    text.resize(digits);
    return parseWholeNumber(text.c_str(), out);
}

/** A finite decimal number, ending the field: whitespace, nan, inf,
 * an overflow to infinity or trailing junk makes the record
 * unparseable. */
bool
parseDblField(const std::string &line, const char *name, double &out)
{
    std::string text = fieldText(line, name);
    std::size_t stop = text.find_first_not_of("0123456789+-.eE");
    if (stop == 0 || stop == std::string::npos ||
        (text[stop] != ',' && text[stop] != '}'))
        return false;
    text.resize(stop);
    char *end = nullptr;
    out = std::strtod(text.c_str(), &end);
    return end == text.c_str() + text.size() && std::isfinite(out);
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
    s += u64Field("total_ticks", r.totalTicks) + ", ";
    s += u64Field("accel_cycles", r.accelCycles) + ", ";
    s += u64Field("flush_only", r.breakdown.flushOnly) + ", ";
    s += u64Field("dma_flush", r.breakdown.dmaFlush) + ", ";
    s += u64Field("compute_dma", r.breakdown.computeDma) + ", ";
    s += u64Field("compute_only", r.breakdown.computeOnly) + ", ";
    s += u64Field("other", r.breakdown.other) + ", ";
    s += dblField("energy_pj", r.energyPj) + ", ";
    s += dblField("dynamic_pj", r.dynamicPj) + ", ";
    s += dblField("leakage_pj", r.leakagePj) + ", ";
    s += dblField("avg_power_mw", r.avgPowerMw) + ", ";
    s += dblField("edp", r.edp) + ", ";
    s += dblField("cache_miss_rate", r.cacheMissRate) + ", ";
    s += dblField("tlb_hit_rate", r.tlbHitRate) + ", ";
    s += dblField("dram_row_hit_rate", r.dramRowHitRate) + ", ";
    s += dblField("bus_utilization", r.busUtilization) + ", ";
    s += u64Field("dma_bytes", r.dmaBytes) + ", ";
    s += u64Field("spad_conflicts", r.spadConflicts) + ", ";
    s += u64Field("ready_bit_stalls", r.readyBitStalls) + ", ";
    s += u64Field("cache_to_cache", r.cacheToCacheTransfers) + ", ";
    s += u64Field("stalled", r.stalled ? 1 : 0) + ", ";
    s += u64Field("local_sram_bytes", r.localSramBytes) + ", ";
    s += dblField("local_mem_bw", r.localMemBandwidthBytesPerCycle) +
         ", ";
    s += u64Field("lanes", r.lanes);
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
    std::uint64_t stalled = 0;
    bool ok = parseU64Field(line, "total_ticks", r.totalTicks) &&
              parseU64Field(line, "accel_cycles", r.accelCycles) &&
              parseU64Field(line, "flush_only",
                            r.breakdown.flushOnly) &&
              parseU64Field(line, "dma_flush",
                            r.breakdown.dmaFlush) &&
              parseU64Field(line, "compute_dma",
                            r.breakdown.computeDma) &&
              parseU64Field(line, "compute_only",
                            r.breakdown.computeOnly) &&
              parseU64Field(line, "other", r.breakdown.other) &&
              parseDblField(line, "energy_pj", r.energyPj) &&
              parseDblField(line, "dynamic_pj", r.dynamicPj) &&
              parseDblField(line, "leakage_pj", r.leakagePj) &&
              parseDblField(line, "avg_power_mw", r.avgPowerMw) &&
              parseDblField(line, "edp", r.edp) &&
              parseDblField(line, "cache_miss_rate",
                            r.cacheMissRate) &&
              parseDblField(line, "tlb_hit_rate", r.tlbHitRate) &&
              parseDblField(line, "dram_row_hit_rate",
                            r.dramRowHitRate) &&
              parseDblField(line, "bus_utilization",
                            r.busUtilization) &&
              parseU64Field(line, "dma_bytes", r.dmaBytes) &&
              parseU64Field(line, "spad_conflicts",
                            r.spadConflicts) &&
              parseU64Field(line, "ready_bit_stalls",
                            r.readyBitStalls) &&
              parseU64Field(line, "cache_to_cache",
                            r.cacheToCacheTransfers) &&
              parseU64Field(line, "stalled", stalled) &&
              parseU64Field(line, "local_sram_bytes",
                            r.localSramBytes) &&
              parseDblField(line, "local_mem_bw",
                            r.localMemBandwidthBytesPerCycle);
    std::uint64_t lanes = 0;
    ok = ok && parseU64Field(line, "lanes", lanes);
    if (!ok)
        return false;
    r.stalled = stalled != 0;
    r.lanes = static_cast<unsigned>(lanes);
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
