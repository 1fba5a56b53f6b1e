#include "config_parse.hh"

#include <limits>

#include "sim/logging.hh"
#include "sim/whole_number.hh"

namespace genie
{

namespace
{

bool
parseBool(const std::string &key, const std::string &value)
{
    if (value == "1" || value == "true" || value == "on")
        return true;
    if (value == "0" || value == "false" || value == "off")
        return false;
    fatal("option %s: expected a boolean, got '%s'", key.c_str(),
          value.c_str());
}

/** @p value as a whole decimal number that fits T; anything else —
 * a sign, junk, an empty string, or a value past T's range — is fatal
 * rather than silently truncated. */
template <std::unsigned_integral T = unsigned>
T
parseUnsigned(const std::string &key, const std::string &value)
{
    T v = 0;
    if (!parseWholeNumber(value.c_str(), v))
        fatal("option %s: expected a whole number from 0 to %s, got "
              "'%s'",
              key.c_str(),
              std::to_string(std::numeric_limits<T>::max()).c_str(),
              value.c_str());
    return v;
}

/** @p value, parsed as parseUnsigned<T>, times @p scale. A value
 * whose product would not fit T is fatal, naming the key and the
 * value, instead of wrapping around to a small number. */
template <std::unsigned_integral T>
T
parseScaled(const std::string &key, const std::string &value, T scale)
{
    const T v = parseUnsigned<T>(key, value);
    if (v > std::numeric_limits<T>::max() / scale)
        fatal("option %s: %s is too large (at most %s)", key.c_str(),
              value.c_str(),
              std::to_string(std::numeric_limits<T>::max() / scale)
                  .c_str());
    return v * scale;
}

double
parseRate(const std::string &key, const std::string &value)
{
    double v = 0.0;
    if (!parseDecimal(value.c_str(), v))
        fatal("option %s: expected a probability, got '%s'",
              key.c_str(), value.c_str());
    if (v < 0.0 || v > 1.0)
        fatal("option %s: probability %g outside [0, 1]", key.c_str(),
              v);
    return v;
}

} // namespace

void
applyConfigOption(SocConfig &config, const std::string &option)
{
    auto eq = option.find('=');
    if (eq == std::string::npos)
        fatal("malformed option '%s' (expected key=value)",
              option.c_str());
    std::string key = option.substr(0, eq);
    std::string value = option.substr(eq + 1);

    if (key == "mem") {
        if (value == "dma") {
            config.memType = MemInterface::ScratchpadDma;
            config.iface.memType = IfaceMemType::Dma;
        } else if (value == "cache") {
            config.memType = MemInterface::Cache;
            config.iface.memType = IfaceMemType::Cache;
        } else {
            fatal("option mem: expected dma|cache, got '%s'",
                  value.c_str());
        }
    } else if (key == "mem_type") {
        // Superset of mem= that adds the ACP regime; both keys keep
        // memType and iface.memType in sync (latest wins).
        if (value == "dma") {
            config.memType = MemInterface::ScratchpadDma;
            config.iface.memType = IfaceMemType::Dma;
        } else if (value == "acp") {
            config.memType = MemInterface::ScratchpadDma;
            config.iface.memType = IfaceMemType::Acp;
        } else if (value == "cache") {
            config.memType = MemInterface::Cache;
            config.iface.memType = IfaceMemType::Cache;
        } else {
            fatal("option mem_type: expected dma|acp|cache, got '%s'",
                  value.c_str());
        }
    } else if (key.rfind("mem_type.", 0) == 0) {
        std::string arrayName = key.substr(9);
        if (arrayName.empty())
            fatal("option mem_type.: missing array name (expected "
                  "mem_type.<array>=dma|acp)");
        IfaceMemType t;
        if (value == "dma")
            t = IfaceMemType::Dma;
        else if (value == "acp")
            t = IfaceMemType::Acp;
        else
            fatal("option %s: expected dma|acp per array (cache is a "
                  "whole-accelerator regime), got '%s'",
                  key.c_str(), value.c_str());
        // Latest override for one array wins.
        bool replaced = false;
        for (auto &o : config.iface.arrayMemTypes) {
            if (o.first == arrayName) {
                o.second = t;
                replaced = true;
                break;
            }
        }
        if (!replaced)
            config.iface.arrayMemTypes.emplace_back(arrayName, t);
    } else if (key == "completion") {
        if (value == "spin")
            config.iface.completion = CompletionMode::Spin;
        else if (value == "interrupt")
            config.iface.completion = CompletionMode::Interrupt;
        else
            fatal("option completion: expected spin|interrupt, got "
                  "'%s'",
                  value.c_str());
    } else if (key == "queue_depth") {
        config.iface.queueDepth = parseUnsigned(key, value);
    } else if (key == "invocations") {
        config.iface.invocations = parseUnsigned(key, value);
    } else if (key == "irq_latency_ns") {
        config.iface.irqLatency = parseScaled(key, value, tickPerNs);
    } else if (key == "lanes") {
        config.lanes = parseUnsigned(key, value);
    } else if (key == "partitions") {
        config.spadPartitions = parseUnsigned(key, value);
    } else if (key == "bus") {
        config.busWidthBits = parseUnsigned(key, value);
    } else if (key == "pipelined") {
        config.dma.pipelined = parseBool(key, value);
    } else if (key == "triggered") {
        config.dma.triggeredCompute = parseBool(key, value);
    } else if (key == "cache_kb") {
        config.cache.sizeBytes = parseScaled(key, value, 1024u);
    } else if (key == "cache_line") {
        config.cache.lineBytes = parseUnsigned(key, value);
    } else if (key == "cache_assoc") {
        config.cache.assoc = parseUnsigned(key, value);
    } else if (key == "cache_ports") {
        config.cache.ports = parseUnsigned(key, value);
    } else if (key == "cache_mshrs") {
        config.cache.mshrs = parseUnsigned(key, value);
    } else if (key == "prefetch") {
        config.cache.prefetch = parseBool(key, value);
    } else if (key == "tlb_entries") {
        config.tlbEntries = parseUnsigned(key, value);
    } else if (key == "isolated") {
        config.isolated = parseBool(key, value);
    } else if (key == "perfect_mem") {
        config.perfectMemory = parseBool(key, value);
    } else if (key == "inf_bw") {
        config.infiniteBandwidth = parseBool(key, value);
    } else if (key == "accel_mhz") {
        config.accelMhz = parseUnsigned(key, value);
    } else if (key == "cpu_mhz") {
        config.cpuMhz = parseUnsigned(key, value);
    } else if (key == "bus_mhz") {
        config.busMhz = parseUnsigned(key, value);
    } else if (key == "trace") {
        config.tracing.enabled = parseBool(key, value);
    } else if (key == "trace_out") {
        config.tracing.outPath = value;
        config.tracing.enabled = true;
    } else if (key == "trace_categories") {
        config.tracing.categories = parseTraceCategories(value);
    } else if (key == "sample_period") {
        config.metrics.samplePeriod = parseUnsigned(key, value);
    } else if (key == "sample_capacity") {
        config.metrics.sampleCapacity = parseUnsigned(key, value);
    } else if (key == "stats_json") {
        config.metrics.statsJsonPath = value;
    } else if (key == "stats_csv") {
        config.metrics.statsCsvPath = value;
    } else if (key == "samples_json") {
        config.metrics.samplesJsonPath = value;
    } else if (key == "samples_csv") {
        config.metrics.samplesCsvPath = value;
    } else if (key == "fault_seed") {
        config.faults.seed = parseUnsigned<std::uint64_t>(key, value);
    } else if (key == "fault_dram_read") {
        config.faults.rates[static_cast<unsigned>(
            FaultSite::DramRead)] = parseRate(key, value);
    } else if (key == "fault_bus_resp") {
        config.faults.rates[static_cast<unsigned>(
            FaultSite::BusResp)] = parseRate(key, value);
    } else if (key == "fault_dma_beat") {
        config.faults.rates[static_cast<unsigned>(
            FaultSite::DmaBeat)] = parseRate(key, value);
    } else if (key == "fault_tlb_walk") {
        config.faults.rates[static_cast<unsigned>(
            FaultSite::TlbWalk)] = parseRate(key, value);
    } else if (key == "fault_acp_snoop") {
        config.faults.rates[static_cast<unsigned>(
            FaultSite::AcpSnoop)] = parseRate(key, value);
    } else if (key == "fault_irq_drop") {
        config.faults.rates[static_cast<unsigned>(
            FaultSite::IrqDrop)] = parseRate(key, value);
    } else if (key == "fault_max_retries") {
        config.faults.maxRetries = parseUnsigned(key, value);
    } else if (key == "fault_backoff") {
        config.faults.backoffCycles = parseUnsigned(key, value);
    } else if (key == "watchdog_interval") {
        config.faults.watchdogCycles =
            parseUnsigned<std::uint64_t>(key, value);
    } else {
        fatal("unknown option '%s'", key.c_str());
    }
}

SocConfig
parseConfig(const std::vector<std::string> &options)
{
    SocConfig config;
    for (const auto &opt : options)
        applyConfigOption(config, opt);
    return config;
}

std::string
configToOptions(const SocConfig &c)
{
    std::string s = format(
        "mem=%s lanes=%u partitions=%u bus=%u pipelined=%d "
        "triggered=%d cache_kb=%u cache_line=%u cache_assoc=%u "
        "cache_ports=%u cache_mshrs=%u prefetch=%d tlb_entries=%u "
        "isolated=%d perfect_mem=%d inf_bw=%d accel_mhz=%u "
        "cpu_mhz=%u bus_mhz=%u",
        memInterfaceName(c.memType), c.lanes, c.spadPartitions,
        c.busWidthBits, c.dma.pipelined ? 1 : 0,
        c.dma.triggeredCompute ? 1 : 0, c.cache.sizeBytes / 1024,
        c.cache.lineBytes, c.cache.assoc, c.cache.ports,
        c.cache.mshrs, c.cache.prefetch ? 1 : 0, c.tlbEntries,
        c.isolated ? 1 : 0, c.perfectMemory ? 1 : 0,
        c.infiniteBandwidth ? 1 : 0,
        static_cast<unsigned>(c.accelMhz),
        static_cast<unsigned>(c.cpuMhz),
        static_cast<unsigned>(c.busMhz));
    // Iface keys render only when non-default, so a baseline config's
    // options (and the canonical keys/goldens derived from them) are
    // byte-identical to a pre-iface build. mem= already encodes the
    // dma/cache regimes; acp is the only global mem_type to render.
    if (c.iface.memType == IfaceMemType::Acp)
        s += " mem_type=acp";
    for (const auto &o : c.iface.arrayMemTypes) {
        s += format(" mem_type.%s=%s", o.first.c_str(),
                    ifaceMemTypeName(o.second));
    }
    if (c.iface.completion == CompletionMode::Interrupt)
        s += " completion=interrupt";
    if (c.iface.queueDepth > 0)
        s += format(" queue_depth=%u", c.iface.queueDepth);
    if (c.iface.invocations != 1)
        s += format(" invocations=%u", c.iface.invocations);
    if (c.iface.irqLatency != 1000 * tickPerNs) {
        s += format(" irq_latency_ns=%llu",
                    (unsigned long long)(c.iface.irqLatency /
                                         tickPerNs));
    }
    if (c.tracing.enabled) {
        s += format(" trace=1 trace_categories=%s",
                    traceCategoriesToString(c.tracing.categories)
                        .c_str());
        if (!c.tracing.outPath.empty())
            s += format(" trace_out=%s", c.tracing.outPath.c_str());
    }
    if (c.metrics.samplePeriod > 0) {
        s += format(" sample_period=%llu",
                    (unsigned long long)c.metrics.samplePeriod);
    }
    if (!c.metrics.statsJsonPath.empty())
        s += format(" stats_json=%s", c.metrics.statsJsonPath.c_str());
    if (!c.metrics.statsCsvPath.empty())
        s += format(" stats_csv=%s", c.metrics.statsCsvPath.c_str());
    if (!c.metrics.samplesJsonPath.empty()) {
        s += format(" samples_json=%s",
                    c.metrics.samplesJsonPath.c_str());
    }
    if (!c.metrics.samplesCsvPath.empty()) {
        s += format(" samples_csv=%s",
                    c.metrics.samplesCsvPath.c_str());
    }
    if (c.faults.anyEnabled()) {
        // %.17g round-trips any double exactly, so re-parsing the
        // rendered options reproduces the campaign bit-for-bit.
        s += format(" fault_seed=%llu fault_dram_read=%.17g "
                    "fault_bus_resp=%.17g fault_dma_beat=%.17g "
                    "fault_tlb_walk=%.17g fault_acp_snoop=%.17g "
                    "fault_irq_drop=%.17g fault_max_retries=%u "
                    "fault_backoff=%u",
                    (unsigned long long)c.faults.seed,
                    c.faults.rate(FaultSite::DramRead),
                    c.faults.rate(FaultSite::BusResp),
                    c.faults.rate(FaultSite::DmaBeat),
                    c.faults.rate(FaultSite::TlbWalk),
                    c.faults.rate(FaultSite::AcpSnoop),
                    c.faults.rate(FaultSite::IrqDrop),
                    c.faults.maxRetries, c.faults.backoffCycles);
    }
    if (c.faults.watchdogCycles > 0) {
        s += format(" watchdog_interval=%llu",
                    (unsigned long long)c.faults.watchdogCycles);
    }
    return s;
}

} // namespace genie
