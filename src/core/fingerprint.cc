#include "fingerprint.hh"

#include "sim/logging.hh"

namespace genie
{

std::string
configCanonicalKey(const SocConfig &c)
{
    // Every field here changes simulated results; order is frozen —
    // the result store, the sweep goldens and warm caches depend on
    // keys being stable across releases. New result-affecting knobs
    // are appended only when non-default (the fault-campaign
    // precedent): a default-valued knob simulates identically to a
    // build that predates it, so the old key may keep hitting, while
    // any non-default value produces a key old stores never wrote.
    // Host-side knobs (tracing/metrics sinks) are
    // deliberately absent: they cannot change simulated results, so
    // runs differing only in them must share one key.
    std::string s = format(
        "mem=%s lanes=%u partitions=%u bus=%u "
        "pipelined=%d triggered=%d page=%u setup=%llu window=%u "
        "cache_b=%u cache_line=%u cache_assoc=%u cache_ports=%u "
        "cache_mshrs=%u cache_hit=%llu prefetch=%d "
        "accel_mhz=%llu cpu_mhz=%llu bus_mhz=%llu "
        "tlb_entries=%u tlb_miss=%llu "
        "flush_line=%llu inval_line=%llu cpu_line=%u "
        "cpu_cache=%u cpu_dirty=%d "
        "isolated=%d perfect_mem=%d inf_bw=%d",
        memInterfaceName(c.memType), c.lanes, c.spadPartitions,
        c.busWidthBits, c.dma.pipelined ? 1 : 0,
        c.dma.triggeredCompute ? 1 : 0, c.dma.pageBytes,
        (unsigned long long)c.dma.setupCycles, c.dma.maxOutstanding,
        c.cache.sizeBytes, c.cache.lineBytes, c.cache.assoc,
        c.cache.ports, c.cache.mshrs,
        (unsigned long long)c.cache.hitLatency,
        c.cache.prefetch ? 1 : 0, (unsigned long long)c.accelMhz,
        (unsigned long long)c.cpuMhz, (unsigned long long)c.busMhz,
        c.tlbEntries, (unsigned long long)c.tlbMissLatency,
        (unsigned long long)c.flushPerLine,
        (unsigned long long)c.invalidatePerLine, c.cpuLineBytes,
        c.cpuCacheBytes, c.cpuHoldsDirtyInput ? 1 : 0,
        c.isolated ? 1 : 0, c.perfectMemory ? 1 : 0,
        c.infiniteBandwidth ? 1 : 0);
    // The fault campaign perturbs timing and retries, so it is part
    // of the identity; zero-rate campaigns are byte-identical to
    // fault-free runs and canonicalize to the same key.
    if (c.faults.anyEnabled()) {
        s += format(" fault_seed=%llu fault_rates=%.17g,%.17g,"
                    "%.17g,%.17g,%.17g,%.17g fault_retries=%u "
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
        s += format(" watchdog=%llu",
                    (unsigned long long)c.faults.watchdogCycles);
    }
    // Iface knobs (Genie-Iface) follow the same non-default-only
    // rule: a baseline config keys identically to a pre-iface build.
    if (c.iface.memType == IfaceMemType::Acp)
        s += " mem_type=acp";
    for (const auto &o : c.iface.arrayMemTypes) {
        s += format(" mem_type.%s=%s", o.first.c_str(),
                    ifaceMemTypeName(o.second));
    }
    if (c.iface.completion == CompletionMode::Interrupt) {
        s += format(" completion=interrupt irq_latency=%llu",
                    (unsigned long long)c.iface.irqLatency);
    }
    if (c.iface.queueDepth > 0)
        s += format(" queue_depth=%u", c.iface.queueDepth);
    if (c.iface.invocations != 1)
        s += format(" invocations=%u", c.iface.invocations);
    return s;
}

namespace
{

/** FNV-1a 64, fed bytes or fixed-width little-endian fields. */
class Fnv1a
{
  public:
    void
    bytes(const std::string &s)
    {
        for (unsigned char ch : s) {
            h ^= ch;
            h *= 0x100000001b3ull;
        }
    }

    void
    put(std::uint64_t value, unsigned width)
    {
        for (unsigned i = 0; i < width; ++i) {
            h ^= (value >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }

    std::uint64_t h = 0xcbf29ce484222325ull;
};

} // namespace

std::uint64_t
fnv1a64(const std::string &bytes)
{
    Fnv1a f;
    f.bytes(bytes);
    return f.h;
}

std::uint64_t
configFingerprint(const SocConfig &config)
{
    return fnv1a64(configCanonicalKey(config));
}

std::uint64_t
traceDigest(const Trace &trace)
{
    Fnv1a f;
    f.put(trace.arrays.size(), 8);
    for (const ArrayInfo &a : trace.arrays) {
        f.put(a.name.size(), 8);
        f.bytes(a.name);
        f.put(a.sizeBytes, 8);
        f.put(a.wordBytes, 4);
        f.put(a.isInput ? 1 : 0, 1);
        f.put(a.isOutput ? 1 : 0, 1);
        f.put(a.privateScratch ? 1 : 0, 1);
    }
    f.put(trace.numIterations, 4);
    f.put(trace.ops.size(), 8);
    for (NodeId i = 0; i < trace.ops.size(); ++i) {
        const TraceOp &op = trace.ops[i];
        f.put(static_cast<std::uint8_t>(op.op), 1);
        f.put(static_cast<std::uint16_t>(op.arrayId), 2);
        f.put(op.size, 1);
        f.put(op.iteration, 4);
        f.put(op.offset, 8);
        const auto deps = trace.deps(i);
        f.put(deps.size(), 4);
        for (NodeId dep : deps)
            f.put(dep, 4);
    }
    return f.h;
}

std::string
resultKey(std::uint64_t traceDigest, const SocConfig &config)
{
    return "trace=" + fingerprintHex(traceDigest) + " " +
           configCanonicalKey(config);
}

std::string
fingerprintHex(std::uint64_t fingerprint)
{
    return format("%016llx", (unsigned long long)fingerprint);
}

} // namespace genie
