/**
 * @file
 * Event-order golden: a run's full observable output is pinned by a
 * hash, so any change to the order in which the event queue retires
 * events shows up as a mismatch.
 *
 * The queue promises the strict (when, seq) order: events fire by
 * tick, and equal-tick events fire in schedule order. Each design
 * point below is simulated once and its whole observable output — the
 * key=value record, the stats dump of every component, the end tick,
 * the executed-event count and, when tracing, the Chrome JSON
 * timeline — is reduced to a 64-bit FNV-1a hash and a byte length.
 * tests/golden/event_order.txt holds those lines. The points are the
 * six paper design points, plus iface, seeded-fault and traced
 * variants. A mismatch prints the fresh lines; replace the golden's
 * lines with them only for an intentional model change, never for a
 * change to the queue.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "accel/dddg.hh"
#include "core/config_parse.hh"
#include "core/report.hh"
#include "core/soc.hh"
#include "trace/tracer.hh"
#include "workloads/workload.hh"

#ifndef GENIE_GOLDEN_DIR
#error "tests/CMakeLists.txt must define GENIE_GOLDEN_DIR"
#endif

namespace genie
{
namespace
{

const std::string kGolden =
    std::string(GENIE_GOLDEN_DIR) + "/event_order.txt";

/** One pinned design point. */
struct DesignPointSpec
{
    const char *name;
    const char *workload;
    const char *options;
};

/** The six paper design points (Figures 6 and 7 axes over the
 * MachSuite kernels). */
const DesignPointSpec paperPoints[] = {
    {"stencil2d-dma-opt", "stencil-stencil2d",
     "mem=dma lanes=8 partitions=8 pipelined=1 triggered=1"},
    {"gemm-dma-baseline", "gemm-ncubed",
     "mem=dma lanes=4 partitions=4"},
    {"md-knn-cache", "md-knn",
     "mem=cache lanes=4 cache_kb=16 cache_ports=2"},
    {"stencil3d-dma-opt", "stencil-stencil3d",
     "mem=dma lanes=8 partitions=8 pipelined=1 triggered=1"},
    {"spmv-crs-cache", "spmv-crs",
     "mem=cache lanes=4 cache_kb=32 cache_ports=2"},
    {"fft-dma-pipelined", "fft-transpose",
     "mem=dma lanes=8 partitions=8 pipelined=1"},
};

std::vector<std::string>
splitOptions(const char *options)
{
    std::vector<std::string> out;
    std::istringstream iss(options);
    std::string tok;
    while (iss >> tok)
        out.push_back(tok);
    return out;
}

/**
 * Build everything from scratch and run one simulation, returning its
 * full observable output (the test_determinism.cc runAndDump
 * contract).
 */
std::string
runAndDump(const std::string &workload, const SocConfig &cfg)
{
    Trace trace = makeWorkload(workload)->build().trace;
    Dddg dddg(trace);
    Soc soc(cfg, trace, dddg);
    soc.bus().enableProtocolChecker();
    SocResults r = soc.run();

    std::ostringstream os;
    printRecord(os, cfg, r);
    dumpAllStats(os, soc);
    os << "endTick=" << r.totalTicks
       << " accelCycles=" << r.accelCycles
       << " executed=" << soc.eventQueue().numExecuted() << "\n";
    if (const Tracer *tracer = soc.tracer())
        tracer->writeChromeJson(os);

    soc.bus().protocolChecker()->checkQuiescent();
    soc.eventQueue().checkDrained();
    return os.str();
}

std::uint64_t
fnv1a64(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** The golden line for one design point. */
std::string
goldenLine(const char *label, const std::string &workload,
           const SocConfig &cfg)
{
    const std::string dump = runAndDump(workload, cfg);
    char hash[17];
    std::snprintf(hash, sizeof(hash), "%016llx",
                  (unsigned long long)fnv1a64(dump));
    return std::string(label) + " fnv1a64=" + hash +
           " bytes=" + std::to_string(dump.size()) + "\n";
}

/** The golden file's line for @p label. */
std::string
goldenFor(const std::string &label)
{
    std::ifstream in(kGolden);
    EXPECT_TRUE(in.good()) << "missing golden file " << kGolden;
    const std::string prefix = label + ' ';
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind(prefix, 0) == 0)
            return line + "\n";
    }
    return "";
}

/** Compare @p fresh golden lines with the golden file's lines for
 * the same labels. */
void
expectGolden(const std::vector<std::string> &fresh)
{
    std::string got, want;
    for (const std::string &line : fresh) {
        got += line;
        want += goldenFor(line.substr(0, line.find(' ')));
    }
    EXPECT_EQ(got, want) << "fresh lines:\n" << got;
}

TEST(EventOrderGolden, PaperDesignPointsMatchGolden)
{
    std::vector<std::string> fresh;
    for (const DesignPointSpec &p : paperPoints) {
        SocConfig cfg = parseConfig(splitOptions(p.options));
        fresh.push_back(goldenLine(p.name, p.workload, cfg));
    }
    expectGolden(fresh);
}

TEST(EventOrderGolden, TracedRunsMatchGolden)
{
    // With tracing on, the Chrome JSON timeline (event order, tids,
    // interned strings) joins the pinned output, so even same-tick
    // flow handoffs may not reorder.
    std::vector<std::string> fresh;
    for (const auto &[label, p] :
         {std::pair{"traced-stencil2d-dma-opt", paperPoints[0]},
          std::pair{"traced-md-knn-cache", paperPoints[2]}}) {
        SocConfig cfg = parseConfig(splitOptions(p.options));
        cfg.tracing.enabled = true;
        cfg.tracing.categories = allTraceCategories;
        fresh.push_back(goldenLine(label, p.workload, cfg));
    }
    expectGolden(fresh);
}

TEST(EventOrderGolden, IfaceVariantsMatchGolden)
{
    // ACP data movement (heavy same-tick snoop traffic).
    SocConfig acp = parseConfig(splitOptions(
        "mem=dma lanes=4 partitions=4 mem_type=acp"));
    // Interrupt completion through a depth-4 command queue, invoked
    // twice (self-rescheduling doorbell events).
    SocConfig intr = parseConfig(splitOptions(
        "mem=dma lanes=4 partitions=4 completion=interrupt "
        "queue_depth=4 invocations=2"));
    expectGolden({goldenLine("acp", "stencil-stencil2d", acp),
                  goldenLine("interrupt-queued", "stencil-stencil2d",
                             intr)});
}

TEST(EventOrderGolden, SeededFaultRunsMatchGolden)
{
    // Fault injection perturbs timing with retries and backoff; the
    // seeded campaign lands the same faults only if the retirement
    // order (and so the Rng draw order) is unchanged.
    SocConfig cfg = parseConfig(splitOptions(
        "mem=dma lanes=4 partitions=4"));
    cfg.faults.rates[static_cast<unsigned>(FaultSite::DramRead)] =
        0.2;
    cfg.faults.rates[static_cast<unsigned>(FaultSite::BusResp)] = 0.1;
    cfg.faults.seed = 42;
    expectGolden({goldenLine("faults", "stencil-stencil2d", cfg)});
}

} // namespace
} // namespace genie
