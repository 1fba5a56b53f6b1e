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

#include <sstream>
#include <string>
#include <vector>

#include "accel/dddg.hh"
#include "core/config_parse.hh"
#include "core/report.hh"
#include "core/soc.hh"
#include "golden_lines.hh"
#include "trace/tracer.hh"
#include "workloads/workload.hh"

namespace genie
{
namespace
{

const std::string kGolden = "event_order.txt";

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

/** The golden line for one design point. */
std::string
goldenLine(const char *label, const std::string &workload,
           const SocConfig &cfg)
{
    return hashLine(label, runAndDump(workload, cfg));
}

TEST(EventOrderGolden, PaperDesignPointsMatchGolden)
{
    std::vector<std::string> fresh;
    for (const DesignPointSpec &p : paperPoints) {
        SocConfig cfg = parseConfig(splitOptions(p.options));
        fresh.push_back(goldenLine(p.name, p.workload, cfg));
    }
    expectGolden(kGolden, fresh);
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
    expectGolden(kGolden, fresh);
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
    // DMA-triggered compute invoked twice: ready-bit loads issue again
    // in the second invocation.
    SocConfig trig = parseConfig(splitOptions(
        "mem=dma lanes=4 partitions=4 triggered=1 invocations=2"));
    expectGolden(kGolden,
                 {goldenLine("acp", "stencil-stencil2d", acp),
                  goldenLine("interrupt-queued", "stencil-stencil2d",
                             intr),
                  goldenLine("triggered-twice", "stencil-stencil2d",
                             trig)});
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
    expectGolden(kGolden,
                 {goldenLine("faults", "stencil-stencil2d", cfg)});
}

} // namespace
} // namespace genie
