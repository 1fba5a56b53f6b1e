/**
 * @file
 * Tests for trace serialization and textual configuration parsing:
 * exact round-trips for every workload trace, malformed-input
 * handling, option parsing, and config option round-trips.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "accel/trace_io.hh"
#include "core/config_parse.hh"
#include "core/report.hh"
#include "core/validation.hh"
#include "sim/logging.hh"
#include "sim/whole_number.hh"
#include "workloads/workload.hh"

namespace genie
{
namespace
{

class TraceIoParamTest : public ::testing::TestWithParam<std::string>
{};

TEST_P(TraceIoParamTest, RoundTripsExactly)
{
    Trace original = makeWorkload(GetParam())->build().trace;

    std::ostringstream os;
    writeTrace(os, original);
    std::istringstream is(os.str());
    Trace copy = readTrace(is);

    ASSERT_EQ(copy.arrays.size(), original.arrays.size());
    for (std::size_t i = 0; i < original.arrays.size(); ++i) {
        EXPECT_EQ(copy.arrays[i].name, original.arrays[i].name);
        EXPECT_EQ(copy.arrays[i].sizeBytes,
                  original.arrays[i].sizeBytes);
        EXPECT_EQ(copy.arrays[i].wordBytes,
                  original.arrays[i].wordBytes);
        EXPECT_EQ(copy.arrays[i].isInput, original.arrays[i].isInput);
        EXPECT_EQ(copy.arrays[i].isOutput,
                  original.arrays[i].isOutput);
        EXPECT_EQ(copy.arrays[i].privateScratch,
                  original.arrays[i].privateScratch);
    }

    ASSERT_EQ(copy.ops.size(), original.ops.size());
    EXPECT_EQ(copy.numIterations, original.numIterations);
    for (std::size_t i = 0; i < original.ops.size(); ++i) {
        const TraceOp &a = original.ops[i];
        const TraceOp &b = copy.ops[i];
        ASSERT_EQ(a.op, b.op) << "op " << i;
        ASSERT_EQ(a.arrayId, b.arrayId) << "op " << i;
        ASSERT_EQ(a.offset, b.offset) << "op " << i;
        ASSERT_EQ(a.size, b.size) << "op " << i;
        ASSERT_EQ(a.iteration, b.iteration) << "op " << i;
    }
    EXPECT_EQ(copy.depOff, original.depOff);
    EXPECT_EQ(copy.depIds, original.depIds);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, TraceIoParamTest,
    ::testing::ValuesIn(workloadNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string n = info.param;
        for (auto &c : n)
            if (c == '-')
                c = '_';
        return n;
    });

TEST(TraceIo, RejectsBadMagic)
{
    std::istringstream is("not a trace\n");
    EXPECT_THROW(readTrace(is), FatalError);
}

TEST(TraceIo, RejectsUnknownRecord)
{
    std::istringstream is("genie-trace v1\nwibble 1 2 3\n");
    EXPECT_THROW(readTrace(is), FatalError);
}

TEST(TraceIo, RejectsOpBeforeIter)
{
    std::istringstream is("genie-trace v1\n"
                          "array a 64 4 1 0 0\n"
                          "op IntAdd\n");
    EXPECT_THROW(readTrace(is), FatalError);
}

TEST(TraceIo, RejectsUnknownOpcode)
{
    std::istringstream is("genie-trace v1\n"
                          "array a 64 4 1 0 0\n"
                          "iter\nop Frobnicate\n");
    EXPECT_THROW(readTrace(is), FatalError);
}

/** The producers of @p trace's op @p i, as a vector. */
std::vector<NodeId>
depsOf(const Trace &trace, NodeId i)
{
    std::span<const NodeId> deps = trace.deps(i);
    return {deps.begin(), deps.end()};
}

/** readTrace() over one 64-byte array, one iteration, then @p body. */
Trace
readSmallTrace(const std::string &body)
{
    std::istringstream is("genie-trace v1\n"
                          "array a 64 4 1 0 0\n"
                          "iter\n" +
                          body);
    return readTrace(is);
}

TEST(TraceIo, RejectsUnknownArrayId)
{
    EXPECT_THROW(readSmallTrace("ld 1 0 4\n"), FatalError);
    EXPECT_THROW(readSmallTrace("st -1 0 4\n"), FatalError);
    // Array ids are 16-bit; a 32769th array would wrap negative.
    std::string many = "genie-trace v1\n";
    for (int i = 0; i <= 32768; ++i)
        many += "array a 4 4 1 0 0\n";
    std::istringstream is(many);
    EXPECT_THROW(readTrace(is), FatalError);
}

TEST(TraceIo, RejectsAccessSizeOutsideOneByte)
{
    EXPECT_THROW(readSmallTrace("ld 0 0 0\n"), FatalError);
    // TraceOp::size is a byte: 256 must not wrap to a 0-byte access.
    EXPECT_THROW(readSmallTrace("ld 0 0 256\n"), FatalError);
    EXPECT_EQ(readSmallTrace("ld 0 0 64\n").ops[0].size, 64u);
}

TEST(TraceIo, RejectsAccessPastArrayEnd)
{
    EXPECT_THROW(readSmallTrace("st 0 62 4\n"), FatalError);
    EXPECT_THROW(readSmallTrace("ld 0 18446744073709551615 4\n"),
                 FatalError);
    EXPECT_EQ(readSmallTrace("ld 0 60 4\n").ops.size(), 1u);
}

TEST(TraceIo, RejectsDependenceOnCurrentOrFutureNode)
{
    EXPECT_THROW(readSmallTrace("op IntAdd 0\n"), FatalError);
    EXPECT_THROW(readSmallTrace("ld 0 0 4\nst 0 4 4 2\n"), FatalError);
    EXPECT_THROW(readSmallTrace("ld 0 0 4\nop IntAdd 0 x\n"), FatalError);
    EXPECT_EQ(depsOf(readSmallTrace("ld 0 0 4\nst 0 4 4 0\n"), 1),
              std::vector<NodeId>{0});
}

TEST(TraceIo, SkipsCommentsAndBlankLines)
{
    std::istringstream is("genie-trace v1\n"
                          "# a comment\n"
                          "array a 64 4 1 1 0\n"
                          "\n"
                          "iter\n"
                          "ld 0 0 4\n"
                          "op IntAdd 0\n"
                          "st 0 4 4 1\n");
    Trace t = readTrace(is);
    EXPECT_EQ(t.ops.size(), 3u);
    EXPECT_EQ(depsOf(t, 2), std::vector<NodeId>{1});
}

TEST(TraceIo, OpcodeNamesRoundTrip)
{
    for (int i = 0; i <= static_cast<int>(Opcode::Nop); ++i) {
        auto op = static_cast<Opcode>(i);
        EXPECT_EQ(opcodeFromName(opcodeName(op)), op);
    }
    EXPECT_THROW(opcodeFromName("NotAnOp"), FatalError);
}

// ---------------------------------------------------------------
// Config parsing.
// ---------------------------------------------------------------

TEST(ConfigParse, ParsesBasicOptions)
{
    SocConfig c = parseConfig({"mem=cache", "lanes=8",
                               "cache_kb=32", "cache_ports=4",
                               "bus=64", "prefetch=0"});
    EXPECT_EQ(c.memType, MemInterface::Cache);
    EXPECT_EQ(c.lanes, 8u);
    EXPECT_EQ(c.cache.sizeBytes, 32u * 1024u);
    EXPECT_EQ(c.cache.ports, 4u);
    EXPECT_EQ(c.busWidthBits, 64u);
    EXPECT_FALSE(c.cache.prefetch);
}

TEST(ConfigParse, ParsesDmaOptions)
{
    SocConfig c = parseConfig(
        {"mem=dma", "partitions=16", "pipelined=1", "triggered=1"});
    EXPECT_EQ(c.memType, MemInterface::ScratchpadDma);
    EXPECT_EQ(c.spadPartitions, 16u);
    EXPECT_TRUE(c.dma.pipelined);
    EXPECT_TRUE(c.dma.triggeredCompute);
}

TEST(ConfigParse, ParsesStudySwitches)
{
    SocConfig c = parseConfig(
        {"isolated=1", "perfect_mem=true", "inf_bw=on"});
    EXPECT_TRUE(c.isolated);
    EXPECT_TRUE(c.perfectMemory);
    EXPECT_TRUE(c.infiniteBandwidth);
}

TEST(ConfigParse, RejectsMalformedInput)
{
    SocConfig c;
    EXPECT_THROW(applyConfigOption(c, "lanes"), FatalError);
    EXPECT_THROW(applyConfigOption(c, "lanes=abc"), FatalError);
    EXPECT_THROW(applyConfigOption(c, "pipelined=maybe"),
                 FatalError);
    EXPECT_THROW(applyConfigOption(c, "mem=tape"), FatalError);
    EXPECT_THROW(applyConfigOption(c, "nonsense=1"), FatalError);
}

TEST(ConfigParse, RejectsNumbersOutsideTheFieldRange)
{
    // lanes is 32-bit and fault_seed 64-bit: a value past the field's
    // range, a sign, trailing junk or nothing at all must be a loud
    // error, never a truncated or wrapped-around value.
    SocConfig c;
    for (const char *bad :
         {"lanes=4294967297", "lanes=-1", "lanes=5x", "lanes=",
          "fault_seed=18446744073709551617", "fault_seed=-1",
          "fault_seed=5x", "fault_seed="}) {
        EXPECT_THROW(applyConfigOption(c, bad), FatalError) << bad;
    }
    applyConfigOption(c, "lanes=4294967295");
    EXPECT_EQ(c.lanes, 4294967295u);
    applyConfigOption(c, "fault_seed=18446744073709551615");
    EXPECT_EQ(c.faults.seed, 18446744073709551615ull);
}

TEST(ConfigParse, RejectsRatesThatAreNotPlainDecimalsInTheUnitRange)
{
    // strtod alone read "nan" as NaN, which passed both range tests,
    // and " 0.5" as 0.5.
    SocConfig c;
    for (const char *bad :
         {"nan", "-nan", "NAN", "inf", "1e999", " 0.5", "0.5 ", "0x0.8",
          "0.5x", "1.5", "-0.1", "", "."}) {
        try {
            applyConfigOption(c, std::string("fault_dram_read=") + bad);
            ADD_FAILURE() << "'" << bad << "' must be rejected";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("fault_dram_read"),
                      std::string::npos)
                << e.what();
        }
    }
    const auto dramRead = static_cast<unsigned>(FaultSite::DramRead);
    for (const auto &[text, rate] :
         {std::pair{"0", 0.0}, std::pair{"1", 1.0},
          std::pair{"0.25", 0.25}, std::pair{"1e-3", 1e-3}}) {
        applyConfigOption(c, std::string("fault_dram_read=") + text);
        EXPECT_EQ(c.faults.rates[dramRead], rate) << text;
    }
}

TEST(ConfigParse, RejectsScaledValuesThatOverflowTheField)
{
    // cache_kb is stored in 32-bit bytes and irq_latency_ns in 64-bit
    // ticks: a value whose scaled form does not fit must be an error
    // naming the key and the value, never a wrapped-around product
    // (cache_kb=4194305 used to run as cache_kb=1).
    SocConfig c;
    for (const char *bad :
         {"cache_kb=4194305", "cache_kb=4194304",
          "irq_latency_ns=18446744073709552",
          "irq_latency_ns=18446744073709551615"}) {
        try {
            applyConfigOption(c, bad);
            ADD_FAILURE() << bad << " must be rejected";
        } catch (const FatalError &e) {
            const std::string option = bad;
            const std::string what = e.what();
            const auto eq = option.find('=');
            EXPECT_NE(what.find(option.substr(0, eq)), std::string::npos)
                << what;
            EXPECT_NE(what.find(option.substr(eq + 1)), std::string::npos)
                << what;
        }
    }
    applyConfigOption(c, "cache_kb=4194303");
    EXPECT_EQ(c.cache.sizeBytes, 4194303u * 1024u);
    applyConfigOption(c, "irq_latency_ns=18446744073709551");
    EXPECT_EQ(c.iface.irqLatency, 18446744073709551000ull);
}

TEST(ConfigParse, OptionsRoundTrip)
{
    SocConfig original = parseConfig(
        {"mem=cache", "lanes=16", "cache_kb=8", "cache_line=32",
         "cache_assoc=8", "cache_ports=2", "bus=64", "prefetch=0",
         "tlb_entries=16"});
    std::string rendered = configToOptions(original);

    // Re-parse the rendered options.
    std::vector<std::string> opts;
    std::istringstream ss(rendered);
    std::string tok;
    while (ss >> tok)
        opts.push_back(tok);
    SocConfig copy = parseConfig(opts);

    EXPECT_EQ(copy.memType, original.memType);
    EXPECT_EQ(copy.lanes, original.lanes);
    EXPECT_EQ(copy.cache.sizeBytes, original.cache.sizeBytes);
    EXPECT_EQ(copy.cache.lineBytes, original.cache.lineBytes);
    EXPECT_EQ(copy.cache.assoc, original.cache.assoc);
    EXPECT_EQ(copy.cache.ports, original.cache.ports);
    EXPECT_EQ(copy.busWidthBits, original.busWidthBits);
    EXPECT_EQ(copy.cache.prefetch, original.cache.prefetch);
    EXPECT_EQ(copy.tlbEntries, original.tlbEntries);
}

// ---------------------------------------------------------------
// Genie-Iface configuration keys.
// ---------------------------------------------------------------

TEST(ConfigParse, ParsesIfaceOptions)
{
    SocConfig c = parseConfig({"mem_type=acp", "completion=interrupt",
                               "irq_latency_ns=500", "queue_depth=8",
                               "invocations=4"});
    EXPECT_EQ(c.memType, MemInterface::ScratchpadDma);
    EXPECT_EQ(c.iface.memType, IfaceMemType::Acp);
    EXPECT_EQ(c.iface.completion, CompletionMode::Interrupt);
    EXPECT_EQ(c.iface.irqLatency, 500 * tickPerNs);
    EXPECT_EQ(c.iface.queueDepth, 8u);
    EXPECT_EQ(c.iface.invocations, 4u);
}

TEST(ConfigParse, MemTypeKeepsBothRegimeFieldsInSync)
{
    SocConfig c = parseConfig({"mem_type=cache"});
    EXPECT_EQ(c.memType, MemInterface::Cache);
    EXPECT_EQ(c.iface.memType, IfaceMemType::Cache);
    c = parseConfig({"mem=cache", "mem_type=dma"}); // latest wins
    EXPECT_EQ(c.memType, MemInterface::ScratchpadDma);
    EXPECT_EQ(c.iface.memType, IfaceMemType::Dma);
}

TEST(ConfigParse, PerArrayOverridesAccumulateAndLatestWins)
{
    SocConfig c = parseConfig(
        {"mem_type.in=acp", "mem_type.out=dma", "mem_type.in=dma"});
    ASSERT_EQ(c.iface.arrayMemTypes.size(), 2u);
    EXPECT_EQ(c.iface.arrayMemTypes[0].first, "in");
    EXPECT_EQ(c.iface.arrayMemTypes[0].second, IfaceMemType::Dma);
    EXPECT_EQ(c.iface.arrayMemTypes[1].first, "out");
    EXPECT_EQ(c.iface.arrayMemTypes[1].second, IfaceMemType::Dma);
}

TEST(ConfigParse, RejectsMalformedIfaceInput)
{
    SocConfig c;
    EXPECT_THROW(applyConfigOption(c, "mem_type=tape"), FatalError);
    EXPECT_THROW(applyConfigOption(c, "mem_type.=acp"), FatalError);
    // Per-array cache is not a thing: cache is whole-accelerator.
    EXPECT_THROW(applyConfigOption(c, "mem_type.in=cache"),
                 FatalError);
    EXPECT_THROW(applyConfigOption(c, "completion=poll"), FatalError);
    EXPECT_THROW(applyConfigOption(c, "queue_depth=abc"), FatalError);
    EXPECT_THROW(applyConfigOption(c, "fault_acp_snoop=1.5"),
                 FatalError);
    EXPECT_THROW(applyConfigOption(c, "fault_irq_drop=-0.1"),
                 FatalError);
}

TEST(ConfigParse, IfaceOptionsRoundTrip)
{
    SocConfig original = parseConfig(
        {"mem_type=acp", "mem_type.filter=dma", "lanes=8",
         "completion=interrupt", "irq_latency_ns=750",
         "queue_depth=16", "invocations=16", "fault_acp_snoop=0.25",
         "fault_irq_drop=0.125"});
    std::string rendered = configToOptions(original);

    std::vector<std::string> opts;
    std::istringstream ss(rendered);
    std::string tok;
    while (ss >> tok)
        opts.push_back(tok);
    SocConfig copy = parseConfig(opts);

    EXPECT_EQ(copy.memType, original.memType);
    EXPECT_EQ(copy.iface.memType, original.iface.memType);
    EXPECT_EQ(copy.iface.arrayMemTypes, original.iface.arrayMemTypes);
    EXPECT_EQ(copy.iface.completion, original.iface.completion);
    EXPECT_EQ(copy.iface.irqLatency, original.iface.irqLatency);
    EXPECT_EQ(copy.iface.queueDepth, original.iface.queueDepth);
    EXPECT_EQ(copy.iface.invocations, original.iface.invocations);
    for (unsigned i = 0; i < numFaultSites; ++i)
        EXPECT_DOUBLE_EQ(copy.faults.rates[i],
                         original.faults.rates[i]);
}

TEST(ConfigParse, DefaultIfaceRendersNoIfaceKeys)
{
    // Zero-cost when unselected: a default config's rendered options
    // must not mention any iface key, so pre-iface goldens and
    // fingerprints are unchanged.
    std::string rendered = configToOptions(SocConfig{});
    EXPECT_EQ(rendered.find("mem_type"), std::string::npos);
    EXPECT_EQ(rendered.find("completion"), std::string::npos);
    EXPECT_EQ(rendered.find("queue_depth"), std::string::npos);
    EXPECT_EQ(rendered.find("invocations"), std::string::npos);
    EXPECT_EQ(rendered.find("irq_latency"), std::string::npos);
}

TEST(ConfigValidation, RejectsContradictoryIfaceConfigs)
{
    SocConfig c = parseConfig({"mem=cache"});
    c.iface.memType = IfaceMemType::Acp; // contradicts mem=cache
    EXPECT_THROW(validateSocConfig(c), FatalError);

    c = parseConfig({"mem=cache", "mem_type.in=acp"});
    EXPECT_THROW(validateSocConfig(c), FatalError);

    c = parseConfig({"invocations=0"});
    EXPECT_THROW(validateSocConfig(c), FatalError);

    c = parseConfig({"queue_depth=2", "invocations=4"});
    EXPECT_THROW(validateSocConfig(c), FatalError);

    c = parseConfig({"completion=interrupt", "irq_latency_ns=0"});
    EXPECT_THROW(validateSocConfig(c), FatalError);
}

TEST(ConfigValidation, RejectsCacheLineTimesAssocBeyond32Bits)
{
    // line * assoc = 2^32 used to wrap to 0 in 32-bit arithmetic, so
    // the divisibility check divided by zero (SIGFPE) instead of
    // failing with a config error.
    SocConfig c = parseConfig(
        {"mem=cache", "cache_line=65536", "cache_assoc=65536"});
    try {
        validateSocConfig(c);
        ADD_FAILURE() << "line * assoc = 2^32 must be rejected";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("config: cache_kb"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ConfigValidation, AcceptsWellFormedIfaceConfigs)
{
    validateSocConfig(parseConfig(
        {"mem_type=acp", "completion=interrupt", "queue_depth=8",
         "invocations=8", "irq_latency_ns=2000"}));
    validateSocConfig(
        parseConfig({"mem_type.in=acp", "mem_type.out=dma"}));
}

TEST(TraceIo, LoadedTraceSimulatesIdentically)
{
    // The trace-file workflow end to end: serialize, re-load, build
    // a fresh DDDG, and simulate — results must be bit-identical.
    Trace original = makeWorkload("spmv-crs")->build().trace;
    std::ostringstream os;
    writeTrace(os, original);
    std::istringstream is(os.str());
    Trace loaded = readTrace(is);

    Dddg dddgOrig(original);
    Dddg dddgLoaded(loaded);
    SocConfig cfg;
    cfg.lanes = 4;
    cfg.spadPartitions = 4;
    cfg.dma.pipelined = true;
    cfg.dma.triggeredCompute = true;

    SocResults a = runDesign(cfg, original, dddgOrig);
    SocResults b = runDesign(cfg, loaded, dddgLoaded);
    EXPECT_EQ(a.totalTicks, b.totalTicks);
    EXPECT_DOUBLE_EQ(a.energyPj, b.energyPj);
    EXPECT_EQ(a.breakdown.computeOnly, b.breakdown.computeOnly);
}

// ---------------------------------------------------------------
// Reporting.
// ---------------------------------------------------------------

struct ReportFixture : public ::testing::Test
{
    ReportFixture()
        : trace(makeWorkload("aes-aes")->build().trace), dddg(trace),
          soc(SocConfig{}, trace, dddg)
    {
        results = soc.run();
    }

    Trace trace;
    Dddg dddg;
    Soc soc;
    SocResults results;
};

TEST_F(ReportFixture, SummaryMentionsKeyFields)
{
    std::ostringstream os;
    printSummary(os, soc.config(), results);
    std::string s = os.str();
    EXPECT_NE(s.find("latency"), std::string::npos);
    EXPECT_NE(s.find("energy"), std::string::npos);
    EXPECT_NE(s.find("EDP"), std::string::npos);
    EXPECT_NE(s.find("dma lanes=4"), std::string::npos);
}

TEST_F(ReportFixture, RecordIsOneParsableLine)
{
    std::ostringstream os;
    printRecord(os, soc.config(), results);
    std::string s = os.str();
    EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 1);
    EXPECT_NE(s.find("total_us="), std::string::npos);
    EXPECT_NE(s.find("edp="), std::string::npos);
    // The config portion round-trips through the parser.
    std::istringstream ss(s);
    std::vector<std::string> opts;
    std::string tok;
    while (ss >> tok && tok.find("total_us=") == std::string::npos)
        opts.push_back(tok);
    SocConfig parsed = parseConfig(opts);
    EXPECT_EQ(parsed.lanes, soc.config().lanes);
}

TEST_F(ReportFixture, StatsDumpCoversComponents)
{
    std::ostringstream os;
    dumpAllStats(os, soc);
    std::string s = os.str();
    EXPECT_NE(s.find("system.bus."), std::string::npos);
    EXPECT_NE(s.find("system.dram."), std::string::npos);
    EXPECT_NE(s.find("system.dma."), std::string::npos);
    EXPECT_NE(s.find("accel.datapath."), std::string::npos);
    EXPECT_NE(s.find("accel.spad."), std::string::npos);
}

TEST(WholeNumber, AcceptsDigitsUpToTheTypeMaximum)
{
    unsigned u = 7;
    EXPECT_TRUE(parseWholeNumber("0", u));
    EXPECT_EQ(u, 0u);
    EXPECT_TRUE(parseWholeNumber("4294967295", u));
    EXPECT_EQ(u, 4294967295u);
    std::uint64_t big = 0;
    EXPECT_TRUE(parseWholeNumber("18446744073709551615", big));
    EXPECT_EQ(big, UINT64_MAX);
}

TEST(WholeNumber, RejectsJunkAndLeavesTheValueAlone)
{
    for (const char *junk : {"", "abc", "5s", "1e6", "-1", "+3", " 4",
                             "4 ", "0x10", "4294967296"}) {
        unsigned u = 7;
        EXPECT_FALSE(parseWholeNumber(junk, u)) << "'" << junk << "'";
        EXPECT_EQ(u, 7u) << "'" << junk << "'";
    }
    std::uint64_t big = 7;
    EXPECT_FALSE(parseWholeNumber("18446744073709551616", big));
    EXPECT_EQ(big, 7u);
}

} // namespace
} // namespace genie
