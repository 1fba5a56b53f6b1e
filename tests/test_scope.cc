/**
 * @file
 * Genie-Scope tests: the span-DAG/critical-path analysis library and
 * the cross-run tooling it feeds.
 *
 * Five layers:
 *  - the JSON reader in isolation (shape, lexeme preservation,
 *    position-annotated errors);
 *  - glob rules and tolerance-aware diffing (genie_diff semantics:
 *    removed fails, added warns, first matching rule wins);
 *  - flow well-formedness under a full traced SoC run (every flow
 *    link joins two closed spans, from < to, at most one causal
 *    predecessor per span — the DAG invariant criticalPath() rests
 *    on), plus the passivity guarantee: flows enabled changes no
 *    simulated result byte;
 *  - blame determinism: byte-identical reports across repeated runs
 *    and across runs executed on different host threads, and the
 *    >= 95% coverage bar on the paper's Fig. 5 stencil design point;
 *  - the blame golden: tests/golden/blame.txt pins, by hash and byte
 *    length, the run report and every BlameReport field of the six
 *    paper design points, and the sweep report of CI's reduced Fig. 6
 *    stencil2d space. A mismatch prints the fresh lines; replace the
 *    golden's lines with them only for an intentional change to what
 *    blame reports, never for a change to how it is computed.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "accel/dddg.hh"
#include "core/config_parse.hh"
#include "core/report.hh"
#include "core/soc.hh"
#include "dse/sweep.hh"
#include "golden_lines.hh"
#include "scope/diff.hh"
#include "scope/json.hh"
#include "scope/report.hh"
#include "scope/span_dag.hh"
#include "trace/tracer.hh"
#include "workloads/workload.hh"

namespace genie
{
namespace
{

// --- JSON reader ----------------------------------------------------

TEST(ScopeJson, ParsesScalarsContainersAndEscapes)
{
    auto r = parseJson(R"({
        "s": "a\tbA\"q\"",
        "n": -12.5e2,
        "t": true,
        "z": null,
        "arr": [1, 2, 3],
        "obj": {"k": 0.25}
    })");
    ASSERT_TRUE(r.ok) << r.error;
    const JsonValue &v = r.value;
    ASSERT_TRUE(v.isObject());
    EXPECT_EQ(v.get("s")->string(), "a\tbA\"q\"");
    EXPECT_DOUBLE_EQ(v.get("n")->number(), -1250.0);
    EXPECT_EQ(v.get("n")->numberLexeme(), "-12.5e2");
    EXPECT_TRUE(v.get("t")->boolean());
    EXPECT_TRUE(v.get("z")->isNull());
    ASSERT_EQ(v.get("arr")->array().size(), 3u);
    EXPECT_DOUBLE_EQ(v.get("arr")->array()[2].number(), 3.0);
    EXPECT_DOUBLE_EQ(v.get("obj")->get("k")->number(), 0.25);
    EXPECT_EQ(v.get("missing"), nullptr);
}

TEST(ScopeJson, MembersKeepFileOrderAndLastDuplicateWins)
{
    auto r = parseJson(R"({"b": 1, "a": 2, "b": 3})");
    ASSERT_TRUE(r.ok) << r.error;
    const JsonMembers &m = r.value.members();
    ASSERT_EQ(m.size(), 3u);
    EXPECT_EQ(m[0].first, "b");
    EXPECT_EQ(m[1].first, "a");
    EXPECT_DOUBLE_EQ(r.value.get("b")->number(), 3.0);
}

TEST(ScopeJson, ErrorsCarryPositionAndRejectTrailingJunk)
{
    auto bad = parseJson("{\n  \"k\": nul\n}");
    EXPECT_FALSE(bad.ok);
    EXPECT_EQ(bad.errorLine, 2u);

    auto junk = parseJson("{} trailing");
    EXPECT_FALSE(junk.ok);

    auto badEscape = parseJson(R"({"k": "\q"})");
    EXPECT_FALSE(badEscape.ok);

    auto badNumber = parseJson(R"({"k": 1.})");
    EXPECT_FALSE(badNumber.ok);

    auto io = parseJsonFile("/nonexistent/genie-scope.json");
    EXPECT_FALSE(io.ok);
    EXPECT_FALSE(io.error.empty());
}

// --- glob rules and diffing -----------------------------------------

TEST(ScopeDiff, GlobMatchesAcrossDotsAndSingleChars)
{
    EXPECT_TRUE(globMatch("*", "anything.at.all"));
    EXPECT_TRUE(globMatch("*wall_ms*", "sweep.wall_ms"));
    EXPECT_TRUE(globMatch("benches[*].sim.total_us",
                          "benches[3].sim.total_us"));
    EXPECT_TRUE(globMatch("?.x", "a.x"));
    EXPECT_FALSE(globMatch("?.x", "ab.x"));
    EXPECT_FALSE(globMatch("*.host.*", "hostless"));
}

TEST(ScopeDiff, ParsesCliRuleSpecs)
{
    DiffRule rule;
    std::string err;
    ASSERT_TRUE(parseDiffRule("benches[*].meps=5%", rule, err));
    EXPECT_EQ(rule.glob, "benches[*].meps");
    EXPECT_FALSE(rule.ignore);
    EXPECT_DOUBLE_EQ(rule.tolerancePct, 5.0);

    ASSERT_TRUE(parseDiffRule("*wall_ms*=ignore", rule, err));
    EXPECT_TRUE(rule.ignore);

    EXPECT_FALSE(parseDiffRule("no-equals-sign", rule, err));
    EXPECT_FALSE(err.empty());
    EXPECT_FALSE(parseDiffRule("glob=not-a-number", rule, err));
}

JsonValue
parsed(const std::string &text)
{
    auto r = parseJson(text);
    EXPECT_TRUE(r.ok) << r.error;
    return r.value;
}

TEST(ScopeDiff, RemovedFailsAddedWarnsAndStrictPromotes)
{
    JsonValue a = parsed(R"({"kept": 1, "gone": 2})");
    JsonValue b = parsed(R"({"kept": 1, "fresh": 3})");

    DiffOptions opts;
    DiffResult r = diffJson(a, b, opts);
    EXPECT_FALSE(r.clean());
    ASSERT_EQ(r.failures.size(), 1u);
    EXPECT_EQ(r.failures[0].kind, DiffKind::Removed);
    EXPECT_EQ(r.failures[0].path, "gone");
    ASSERT_EQ(r.warnings.size(), 1u);
    EXPECT_EQ(r.warnings[0].kind, DiffKind::Added);
    EXPECT_EQ(r.warnings[0].path, "fresh");

    opts.strict = true;
    DiffResult strict = diffJson(a, b, opts);
    EXPECT_EQ(strict.failures.size(), 2u);
    EXPECT_TRUE(strict.warnings.empty());
}

TEST(ScopeDiff, ToleranceAndIgnoreRulesJudgeByFirstMatch)
{
    JsonValue a = parsed(
        R"({"sim": {"total_us": 100.0}, "host": {"wall_ms": 5.0}})");
    JsonValue b = parsed(
        R"({"sim": {"total_us": 101.0}, "host": {"wall_ms": 9.0}})");

    DiffOptions opts;
    opts.rules.push_back({"*wall_ms*", true, 0.0});
    opts.rules.push_back({"sim.*", false, 2.0});

    DiffResult r = diffJson(a, b, opts);
    EXPECT_TRUE(r.clean());
    ASSERT_EQ(r.tolerated.size(), 1u);
    EXPECT_EQ(r.tolerated[0].path, "sim.total_us");
    EXPECT_NEAR(r.tolerated[0].relDeltaPct, 100.0 / 101.0, 0.01);
    EXPECT_EQ(r.ignoredLeaves, 1u);
    EXPECT_EQ(r.comparedLeaves, 1u);

    // A tighter first rule wins over the permissive later one.
    opts.rules.insert(opts.rules.begin(), {"sim.total_us", false, 0.0});
    DiffResult exact = diffJson(a, b, opts);
    ASSERT_EQ(exact.failures.size(), 1u);
    EXPECT_EQ(exact.failures[0].kind, DiffKind::Changed);
}

TEST(ScopeDiff, TypeChangesFailAndDefaultRulesDropHostTime)
{
    JsonValue a = parsed(R"({"v": 1})");
    JsonValue b = parsed(R"({"v": "1"})");
    DiffResult r = diffJson(a, b, DiffOptions{});
    ASSERT_EQ(r.failures.size(), 1u);
    EXPECT_EQ(r.failures[0].kind, DiffKind::TypeChanged);

    DiffOptions opts;
    opts.rules = defaultGenieDiffRules();
    JsonValue base = parsed(R"({"wall_ms": 5.0, "meps": 2.0,
                                "events": 100})");
    JsonValue cand = parsed(R"({"wall_ms": 50.0, "meps": 7.0,
                                "events": 100})");
    DiffResult host = diffJson(base, cand, opts);
    EXPECT_TRUE(host.clean());
    EXPECT_EQ(host.ignoredLeaves, 2u);

    std::string report = renderDiffReport(host, "base", "cand");
    EXPECT_NE(report.find("PASS"), std::string::npos);
}

// --- flow well-formedness under a full SoC run ----------------------

SocConfig
fig5Config()
{
    SocConfig cfg;
    cfg.memType = MemInterface::ScratchpadDma;
    cfg.lanes = 4;
    cfg.spadPartitions = 4;
    cfg.dma.pipelined = true;
    cfg.tracing.enabled = true;
    return cfg;
}

TEST(ScopeFlows, LinksJoinClosedSpansAndFormADag)
{
    Trace trace = makeWorkload("stencil-stencil2d")->build().trace;
    Dddg dddg(trace);
    Soc soc(fig5Config(), trace, dddg);
    soc.run();

    const Tracer *t = soc.tracer();
    ASSERT_NE(t, nullptr);
    EXPECT_EQ(t->openSpans(), 0u);

    // Index recorded spans by id.
    std::vector<SpanView> views = t->spanViews();
    ASSERT_FALSE(views.empty());
    std::vector<TraceSpanId> incoming;
    TraceSpanId maxId = 0;
    for (const auto &v : views)
        maxId = std::max(maxId, v.id);
    incoming.assign(static_cast<std::size_t>(maxId) + 1, 0);

    const auto &flows = t->flowLinks();
    ASSERT_FALSE(flows.empty());
    for (const auto &f : flows) {
        // Both ends name recorded spans and the edge points forward
        // in record order — the DAG-by-construction invariant.
        EXPECT_GT(f.from, 0u);
        EXPECT_LT(f.from, f.to);
        EXPECT_LE(f.to, maxId);
        // At most one causal predecessor per span.
        EXPECT_EQ(incoming[static_cast<std::size_t>(f.to)], 0u);
        incoming[static_cast<std::size_t>(f.to)] = f.from;
    }

    // The emitted Chrome JSON (spans + ph:"s"/"f" flow events) is a
    // document our own reader accepts.
    std::ostringstream js;
    t->writeChromeJson(js);
    auto chrome = parseJson(js.str());
    ASSERT_TRUE(chrome.ok) << chrome.error;
    ASSERT_NE(chrome.value.get("traceEvents"), nullptr);
    EXPECT_GE(chrome.value.get("traceEvents")->array().size(),
              views.size());
}

TEST(ScopeFlows, TracingWithFlowsIsPassive)
{
    Trace trace = makeWorkload("stencil-stencil2d")->build().trace;
    Dddg dddg(trace);

    SocConfig traced = fig5Config();
    SocConfig untraced = fig5Config();
    untraced.tracing.enabled = false;

    Soc a(traced, trace, dddg);
    Soc b(untraced, trace, dddg);
    SocResults ra = a.run();
    SocResults rb = b.run();

    // Render both results under the same config echo (the record
    // line deliberately echoes trace=1, which is a config fact, not
    // a result) — every simulated-result byte must match.
    std::ostringstream osA, osB;
    printRecord(osA, untraced, ra);
    printRecord(osB, untraced, rb);
    EXPECT_EQ(osA.str(), osB.str());
}

// --- critical path and blame ----------------------------------------

std::string
blameReportFor(const std::string &workload, const SocConfig &cfg,
               BlameReport *blameOut = nullptr)
{
    Trace trace = makeWorkload(workload)->build().trace;
    Dddg dddg(trace);
    Soc soc(cfg, trace, dddg);
    SocResults results = soc.run();

    const Tracer *t = soc.tracer();
    EXPECT_NE(t, nullptr);
    SpanDag dag = buildSpanDag(*t);
    BlameReport blame = genie::blame(dag);
    if (blameOut)
        *blameOut = blame;

    RunReportInput input;
    input.title = workload;
    input.configLine = cfg.describe();
    input.results = &results;
    input.blame = &blame;
    input.dag = &dag;
    return renderRunReport(input);
}

TEST(ScopeBlame, CoversTheFig5DesignPointAndObeysInvariants)
{
    BlameReport blame;
    std::string report =
        blameReportFor("stencil-stencil2d", fig5Config(), &blame);

    // The acceptance bar: >= 95% of end-to-end ticks attributed.
    EXPECT_GE(blame.coverage, 0.95);
    EXPECT_GT(blame.endTick, 0u);
    EXPECT_LE(blame.coveredTicks, blame.endTick);

    // Segments are disjoint, in-bounds, and sum to coveredTicks;
    // every hop after the walk root is either a flow or inferred.
    ASSERT_FALSE(blame.path.empty());
    Tick sum = 0;
    Tick prevBegin = blame.endTick;
    for (const auto &seg : blame.path) {
        EXPECT_LT(seg.begin, seg.end);
        EXPECT_LE(seg.end, prevBegin);
        sum += seg.end - seg.begin;
        prevBegin = seg.begin;
    }
    EXPECT_EQ(sum, blame.coveredTicks);
    EXPECT_FALSE(blame.path.front().viaFlow); // the walk root
    EXPECT_EQ(blame.flowHops + blame.inferredHops,
              blame.path.size() - 1);
    EXPECT_GT(blame.flowHops, 0u);

    // Every category present, enum order, on-path <= union <= end.
    ASSERT_EQ(blame.byCategory.size(), numTraceCategories);
    for (std::size_t i = 0; i < numTraceCategories; ++i) {
        const BlameEntry &e = blame.byCategory[i];
        EXPECT_EQ(e.name, traceCategoryName(
                              static_cast<TraceCategory>(i)));
        EXPECT_LE(e.onPathTicks, e.totalTicks);
        EXPECT_LE(e.overlappedTicks, e.totalTicks);
        EXPECT_LE(e.onPathTicks, blame.endTick);
    }

    EXPECT_NE(report.find("# Genie-Scope run report:"),
              std::string::npos);
    EXPECT_NE(report.find("## Critical path"), std::string::npos);
    EXPECT_NE(report.find("## Component blame"), std::string::npos);
}

TEST(ScopeBlame, ReportsAreByteIdenticalAcrossRunsAndThreads)
{
    const std::string one =
        blameReportFor("stencil-stencil2d", fig5Config());
    const std::string two =
        blameReportFor("stencil-stencil2d", fig5Config());
    EXPECT_EQ(one, two);

    // The same analysis on worker threads (each Soc owns its queue
    // and tracer) must not perturb a byte either.
    std::string t1, t2;
    std::thread a(
        [&] { t1 = blameReportFor("stencil-stencil2d", fig5Config()); });
    std::thread b(
        [&] { t2 = blameReportFor("stencil-stencil2d", fig5Config()); });
    a.join();
    b.join();
    EXPECT_EQ(t1, one);
    EXPECT_EQ(t2, one);
}

TEST(ScopeBlame, EmptyTraceBlamesNothing)
{
    EventQueue eq;
    Tracer tracer(eq);
    BlameReport blame = blameRun(tracer);
    EXPECT_EQ(blame.endTick, 0u);
    EXPECT_EQ(blame.coveredTicks, 0u);
    EXPECT_DOUBLE_EQ(blame.coverage, 0.0);
    EXPECT_TRUE(blame.path.empty());
    EXPECT_EQ(topBlameCategory(blame), "-");
}

TEST(ScopeBlame, SpeedupFormattingAndTopCategory)
{
    EXPECT_EQ(formatSpeedup(1.842), "1.842x");
    EXPECT_EQ(formatSpeedup(0.0), "inf");

    BlameReport blame;
    blame.byCategory.push_back({"flush", 10, 10, 0, 1.0, 1});
    blame.byCategory.push_back({"dma", 30, 30, 0, 1.0, 1});
    blame.byCategory.push_back({"bus", 30, 40, 10, 1.0, 1});
    // Strictly-greater wins; ties keep the earlier (enum) entry.
    EXPECT_EQ(topBlameCategory(blame), "dma");
}

// --- blame golden ---------------------------------------------------

const std::string kBlameGolden = "blame.txt";

/** Every field of @p b: the totals, one line per path segment and one
 * per category and track entry, with doubles at %.17g so no bit of
 * drift hides. */
std::string
dumpBlame(const BlameReport &b)
{
    std::string s = format(
        "endTick=%llu coveredTicks=%llu coverage=%.17g flowHops=%llu "
        "inferredHops=%llu\n",
        (unsigned long long)b.endTick, (unsigned long long)b.coveredTicks,
        b.coverage, (unsigned long long)b.flowHops,
        (unsigned long long)b.inferredHops);
    for (const CriticalSegment &seg : b.path) {
        s += format("segment span=%zu begin=%llu end=%llu viaFlow=%d\n",
                    seg.spanIndex, (unsigned long long)seg.begin,
                    (unsigned long long)seg.end, seg.viaFlow ? 1 : 0);
    }
    for (const auto &[kind, entries] :
         {std::pair{"category", &b.byCategory},
          std::pair{"track", &b.byTrack}}) {
        for (const BlameEntry &e : *entries) {
            s += format("%s %s onPath=%llu total=%llu overlapped=%llu "
                        "whatIf=%.17g segments=%llu\n",
                        kind, e.name.c_str(),
                        (unsigned long long)e.onPathTicks,
                        (unsigned long long)e.totalTicks,
                        (unsigned long long)e.overlappedTicks,
                        e.whatIfSpeedup, (unsigned long long)e.segments);
        }
    }
    return s;
}

/** Trace @p config with every category on, as the reports do. */
SocConfig
tracedAll(SocConfig config)
{
    config.tracing.enabled = true;
    config.tracing.categories = allTraceCategories;
    return config;
}

TEST(ScopeBlameGolden, PaperDesignPointsMatchGolden)
{
    // Each point's `genie_run <workload> <options> --report` output
    // (blame plus the segments table) followed by the full
    // BlameReport.
    std::vector<std::string> fresh;
    for (const DesignPointSpec &p : paperPoints) {
        SocConfig cfg = parseConfig(splitOptions(p.options));
        Trace trace = makeWorkload(p.workload)->build().trace;
        Dddg dddg(trace);
        Soc soc(tracedAll(cfg), trace, dddg);
        SocResults results = soc.run();
        SpanDag dag = buildSpanDag(*soc.tracer());
        BlameReport b = blame(dag);

        RunReportInput in;
        in.title = p.workload;
        in.configLine = cfg.describe();
        in.results = &results;
        in.blame = &b;
        in.dag = &dag;
        fresh.push_back(
            hashLine(p.name, renderRunReport(in) + dumpBlame(b)));
    }
    expectGolden(kBlameGolden, fresh);
}

TEST(ScopeBlameGolden, SweepReportMatchesGolden)
{
    // `genie_sweep stencil-stencil2d --space=fig6
    // --filter="lanes=1,4;partitions=1,4" --report=FILE`: the space
    // CI's sweep-smoke job reports on, blame on every point.
    Trace trace = makeWorkload("stencil-stencil2d")->build().trace;
    Dddg dddg(trace);
    auto configs =
        filterConfigs(enumerateSpace("fig6", SocConfig{}),
                      SpaceFilter::parse("lanes=1,4;partitions=1,4"));
    auto points = runSweep(configs, trace, dddg, 1);

    SweepReportInput in;
    in.title = "stencil-stencil2d (fig6)";
    in.points = &points;
    for (std::size_t i = 0; i < points.size(); ++i) {
        Soc soc(tracedAll(points[i].config), trace, dddg);
        soc.run();
        in.blames.emplace_back(i, blameRun(*soc.tracer()));
    }
    in.blameScopeNote =
        format("blame: all %zu points re-run traced", points.size());
    expectGolden(kBlameGolden, {hashLine("sweep-stencil2d-fig6",
                                         renderSweepReport(in))});
}

} // namespace
} // namespace genie
