/**
 * @file
 * genie_report: explain a run (or a sweep) in one markdown document.
 *
 * Single-run mode simulates one design point with tracing and flow
 * links enabled, builds the Genie-Scope span DAG, and renders the
 * critical-path attribution report:
 *
 *   genie_report stencil-stencil2d lanes=4 partitions=4 pipelined=1
 *   genie_report md-knn mem=cache cache_kb=32 --out=report.md
 *
 * Sweep mode runs a design space under the SweepEngine (untraced —
 * full speed), then re-simulates a blame subset with tracing to
 * annotate the cross-run table:
 *
 *   genie_report stencil-stencil2d --sweep --space=fig6 \
 *                --threads=8 --out=sweep-report.md
 *
 * When the space exceeds --blame-points (default 64), only the
 * Pareto-frontier points are re-run for blame; the report says so.
 *
 * Reports are deterministic: byte-identical across repeated runs,
 * machines, and --threads values. Host-derived numbers (wall time,
 * MEPS) never appear. "-" or no --out writes to stdout.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/config_parse.hh"
#include "core/soc.hh"
#include "dse/pareto.hh"
#include "dse/sweep.hh"
#include "dse/sweep_engine.hh"
#include "scope/report.hh"
#include "scope/span_dag.hh"
#include "sim/whole_number.hh"
#include "workloads/workload.hh"

namespace
{

using namespace genie;

int
usage()
{
    std::fprintf(
        stderr,
        "usage: genie_report <workload> [key=value ...] "
        "[--out=FILE]\n"
        "       genie_report <workload> --sweep "
        "[--space=single|isolated|dma|fig6|cache|fig8|acp|"
        "iface]\n"
        "                    [--filter=SPEC] [--threads=N] "
        "[--blame-points=N]\n"
        "                    [key=value ...] [--out=FILE]\n"
        "       genie_report --list\n"
        "exit:  0 ok, 1 error, 2 usage\n");
    return 2;
}

/** Re-simulate @p config traced (in-memory) and blame the run. */
BlameReport
blamePoint(SocConfig config, const Trace &trace, const Dddg &dddg)
{
    config.tracing.enabled = true;
    config.tracing.categories = allTraceCategories;
    config.tracing.outPath.clear();
    Soc soc(config, trace, dddg);
    soc.run();
    return blameRun(*soc.tracer());
}

int
emit(const std::string &outPath, const std::string &text)
{
    if (outPath.empty() || outPath == "-") {
        std::fputs(text.c_str(), stdout);
        return 0;
    }
    std::ofstream out(outPath, std::ios::binary);
    if (!out) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     outPath.c_str());
        return 1;
    }
    out << text;
    std::printf("wrote %s (%zu bytes)\n", outPath.c_str(),
                text.size());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::string space = "fig6";
    std::string filterSpec;
    std::string outPath;
    bool sweepMode = false;
    unsigned threads = 0;
    std::size_t blamePoints = 64;
    std::vector<std::string> baseOptions;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--list") == 0) {
            for (const auto &name : workloadNames())
                std::printf("%s\n", name.c_str());
            return 0;
        } else if (std::strcmp(arg, "--sweep") == 0) {
            sweepMode = true;
        } else if (std::strncmp(arg, "--space=", 8) == 0) {
            space = arg + 8;
        } else if (std::strncmp(arg, "--filter=", 9) == 0) {
            filterSpec = arg + 9;
        } else if (std::strncmp(arg, "--threads=", 10) == 0) {
            if (!parseWholeNumber(arg + 10, threads))
                return usage();
        } else if (std::strncmp(arg, "--blame-points=", 15) == 0) {
            if (!parseWholeNumber(arg + 15, blamePoints))
                return usage();
        } else if (std::strncmp(arg, "--out=", 6) == 0) {
            outPath = arg + 6;
        } else if (arg[0] == '-') {
            return usage();
        } else if (workload.empty()) {
            workload = arg;
        } else {
            baseOptions.push_back(arg);
        }
    }
    if (workload.empty())
        return usage();

    try {
        auto built = makeWorkload(workload)->build();
        Dddg dddg(built.trace);
        SocConfig base = parseConfig(baseOptions);

        if (!sweepMode) {
            // One traced run serves both the results block and the
            // blame: Genie-Trace is passive, so traced results are
            // byte-identical to what an untraced run would report.
            SocConfig cfg = base;
            cfg.tracing.enabled = true;
            cfg.tracing.categories = allTraceCategories;
            cfg.tracing.outPath.clear();
            Soc soc(cfg, built.trace, dddg);
            SocResults results = soc.run();
            SpanDag dag = buildSpanDag(*soc.tracer());
            BlameReport b = blame(dag);

            RunReportInput in;
            in.title = workload;
            in.configLine = base.describe();
            in.results = &results;
            in.blame = &b;
            in.dag = &dag;
            return emit(outPath, renderRunReport(in));
        }

        auto configs = enumerateSpace(space, base);
        if (!filterSpec.empty()) {
            configs = filterConfigs(configs,
                                    SpaceFilter::parse(filterSpec));
        }
        if (configs.empty())
            fatal("the filter rejected every design point");

        auto points =
            runSweep(configs, built.trace, dddg, threads);

        // Blame every point when the space is small; otherwise only
        // the Pareto frontier (the designs anyone asks "why?" about).
        std::vector<std::size_t> toBlame;
        std::string note;
        if (points.size() <= blamePoints) {
            for (std::size_t i = 0; i < points.size(); ++i)
                toBlame.push_back(i);
            note = format("blame: all %zu points re-run traced",
                          points.size());
        } else {
            toBlame = paretoFrontier(points);
            note = format("blame: Pareto frontier only (%zu of %zu "
                          "points; raise --blame-points to widen)",
                          toBlame.size(), points.size());
        }
        std::vector<IndexedBlame> blames;
        for (std::size_t i : toBlame) {
            blames.emplace_back(
                i, blamePoint(points[i].config, built.trace, dddg));
        }

        SweepReportInput in;
        in.title = format("%s (%s)", workload.c_str(),
                          space.c_str());
        in.points = &points;
        in.blames = std::move(blames);
        in.blameScopeNote = note;
        return emit(outPath, renderSweepReport(in));
    } catch (const SweepError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
