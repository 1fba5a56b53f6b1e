/**
 * @file
 * genie-run: the command-line simulator driver.
 *
 * Run any registered workload under any design point without writing
 * code — the gem5-Aladdin "configuration file" workflow as a CLI:
 *
 *   genie_run --list
 *   genie_run stencil-stencil2d lanes=8 partitions=8 pipelined=1
 *   genie_run spmv-crs mem=cache cache_kb=32 cache_ports=2 --stats
 *   genie_run md-knn lanes=4 --record         # key=value, scriptable
 *   genie_run stencil-stencil2d pipelined=1 triggered=1 \
 *             --trace=out.json --trace-categories=dma,flush,datapath
 *
 * Options are `key=value` pairs (see core/config_parse.hh for the
 * full list); flags: --stats dumps every component's statistics,
 * --record prints a one-line machine-readable result, --trace=FILE
 * writes a Chrome trace-event JSON timeline (open in ui.perfetto.dev),
 * --trace-categories=LIST restricts which categories are recorded.
 *
 * Metrics flags: --stats-json=FILE / --stats-csv=FILE export final
 * stats machine-readably ("-" = stdout); --sample-period=N snapshots
 * every scalar stat each N accelerator cycles, written with
 * --samples-json=FILE / --samples-csv=FILE; --profile prints a
 * host-time attribution table per event kind after the run.
 *
 * --report[=FILE] renders the Genie-Scope single-run report (critical
 * path, per-category and per-component blame, what-if speedups) after
 * the run, forcing tracing on for the run; "-" or no value = stdout.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/config_parse.hh"
#include "core/report.hh"
#include "core/soc.hh"
#include "metrics/profiler.hh"
#include "scope/report.hh"
#include "scope/span_dag.hh"
#include "workloads/workload.hh"

namespace
{

int
usage()
{
    std::printf(
        "usage: genie_run <workload> [key=value ...] [--stats] "
        "[--record]\n"
        "       genie_run --list\n\n"
        "options: mem=dma|cache lanes=N partitions=N bus=32|64\n"
        "         pipelined=0|1 triggered=0|1 cache_kb=N "
        "cache_line=N\n"
        "         cache_assoc=N cache_ports=N cache_mshrs=N "
        "prefetch=0|1\n"
        "         tlb_entries=N isolated=0|1 perfect_mem=0|1 "
        "inf_bw=0|1\n"
        "iface (Genie-Iface):\n"
        "         mem_type=dma|acp|cache mem_type.<array>=dma|acp\n"
        "         completion=spin|interrupt irq_latency_ns=N\n"
        "         queue_depth=N invocations=N\n"
        "flags:   --stats --record --trace=FILE.json\n"
        "         --trace-categories=flush,dma,bus,cache,dram,"
        "datapath,tlb,spad,iface|all\n"
        "         --stats-json=FILE --stats-csv=FILE (\"-\" = "
        "stdout)\n"
        "         --sample-period=N --samples-json=FILE "
        "--samples-csv=FILE\n"
        "         --profile --report[=FILE]  (critical-path blame "
        "report;\n"
        "           forces tracing on; \"-\" or no value = stdout)\n"
        "fault campaign (Genie-Resilience):\n"
        "         --faults=SITE=RATE[,SITE=RATE...] with sites\n"
        "           dram_read bus_resp dma_beat tlb_walk acp_snoop "
        "irq_drop\n"
        "         --fault-seed=N --fault-max-retries=N "
        "--fault-backoff=N\n"
        "         --watchdog-interval=N  (accel cycles between "
        "progress checks)\n"
        "exit:    0 ok, 1 error, 3 watchdog declared the run "
        "stalled\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace genie;

    if (argc < 2)
        return usage();

    if (std::strcmp(argv[1], "--list") == 0) {
        for (const auto &name : workloadNames()) {
            auto w = makeWorkload(name);
            std::printf("  %-20s %s\n", name.c_str(),
                        w->description().c_str());
        }
        return 0;
    }

    std::string workloadName = argv[1];
    std::vector<std::string> options;
    bool wantStats = false;
    bool wantRecord = false;
    bool wantProfile = false;
    bool wantReport = false;
    std::string reportPath = "-";
    for (int i = 2; i < argc; ++i) {
        if (std::strcmp(argv[i], "--stats") == 0)
            wantStats = true;
        else if (std::strcmp(argv[i], "--record") == 0)
            wantRecord = true;
        else if (std::strcmp(argv[i], "--profile") == 0)
            wantProfile = true;
        else if (std::strcmp(argv[i], "--report") == 0)
            wantReport = true;
        else if (std::strncmp(argv[i], "--report=", 9) == 0) {
            wantReport = true;
            reportPath = argv[i] + 9;
        }
        else if (std::strncmp(argv[i], "--trace=", 8) == 0)
            options.emplace_back(std::string("trace_out=") +
                                 (argv[i] + 8));
        else if (std::strncmp(argv[i], "--trace-categories=", 19) == 0)
            options.emplace_back(std::string("trace_categories=") +
                                 (argv[i] + 19));
        else if (std::strncmp(argv[i], "--stats-json=", 13) == 0)
            options.emplace_back(std::string("stats_json=") +
                                 (argv[i] + 13));
        else if (std::strncmp(argv[i], "--stats-csv=", 12) == 0)
            options.emplace_back(std::string("stats_csv=") +
                                 (argv[i] + 12));
        else if (std::strncmp(argv[i], "--sample-period=", 16) == 0)
            options.emplace_back(std::string("sample_period=") +
                                 (argv[i] + 16));
        else if (std::strncmp(argv[i], "--samples-json=", 15) == 0)
            options.emplace_back(std::string("samples_json=") +
                                 (argv[i] + 15));
        else if (std::strncmp(argv[i], "--samples-csv=", 14) == 0)
            options.emplace_back(std::string("samples_csv=") +
                                 (argv[i] + 14));
        else if (std::strncmp(argv[i], "--faults=", 9) == 0) {
            // Comma list of site=rate pairs, e.g.
            //   --faults=dram_read=0.001,dma_beat=0.01
            // Each expands to the matching fault_<site>= option, so
            // the parser does all the validation.
            std::string list = argv[i] + 9;
            std::size_t pos = 0;
            while (pos <= list.size()) {
                std::size_t comma = list.find(',', pos);
                if (comma == std::string::npos)
                    comma = list.size();
                std::string item = list.substr(pos, comma - pos);
                if (!item.empty())
                    options.emplace_back("fault_" + item);
                pos = comma + 1;
            }
        } else if (std::strncmp(argv[i], "--fault-seed=", 13) == 0)
            options.emplace_back(std::string("fault_seed=") +
                                 (argv[i] + 13));
        else if (std::strncmp(argv[i], "--fault-max-retries=", 20) ==
                 0)
            options.emplace_back(std::string("fault_max_retries=") +
                                 (argv[i] + 20));
        else if (std::strncmp(argv[i], "--fault-backoff=", 16) == 0)
            options.emplace_back(std::string("fault_backoff=") +
                                 (argv[i] + 16));
        else if (std::strncmp(argv[i], "--watchdog-interval=", 20) ==
                 0)
            options.emplace_back(std::string("watchdog_interval=") +
                                 (argv[i] + 20));
        else if (std::strncmp(argv[i], "--", 2) == 0)
            return usage();
        else
            options.emplace_back(argv[i]);
    }

    try {
        auto workload = makeWorkload(workloadName);
        auto out = workload->build();
        Dddg dddg(out.trace);
        SocConfig config = parseConfig(options);
        // The report needs spans and flows; tracing is passive, so
        // forcing it on changes no simulated result (test_scope.cc).
        if (wantReport)
            config.tracing.enabled = true;

        Soc soc(config, out.trace, dddg);
        HostProfiler profiler;
        if (wantProfile)
            soc.eventQueue().setProfiler(&profiler);
        SocResults results = soc.run();

        if (wantRecord) {
            printRecord(std::cout, config, results);
        } else {
            std::printf("workload: %s (%zu trace ops)\n",
                        workloadName.c_str(), out.trace.ops.size());
            printSummary(std::cout, config, results);
        }
        if (wantStats) {
            std::printf("\n--- component statistics ---\n");
            dumpAllStats(std::cout, soc);
        }
        if (wantProfile) {
            std::printf("\n--- host profile ---\n");
            profiler.report(std::cout);
        }
        if (wantReport) {
            SpanDag dag = buildSpanDag(*soc.tracer());
            BlameReport blame = genie::blame(dag);
            RunReportInput input;
            input.title = workloadName;
            input.configLine = config.describe();
            input.results = &results;
            input.blame = &blame;
            input.dag = &dag;
            std::string report = renderRunReport(input);
            if (reportPath == "-") {
                std::printf("\n");
                std::fwrite(report.data(), 1, report.size(), stdout);
            } else {
                std::ofstream os(reportPath);
                if (!os)
                    fatal("cannot write %s", reportPath.c_str());
                os << report;
                std::printf("report: %s\n", reportPath.c_str());
            }
        }
        if (!config.tracing.outPath.empty()) {
            std::printf("trace: %s (%zu events; open in "
                        "ui.perfetto.dev or chrome://tracing)\n",
                        config.tracing.outPath.c_str(),
                        soc.tracer()->numEvents());
        }
        if (results.stalled) {
            std::fprintf(stderr,
                         "warning: watchdog declared the run stalled; "
                         "results above are partial\n");
            return 3;
        }
    } catch (const FatalError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    return 0;
}
