/**
 * @file
 * genie_serve: the crash-tolerant simulation service daemon.
 *
 *   genie_serve --socket=/tmp/genie.sock --state=/var/lib/genie \
 *               [--workers=N] [--max-queue=N] [--max-attempts=N] \
 *               [--timeout-ms=N] [--term-grace-ms=N] \
 *               [--backoff-ms=N] [--store-budget=BYTES]
 *
 * The daemon accepts `genie-serve-1` submissions over the Unix-domain
 * socket (see serve/protocol.hh and the genie_submit client) and runs
 * each job in a forked worker subprocess — this same binary,
 * re-executed as `genie_serve --worker ...`. Worker crashes are
 * retried with exponential backoff; jobs that keep crashing or
 * timing out are quarantined; submissions beyond the queue bound are
 * refused with "busy". Accepted jobs are spooled durably and results
 * are written through the content-addressed ResultStore under the
 * state directory. Every job shares that one store; its keys carry
 * the workload's trace digest as well as the config, so jobs on
 * different kernels never see each other's results. The daemon
 * itself can be SIGKILLed and
 * restarted without losing accepted work — unfinished jobs re-run,
 * their completed points replay as store hits, and the output is
 * byte-identical to an uninterrupted run.
 *
 * SIGTERM/SIGINT drain gracefully: running jobs finish (or
 * checkpoint), then the daemon exits 0.
 *
 * Numeric flags take whole decimal numbers only, and --workers and
 * --max-queue must be at least 1; anything else is a usage error.
 *
 * exit: 0 clean drain, 1 startup/runtime error, 2 usage.
 */

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <unistd.h>

#include "serve/server.hh"
#include "serve/worker.hh"
#include "sim/logging.hh"
#include "sim/whole_number.hh"

namespace
{

using namespace genie;

/** Set by SIGTERM/SIGINT. Daemon: drain and exit. Worker: stop
 * dealing points, checkpoint, exit 6. */
std::atomic<bool> gStopRequested{false};

void
onStopSignal(int)
{
    gStopRequested.store(true);
}

int
usage()
{
    std::fprintf(
        stderr,
        "usage: genie_serve --socket=PATH --state=DIR\n"
        "         [--workers=N] [--max-queue=N] [--max-attempts=N]\n"
        "         [--timeout-ms=N] [--term-grace-ms=N] "
        "[--backoff-ms=N]\n"
        "         [--store-budget=BYTES] [--worker-command=CMD]\n"
        "       genie_serve --worker --job=FILE --out=FILE "
        "--err=FILE\n"
        "         [--store=DIR] [--store-budget=BYTES]\n"
        "exit:  0 clean drain, 1 error, 2 usage\n");
    return 2;
}

/** The path workers are exec'd from: /proc/self/exe when available
 * (robust against PATH lookups and cwd changes), else argv[0]. */
std::string
selfExePath(const char *argv0)
{
    char buf[4096];
    ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n > 0) {
        buf[n] = '\0';
        return buf;
    }
    return argv0;
}

} // namespace

int
main(int argc, char **argv)
{
    // Daemons log to files; a fully buffered stdout would hold
    // status lines (job recovery, drain progress) invisible until
    // exit. Line-buffer it so operators see them as they happen.
    std::setvbuf(stdout, nullptr, _IOLBF, 0);

    bool workerMode = false;
    ServeWorkerArgs workerArgs;
    ServeOptions opts;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--worker") == 0) {
            workerMode = true;
        } else if (std::strncmp(arg, "--job=", 6) == 0) {
            workerArgs.jobPath = arg + 6;
        } else if (std::strncmp(arg, "--out=", 6) == 0) {
            workerArgs.outPath = arg + 6;
        } else if (std::strncmp(arg, "--err=", 6) == 0) {
            workerArgs.errPath = arg + 6;
        } else if (std::strncmp(arg, "--store=", 8) == 0) {
            workerArgs.storeDir = arg + 8;
        } else if (std::strncmp(arg, "--store-budget=", 15) == 0) {
            if (!parseWholeNumber(arg + 15, workerArgs.storeBudgetBytes))
                return usage();
            opts.storeBudgetBytes = workerArgs.storeBudgetBytes;
        } else if (std::strncmp(arg, "--socket=", 9) == 0) {
            opts.socketPath = arg + 9;
        } else if (std::strncmp(arg, "--state=", 8) == 0) {
            opts.stateDir = arg + 8;
        } else if (std::strncmp(arg, "--workers=", 10) == 0) {
            if (!parseWholeNumber(arg + 10, opts.workers) ||
                opts.workers == 0)
                return usage();
        } else if (std::strncmp(arg, "--max-queue=", 12) == 0) {
            if (!parseWholeNumber(arg + 12, opts.maxQueue) ||
                opts.maxQueue == 0)
                return usage();
        } else if (std::strncmp(arg, "--max-attempts=", 15) == 0) {
            if (!parseWholeNumber(arg + 15, opts.maxAttempts))
                return usage();
        } else if (std::strncmp(arg, "--timeout-ms=", 13) == 0) {
            if (!parseWholeNumber(arg + 13, opts.timeoutMs))
                return usage();
        } else if (std::strncmp(arg, "--term-grace-ms=", 16) == 0) {
            if (!parseWholeNumber(arg + 16, opts.termGraceMs))
                return usage();
        } else if (std::strncmp(arg, "--backoff-ms=", 13) == 0) {
            if (!parseWholeNumber(arg + 13, opts.backoffMs))
                return usage();
        } else if (std::strncmp(arg, "--worker-command=", 17) == 0) {
            opts.workerCommand = arg + 17;
        } else {
            return usage();
        }
    }

    std::signal(SIGTERM, onStopSignal);
    std::signal(SIGINT, onStopSignal);

    if (workerMode) {
        if (workerArgs.jobPath.empty() || workerArgs.outPath.empty())
            return usage();
        workerArgs.stopRequested = &gStopRequested;
        return runServeWorker(workerArgs);
    }

    if (opts.socketPath.empty() || opts.stateDir.empty())
        return usage();
    opts.selfExe = selfExePath(argv[0]);
    opts.drainFlag = &gStopRequested;

    try {
        Server server(std::move(opts));
        server.start();
        inform("genie_serve: listening");
        int rc = server.run();
        inform("genie_serve: drained cleanly");
        return rc;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
