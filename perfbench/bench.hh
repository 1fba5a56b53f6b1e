/**
 * @file
 * perfbench: the pieces of the repository benchmark that do not run a
 * simulation, kept apart from main.cc so perfbench_tests can check them.
 *
 *  - the seeded design-point generator, one stratified sample per
 *    workload;
 *  - the statistics the metrics are reported with (median and the tail
 *    percentile rule);
 *  - the map from HostProfiler event-kind tags to simulator modules;
 *  - the in-memory span recorder the traced pass times layers with;
 *  - the results identity used by every output check.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "core/results.hh"
#include "core/soc_config.hh"

namespace perfbench
{

/** One design point: a kernel name plus the config the program gets. */
struct Point
{
    std::string kernel;
    genie::SocConfig config;
    std::uint64_t fingerprint = 0; ///< configFingerprint(config)
};

/** The benchmark's workloads, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** Kernels a workload sweeps, in the order its points list them. */
std::vector<std::string> workloadKernels(const std::string &workload);

/**
 * The seeded point list of @p workload. Each workload's design space is
 * cut into strata whose points cost about the same host time, and the
 * seed picks one point per stratum and kernel, so two seeds measure
 * different points of about equal weight. fatal() on an unknown
 * workload.
 */
std::vector<Point> generatePoints(const std::string &workload,
                                  std::uint64_t seed);

/** Median of @p values (mean of the middle pair); 0 when empty. */
double median(std::vector<double> values);

/** Nearest-rank @p percentile (0..100] of @p values; 0 when empty. */
double percentileOf(std::vector<double> values, double percentile);

/**
 * The highest whole percentile that leaves at least ten of @p samples
 * beyond its nearest-rank value; 0 when @p samples is ten or fewer.
 */
int tailPercentile(std::size_t samples);

/** A timing at tailPercentile(samples), with what it was taken from. */
struct Tail
{
    double value = 0.0;
    int percentile = 0;
    std::size_t samples = 0;
};

Tail tailOf(const std::vector<double> &values);

/**
 * The module a HostProfiler kind tag ("accel.tick", "bus.deliver",
 * ...) belongs to: accel, mem.bus, mem.cache, mem.dram, mem.tlb, dma,
 * cpu, iface, core, or sim for untagged and kernel-internal events.
 * Returns "" for a tag no module claims.
 */
std::string moduleOfKind(const std::string &kind);

/** Every module moduleOfKind() can return. */
const std::vector<std::string> &moduleNames();

/** Canonical text of @p results; equal text means identical results. */
std::string resultsText(const genie::SocResults &results);

/**
 * Identical-output tracker: the first text seen per point is the
 * reference every later run of that point must match.
 */
class Reference
{
  public:
    explicit Reference(std::size_t points) : texts(points) {}

    /** Record @p text for point @p i, or compare it with the first. */
    bool matches(std::size_t i, const std::string &text);

    const std::string &text(std::size_t i) const { return texts[i]; }

  private:
    std::vector<std::string> texts;
};

/** Pass/fail bookkeeping: each run of a point is one attempt. */
struct Checks
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** False once a whole-run check (checksum, digest) failed. */
    bool correct = true;

    /** Count one attempt; a failure is reported with @p what. */
    void point(bool ok, const std::string &what);
    /** A check over the whole run. */
    void run(bool ok, const std::string &what);

    /** Whether the run as a whole is correct. */
    bool passed() const { return correct && failed == 0; }
};

/** One recorded span: a named call with its causing span and point. */
struct Span
{
    const char *name = "";
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    /** Index of the enclosing span in the recorder; -1 for a root. */
    std::int64_t parent = -1;
    /** 1-based index of the design point in the generated list the
     * span belongs to; 0 for set-up and whole passes. */
    std::uint64_t point = 0;

    double ms() const { return static_cast<double>(endNs - startNs) / 1e6; }
};

/**
 * Spans kept in memory until the benchmark writes them out at exit. A
 * disabled recorder records nothing, so the untraced pass pays one
 * branch per call site. Single-threaded: only the benchmark's main
 * thread opens spans.
 */
class SpanRecorder
{
  public:
    explicit SpanRecorder(bool enabled) : on(enabled) {}

    /** Open a span under the innermost open one; returns its index, or
     * -1 when disabled. */
    std::int64_t begin(const char *name, std::uint64_t point);
    void end(std::int64_t id);

    const std::vector<Span> &spans() const { return records; }

    /** Durations (ms) of spans named @p name whose parent is named
     * @p parentName ("" accepts any parent). */
    std::vector<double> durations(const std::string &name,
                                  const std::string &parentName = "") const;

    /** The spans as one JSON object (schema perfbench-spans-1). */
    void writeJson(std::ostream &os) const;

  private:
    bool on;
    std::vector<Span> records;
    std::vector<std::int64_t> open;
};

/** RAII span: opens on construction, closes on scope exit. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &recorder, const char *name,
               std::uint64_t point = 0)
        : rec(recorder), id(recorder.begin(name, point))
    {}
    ~ScopedSpan() { rec.end(id); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder &rec;
    std::int64_t id;
};

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
