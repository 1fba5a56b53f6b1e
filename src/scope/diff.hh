/**
 * @file
 * Structural, tolerance-aware comparison of two Genie JSON documents
 * (genie-stats-1 metric exports, genie-sweep-results-1 sweep exports).
 *
 * The comparison walks both documents as trees and reports leaf-level
 * differences by dotted path ("points[0].results.total_ticks").
 * Per-metric rules — first glob match wins — decide how a path is
 * judged:
 *
 *  - ignore: the path is skipped entirely (host-derived numbers such
 *    as wall_ms and MEPS can never compare equal across machines);
 *  - tolerance N%: numbers whose relative difference is within N%
 *    pass (recorded as tolerated, not failed).
 *
 * Keys present only in the newer document are *warnings* by default
 * so that adding a metric does not break every stored baseline;
 * --strict promotes them to failures. Keys that disappeared always
 * fail: a baseline metric silently vanishing is a regression in
 * itself.
 */

#ifndef GENIE_SCOPE_DIFF_HH
#define GENIE_SCOPE_DIFF_HH

#include <string>
#include <string_view>
#include <vector>

#include "scope/json.hh"
#include "sim/thread_safety.hh"

namespace genie
{

/**
 * Shell-style glob over a dotted path: '*' matches any run of
 * characters (including '.' — metric globs span levels on purpose),
 * '?' matches one character.
 */
bool globMatch(std::string_view pattern, std::string_view text);

/** One per-metric judgment rule. */
struct DiffRule GENIE_THREAD_LOCAL_OK
{
    std::string glob;
    /** Skip matching paths entirely. */
    bool ignore = false;
    /** Allowed relative difference, percent (0 = exact). */
    double tolerancePct = 0.0;
};

struct DiffOptions GENIE_THREAD_LOCAL_OK
{
    /** First matching rule wins; no match = exact comparison. */
    std::vector<DiffRule> rules;
    /** Promote added-key warnings to failures. */
    bool strict = false;
};

/**
 * The stock rule set for comparing this repository's own outputs
 * across runs/machines: ignore host-time-derived metrics (wall
 * clock, MEPS, points/s), compare everything else exactly.
 */
std::vector<DiffRule> defaultGenieDiffRules();

enum class DiffKind : std::uint8_t
{
    Changed,     ///< leaf values differ beyond tolerance
    Removed,     ///< path exists only in the baseline
    Added,       ///< path exists only in the candidate
    TypeChanged, ///< same path, different JSON type
};

struct DiffEntry GENIE_THREAD_LOCAL_OK
{
    DiffKind kind = DiffKind::Changed;
    std::string path;
    std::string before; ///< baseline rendering ("-" when absent)
    std::string after;  ///< candidate rendering ("-" when absent)
    /** Relative difference in percent (numbers only). */
    double relDeltaPct = 0.0;
    /** The tolerance the matching rule allowed. */
    double tolerancePct = 0.0;
};

struct DiffResult GENIE_THREAD_LOCAL_OK
{
    /** Differences that fail the comparison, in path order. */
    std::vector<DiffEntry> failures;
    /** Non-fatal notes (added keys under non-strict), path order. */
    std::vector<DiffEntry> warnings;
    /** Number differences inside an allowed tolerance, path order. */
    std::vector<DiffEntry> tolerated;
    /** Leaf paths compared (ignored paths excluded). */
    std::size_t comparedLeaves = 0;
    /** Leaf paths skipped by ignore rules. */
    std::size_t ignoredLeaves = 0;

    bool clean() const { return failures.empty(); }
};

/** Compare @p baseline against @p candidate under @p options. */
DiffResult diffJson(const JsonValue &baseline,
                    const JsonValue &candidate,
                    const DiffOptions &options);

/**
 * Render @p result as a deterministic markdown report. @p aName /
 * @p bName label the two documents (usually their file names).
 */
std::string renderDiffReport(const DiffResult &result,
                             const std::string &aName,
                             const std::string &bName);

/**
 * Parse a "GLOB=SPEC" rule string from the CLI, where SPEC is either
 * "ignore" or a percentage such as "0.5" or "2%". Returns false on a
 * malformed spec (message in @p error).
 */
bool parseDiffRule(const std::string &spec, DiffRule &out,
                   std::string &error);

} // namespace genie

#endif // GENIE_SCOPE_DIFF_HH
