/**
 * @file
 * genie_lint: a simulator-specific static lint pass for the Genie
 * source tree.
 *
 * The rules encode correctness properties the simulator depends on but
 * a compiler cannot check:
 *
 *  - determinism:     no wall-clock or libc randomness (`rand()`,
 *                     `std::time`, `std::chrono::system_clock`,
 *                     `std::random_device`, ...) outside the sanctioned
 *                     deterministic RNG in src/sim/random.hh. One
 *                     nondeterministic call silently corrupts every
 *                     sweep result.
 *  - raw-output:      no `std::cout` / `std::cerr` / `printf` in
 *                     library code; all user-facing output must flow
 *                     through sim/logging so sweeps can silence it and
 *                     tests can capture it. String formatting
 *                     (`snprintf`/`vsnprintf`) is allowed.
 *  - include-guard:   headers under src/ use the canonical
 *                     GENIE_<DIR>_<FILE>_HH guard so guards never
 *                     collide as the tree grows.
 *  - static-state:    no mutable global/function-local `static` (or
 *                     `thread_local`) variables in src/ — each Soc owns
 *                     its own EventQueue precisely so thousands of
 *                     sweeps can run concurrently; hidden shared state
 *                     breaks that.
 *  - raw-new-delete:  no raw `new` / `delete` outside the EventQueue's
 *                     documented owning-pointer heap
 *                     (src/sim/event_queue.cc); everything else uses
 *                     RAII ownership.
 *  - sweep-determinism: src/dse may not observe thread or process
 *                     identity (`std::this_thread::get_id`,
 *                     `pthread_self`, `gettid`, `getpid`). Sweep
 *                     results and genie-store-2 records must be
 *                     byte-identical across thread counts, so
 *                     nothing scheduler-dependent may reach a
 *                     DesignPoint or the store.
 *
 * The scan is line-based over comment- and string-stripped text: fast,
 * dependency-free, and deliberately heuristic. Grandfathered or
 * intentional violations live in a checked-in suppression file
 * (tools/genie_lint/suppressions.txt), one `<rule> <path>` pair per
 * line, so every exception is visible in review.
 */

#ifndef GENIE_TOOLS_GENIE_LINT_LINT_HH
#define GENIE_TOOLS_GENIE_LINT_LINT_HH

#include <string>
#include <utility>
#include <vector>

namespace genie
{
namespace lint
{

/** One rule violation at a specific source line. */
struct Finding
{
    std::string rule;    ///< rule identifier (e.g. "determinism")
    std::string file;    ///< path relative to the repo root
    int line = 0;        ///< 1-based line number
    std::string message; ///< human-readable explanation
};

/** A set of `<rule> <path>` suppression pairs. */
class Suppressions
{
  public:
    /** Parse suppression text: one `<rule> <path>` pair per line;
     * blank lines and lines starting with '#' are ignored. A rule of
     * "*" suppresses every rule for the path. */
    static Suppressions parse(const std::string &text);

    /** Load from a file; returns an empty set if unreadable. */
    static Suppressions load(const std::string &path);

    void add(const std::string &rule, const std::string &path);

    /** True if @p rule is suppressed for @p file. */
    bool matches(const std::string &rule, const std::string &file) const;

    std::size_t size() const { return entries.size(); }

  private:
    std::vector<std::pair<std::string, std::string>> entries;
};

/**
 * Replace comments, string literals, and character literals with
 * spaces, preserving newlines so line numbers survive. Keeps the
 * lexer honest: `// a new miss` or `"printf("` never trip a rule.
 */
std::string stripCommentsAndStrings(const std::string &source);

/**
 * Lint one in-memory source file. @p relPath is the path relative to
 * the repo root (rules use it to scope exemptions such as
 * src/sim/random.hh). Suppressions are NOT applied here; callers
 * filter with Suppressions::matches so tests can see raw findings.
 */
std::vector<Finding> lintSource(const std::string &relPath,
                                const std::string &contents);

/**
 * Recursively lint every .hh/.cc file under @p rootDir/@p subdir,
 * applying @p suppressions. Files are visited in sorted order so
 * output is deterministic. @p filesScanned (optional) receives the
 * number of files examined.
 */
std::vector<Finding> lintTree(const std::string &rootDir,
                              const std::string &subdir,
                              const Suppressions &suppressions,
                              std::size_t *filesScanned = nullptr);

/** Expected include guard for a header path such as "src/mem/bus.hh"
 * (-> "GENIE_MEM_BUS_HH"). Empty if @p relPath is not under src/. */
std::string expectedGuard(const std::string &relPath);

} // namespace lint
} // namespace genie

#endif // GENIE_TOOLS_GENIE_LINT_LINT_HH
