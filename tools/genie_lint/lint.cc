#include "lint.hh"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace genie
{
namespace lint
{

namespace
{

bool
identChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/**
 * Find @p token in @p text as a lexical token: the characters
 * immediately before and after the match must not extend an
 * identifier. Tokens may themselves contain '::' or '(' (e.g.
 * "std::chrono::system_clock", "rand("). Returns npos if absent.
 */
std::size_t
findToken(const std::string &text, const std::string &token,
          std::size_t from = 0)
{
    std::size_t pos = text.find(token, from);
    while (pos != std::string::npos) {
        bool okBefore = pos == 0 || !identChar(text[pos - 1]);
        std::size_t end = pos + token.size();
        bool okAfter = end >= text.size() ||
                       !identChar(text[end]) ||
                       !identChar(token.back());
        if (okBefore && okAfter)
            return pos;
        pos = text.find(token, pos + 1);
    }
    return std::string::npos;
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::size_t start = 0;
    while (start <= text.size()) {
        std::size_t nl = text.find('\n', start);
        if (nl == std::string::npos) {
            lines.push_back(text.substr(start));
            break;
        }
        lines.push_back(text.substr(start, nl - start));
        start = nl + 1;
    }
    return lines;
}

std::string
trim(const std::string &s)
{
    std::size_t b = s.find_first_not_of(" \t\r");
    if (b == std::string::npos)
        return "";
    std::size_t e = s.find_last_not_of(" \t\r");
    return s.substr(b, e - b + 1);
}

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.compare(0, prefix.size(), prefix) == 0;
}

/** The previous non-whitespace character before @p pos, or '\0'. */
char
prevNonSpace(const std::string &text, std::size_t pos)
{
    while (pos > 0) {
        char c = text[--pos];
        if (c != ' ' && c != '\t')
            return c;
    }
    return '\0';
}

struct TokenRule
{
    const char *token;
    const char *message;
};

// Wall-clock / libc-randomness entry points that break bit-exact
// reproducibility across runs and hosts.
const TokenRule determinismTokens[] = {
    {"rand(", "libc rand() is nondeterministic across hosts; use "
              "genie::Rng (src/sim/random.hh)"},
    {"srand(", "seeding libc rand() hides nondeterminism; use "
               "genie::Rng (src/sim/random.hh)"},
    {"drand48(", "drand48() is nondeterministic; use genie::Rng"},
    {"std::time", "wall-clock time breaks reproducible sweeps; derive "
                  "times from the EventQueue tick"},
    {"time(nullptr", "wall-clock time breaks reproducible sweeps"},
    {"time(NULL", "wall-clock time breaks reproducible sweeps"},
    {"gettimeofday", "wall-clock time breaks reproducible sweeps"},
    {"clock_gettime", "wall-clock time breaks reproducible sweeps"},
    {"std::chrono::system_clock", "wall-clock time breaks "
                                  "reproducible sweeps"},
    {"std::chrono::steady_clock", "host timing must not influence "
                                  "simulated behavior"},
    {"std::chrono::high_resolution_clock", "host timing must not "
                                           "influence simulated "
                                           "behavior"},
    {"std::random_device", "std::random_device is nondeterministic; "
                           "use genie::Rng with a fixed seed"},
    {"std::mt19937", "use genie::Rng so all randomness shares one "
                     "seeding discipline"},
    {"std::default_random_engine", "use genie::Rng so all randomness "
                                   "shares one seeding discipline"},
};

// Direct console output in library code bypasses sim/logging's
// quiet() switch and scrambles interleaved output in concurrent
// sweeps. snprintf/vsnprintf (string formatting) are fine.
// Trace/telemetry emission must flow through the Tracer API
// (src/trace/tracer.hh): ad-hoc file sinks dodge the category mask,
// the determinism guarantees, and the zero-overhead-when-disabled
// contract. Only the trace subsystem itself may own a file sink.
const TokenRule traceSinkTokens[] = {
    {"std::ofstream", "file output in library code: emit events "
                      "through the Tracer API (src/trace), which owns "
                      "the only sanctioned file sinks"},
    {"std::fstream", "file output in library code: emit events "
                     "through the Tracer API (src/trace)"},
    {"fopen(", "FILE* output in library code: emit events through "
               "the Tracer API (src/trace)"},
    {"fwrite(", "FILE* output in library code: emit events through "
                "the Tracer API (src/trace)"},
};

// stat-print: statistics must reach the user through the StatRegistry
// (visitors, the exporters in src/metrics, or core/report's
// registry-driven dump), never by hand-plumbing per-component
// StatGroup::dump calls — that is exactly the bespoke-loop pattern the
// registry exists to delete.
const TokenRule statPrintTokens[] = {
    {"stats().dump(",
     "hand-plumbed stat dump: route output through the StatRegistry "
     "(statRegistry().dump() or the src/metrics exporters)"},
};

// fault-rng: the fault campaign's byte-identical-replay contract
// hinges on every injection decision flowing through sim/random.hh's
// seeded Rng streams. Any other randomness source inside src/fault —
// even a "deterministic" <random> engine — forks the seeding
// discipline and silently breaks campaign reproducibility.
const TokenRule faultRngTokens[] = {
    {"<random>", "src/fault must draw randomness only from genie::Rng "
                 "(src/sim/random.hh); do not include <random>"},
    {"std::uniform_int_distribution",
     "src/fault must use genie::Rng::below(), not <random> "
     "distributions"},
    {"std::uniform_real_distribution",
     "src/fault must use genie::Rng::real(), not <random> "
     "distributions"},
    {"std::bernoulli_distribution",
     "src/fault must use genie::Rng::chance(), not <random> "
     "distributions"},
};

// sweep-determinism: sweep results and the result store must be
// byte-identical across thread counts and runs, so nothing in src/dse
// may observe which thread or process computed a point. Wall-clock
// reads are already banned tree-wide by the determinism rule; this
// rule adds the scheduler-identity sources. (Host time for the MEPS
// report is read only through the sanctioned HostProfiler.)
const TokenRule sweepDeterminismTokens[] = {
    {"std::this_thread::get_id",
     "thread identity must not influence sweep results or the "
     "store; results depend only on the trace and config"},
    {"std::thread::id",
     "thread identity must not influence sweep results or the "
     "store; results depend only on the trace and config"},
    {"pthread_self(",
     "thread identity must not influence sweep results or the "
     "store"},
    {"gettid(",
     "thread identity must not influence sweep results or the "
     "store"},
    {"getpid(",
     "process identity must not influence sweep results or the "
     "store"},
};

// event-alloc: the event kernel never reaches for the allocator by
// hand. Pending events live by value in the EventQueue's std::vector
// heap and std::function payloads in its payload table, so no file
// in src/sim has a reason to allocate or free event storage itself.
const TokenRule eventAllocTokens[] = {
    {"malloc(", "manual allocation in the event kernel: pending "
                "events live by value in the EventQueue heap"},
    {"calloc(", "manual allocation in the event kernel: pending "
                "events live by value in the EventQueue heap"},
    {"realloc(", "manual allocation in the event kernel: pending "
                 "events live by value in the EventQueue heap"},
    {"free(", "manual free in the event kernel: pending events live "
              "by value in the EventQueue heap"},
    {"aligned_alloc(", "manual allocation in the event kernel: "
                       "pending events live by value in the "
                       "EventQueue heap"},
    {"posix_memalign(", "manual allocation in the event kernel: "
                        "pending events live by value in the "
                        "EventQueue heap"},
    {"operator new", "custom operator new in the event kernel: "
                     "pending events live by value in the "
                     "EventQueue heap"},
    {"operator delete", "custom operator delete in the event kernel: "
                        "pending events live by value in the "
                        "EventQueue heap"},
};

const TokenRule rawOutputTokens[] = {
    {"std::cout", "library code must log through sim/logging "
                  "(inform/warn), not std::cout"},
    {"std::cerr", "library code must log through sim/logging "
                  "(warn/panic), not std::cerr"},
    {"printf(", "library code must log through sim/logging, not "
                "printf"},
    {"fprintf(", "library code must log through sim/logging, not "
                 "fprintf"},
    {"vfprintf(", "library code must log through sim/logging, not "
                  "vfprintf"},
    {"puts(", "library code must log through sim/logging, not puts"},
    {"fputs(", "library code must log through sim/logging, not fputs"},
    {"putchar(", "library code must log through sim/logging, not "
                 "putchar"},
};

} // namespace

std::string
stripCommentsAndStrings(const std::string &src)
{
    std::string out;
    out.reserve(src.size());

    enum class State
    {
        Normal,
        LineComment,
        BlockComment,
        String,
        Char,
    };
    State state = State::Normal;

    for (std::size_t i = 0; i < src.size(); ++i) {
        char c = src[i];
        char next = i + 1 < src.size() ? src[i + 1] : '\0';

        switch (state) {
          case State::Normal:
            if (c == '/' && next == '/') {
                state = State::LineComment;
                out += "  ";
                ++i;
            } else if (c == '/' && next == '*') {
                state = State::BlockComment;
                out += "  ";
                ++i;
            } else if (c == '"') {
                state = State::String;
                out += ' ';
            } else if (c == '\'') {
                state = State::Char;
                out += ' ';
            } else {
                out += c;
            }
            break;
          case State::LineComment:
            if (c == '\n') {
                state = State::Normal;
                out += '\n';
            } else {
                out += ' ';
            }
            break;
          case State::BlockComment:
            if (c == '*' && next == '/') {
                state = State::Normal;
                out += "  ";
                ++i;
            } else {
                out += c == '\n' ? '\n' : ' ';
            }
            break;
          case State::String:
            if (c == '\\' && i + 1 < src.size()) {
                out += "  ";
                ++i;
            } else if (c == '"') {
                state = State::Normal;
                out += ' ';
            } else {
                out += c == '\n' ? '\n' : ' ';
            }
            break;
          case State::Char:
            if (c == '\\' && i + 1 < src.size()) {
                out += "  ";
                ++i;
            } else if (c == '\'') {
                state = State::Normal;
                out += ' ';
            } else {
                out += c == '\n' ? '\n' : ' ';
            }
            break;
        }
    }
    return out;
}

std::string
expectedGuard(const std::string &relPath)
{
    if (!startsWith(relPath, "src/") ||
        relPath.size() < 4 + 3 ||
        relPath.compare(relPath.size() - 3, 3, ".hh") != 0)
        return "";
    std::string guard = "GENIE_";
    for (std::size_t i = 4; i < relPath.size(); ++i) {
        char c = relPath[i];
        if (c == '/' || c == '.' || c == '-')
            guard += '_';
        else
            guard += static_cast<char>(
                std::toupper(static_cast<unsigned char>(c)));
    }
    return guard;
}

Suppressions
Suppressions::parse(const std::string &text)
{
    Suppressions s;
    for (const auto &raw : splitLines(text)) {
        std::string line = trim(raw);
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream iss(line);
        std::string rule, path;
        if (iss >> rule >> path)
            s.add(rule, path);
    }
    return s;
}

Suppressions
Suppressions::load(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return {};
    std::ostringstream ss;
    ss << in.rdbuf();
    return parse(ss.str());
}

void
Suppressions::add(const std::string &rule, const std::string &path)
{
    entries.emplace_back(rule, path);
}

bool
Suppressions::matches(const std::string &rule,
                      const std::string &file) const
{
    for (const auto &[r, p] : entries) {
        if (p == file && (r == "*" || r == rule))
            return true;
    }
    return false;
}

std::vector<Finding>
lintSource(const std::string &relPath, const std::string &contents)
{
    std::vector<Finding> findings;
    const std::string stripped = stripCommentsAndStrings(contents);
    const std::vector<std::string> lines = splitLines(stripped);

    auto report = [&](const char *rule, int line,
                      const std::string &message) {
        findings.push_back({rule, relPath, line, message});
    };

    const bool isRngHome = relPath == "src/sim/random.hh";
    // The raw-output / trace-sink / stat-print / static-state /
    // raw-new-delete rules are library-code contracts: they apply to
    // src/ only. CLI tools (tools/) legitimately print to stdout and
    // open their own output files; the determinism rule still applies
    // to them (with explicit suppressions where host timing is the
    // tool's feature, e.g. the bench harness).
    const bool isLibrary = startsWith(relPath, "src/");
    // src/trace owns the trace sinks; src/metrics owns the stats and
    // sample exporter sinks. Both write files by design.
    const bool isSinkHome = !isLibrary ||
                            startsWith(relPath, "src/trace/") ||
                            startsWith(relPath, "src/metrics/");
    const bool isStatHome = !isLibrary ||
                            startsWith(relPath, "src/metrics/") ||
                            relPath == "src/core/report.cc";

    for (std::size_t n = 0; n < lines.size(); ++n) {
        const std::string &line = lines[n];
        const int lineNo = static_cast<int>(n) + 1;

        // determinism: no wall-clock or libc randomness outside the
        // sanctioned RNG header.
        if (!isRngHome) {
            for (const auto &t : determinismTokens) {
                if (findToken(line, t.token) != std::string::npos)
                    report("determinism", lineNo, t.message);
            }
        }

        // fault-rng: the fault subsystem may only draw randomness
        // from the sanctioned seeded Rng.
        if (startsWith(relPath, "src/fault/")) {
            for (const auto &t : faultRngTokens) {
                if (findToken(line, t.token) != std::string::npos)
                    report("fault-rng", lineNo, t.message);
            }
        }

        // sweep-determinism: the DSE layer may not observe thread or
        // process identity — DesignPoint results and store records
        // must depend only on the trace and config.
        if (startsWith(relPath, "src/dse/")) {
            for (const auto &t : sweepDeterminismTokens) {
                if (findToken(line, t.token) != std::string::npos)
                    report("sweep-determinism", lineNo, t.message);
            }
        }

        // event-alloc: no file of the event kernel allocates by hand.
        if (startsWith(relPath, "src/sim/")) {
            for (const auto &t : eventAllocTokens) {
                if (findToken(line, t.token) != std::string::npos)
                    report("event-alloc", lineNo, t.message);
            }
        }

        // raw-output: console I/O must flow through sim/logging.
        if (isLibrary) {
            for (const auto &t : rawOutputTokens) {
                if (findToken(line, t.token) != std::string::npos)
                    report("raw-output", lineNo, t.message);
            }
        }

        // trace-sink: event/telemetry file output must go through the
        // Tracer API or the metrics exporters; only those subsystems
        // may open file sinks.
        if (!isSinkHome) {
            for (const auto &t : traceSinkTokens) {
                if (findToken(line, t.token) != std::string::npos)
                    report("trace-sink", lineNo, t.message);
            }
        }

        // stat-print: no hand-plumbed per-component stat dumping
        // outside the registry-driven report path.
        if (!isStatHome) {
            for (const auto &t : statPrintTokens) {
                if (findToken(line, t.token) != std::string::npos)
                    report("stat-print", lineNo, t.message);
            }
        }

        // static-state: mutable static/thread_local data breaks
        // concurrent sweeps. Heuristic: a `static`/`thread_local`
        // declaration with no parameter list before any initializer
        // is a variable, not a function declaration.
        std::string t = trim(line);
        bool isStatic = startsWith(t, "static") &&
                        (t.size() == 6 || !identChar(t[6]));
        bool isThreadLocal = startsWith(t, "thread_local") &&
                             (t.size() == 12 || !identChar(t[12]));
        if (isLibrary && (isStatic || isThreadLocal)) {
            std::string rest = t.substr(isStatic ? 6 : 12);
            bool isConst =
                findToken(rest, "const") != std::string::npos ||
                findToken(rest, "constexpr") != std::string::npos ||
                findToken(rest, "constinit") != std::string::npos;
            std::size_t paren = rest.find('(');
            std::size_t assign = rest.find('=');
            bool looksLikeFunction =
                paren != std::string::npos &&
                (assign == std::string::npos || paren < assign);
            if (!isConst && !looksLikeFunction) {
                report("static-state", lineNo,
                       "mutable static/thread_local state breaks "
                       "concurrent sweeps; hang state off the Soc or "
                       "SimObject instead");
            }
        }

        // raw-new-delete: manual ownership outside the EventQueue's
        // documented owning-pointer heap.
        if (isLibrary) {
            for (std::size_t pos = findToken(line, "new");
                 pos != std::string::npos;
                 pos = findToken(line, "new", pos + 1)) {
                report("raw-new-delete", lineNo,
                       "raw new: use std::make_unique/containers; "
                       "only the EventQueue entry heap may allocate "
                       "manually");
            }
            for (std::size_t pos = findToken(line, "delete");
                 pos != std::string::npos;
                 pos = findToken(line, "delete", pos + 1)) {
                // `= delete;` (deleted special member) is not
                // ownership.
                if (prevNonSpace(line, pos) == '=')
                    continue;
                report("raw-new-delete", lineNo,
                       "raw delete: use RAII ownership; only the "
                       "EventQueue entry heap may free manually");
            }
        }
    }

    // include-guard: canonical GENIE_<DIR>_<FILE>_HH naming.
    std::string guard = expectedGuard(relPath);
    if (!guard.empty()) {
        std::string foundGuard;
        int guardLine = 0;
        bool defineOk = false;
        for (std::size_t n = 0; n < lines.size(); ++n) {
            std::string t = trim(lines[n]);
            if (startsWith(t, "#ifndef")) {
                foundGuard = trim(t.substr(7));
                guardLine = static_cast<int>(n) + 1;
                if (n + 1 < lines.size()) {
                    std::string d = trim(lines[n + 1]);
                    defineOk = startsWith(d, "#define") &&
                               trim(d.substr(7)) == foundGuard;
                }
                break;
            }
            if (startsWith(t, "#pragma") || startsWith(t, "#include"))
                break;
        }
        if (foundGuard.empty()) {
            report("include-guard", 1,
                   "missing include guard; expected #ifndef " + guard);
        } else if (foundGuard != guard) {
            report("include-guard", guardLine,
                   "include guard '" + foundGuard +
                       "' should be '" + guard + "'");
        } else if (!defineOk) {
            report("include-guard", guardLine,
                   "#ifndef " + guard +
                       " must be followed by #define " + guard);
        }
    }

    return findings;
}

std::vector<Finding>
lintTree(const std::string &rootDir, const std::string &subdir,
         const Suppressions &suppressions, std::size_t *filesScanned)
{
    namespace fs = std::filesystem;
    std::vector<std::string> relPaths;
    fs::path base = fs::path(rootDir) / subdir;
    std::error_code ec;
    for (fs::recursive_directory_iterator it(base, ec), end;
         it != end && !ec; it.increment(ec)) {
        if (!it->is_regular_file())
            continue;
        std::string ext = it->path().extension().string();
        if (ext != ".hh" && ext != ".cc" && ext != ".cpp" &&
            ext != ".hpp")
            continue;
        relPaths.push_back(
            fs::relative(it->path(), rootDir).generic_string());
    }
    std::sort(relPaths.begin(), relPaths.end());

    if (filesScanned)
        *filesScanned = relPaths.size();

    std::vector<Finding> findings;
    for (const auto &rel : relPaths) {
        std::ifstream in(fs::path(rootDir) / rel);
        std::ostringstream ss;
        ss << in.rdbuf();
        for (auto &f : lintSource(rel, ss.str())) {
            if (!suppressions.matches(f.rule, f.file))
                findings.push_back(std::move(f));
        }
    }
    return findings;
}

} // namespace lint
} // namespace genie
