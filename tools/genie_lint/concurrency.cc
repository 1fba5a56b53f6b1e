#include "concurrency.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace genie
{
namespace lint
{

namespace
{

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.compare(0, prefix.size(), prefix) == 0;
}

bool
fieldAnnotated(const FieldDecl &f)
{
    return !f.annotations.empty();
}

// ---------------------------------------------------------------- //
// shared-state
// ---------------------------------------------------------------- //

void
checkSharedState(const DeclIndex &index, std::vector<Finding> &out)
{
    for (const auto &s : index.statics()) {
        if (!startsWith(s.file, "src/"))
            continue;
        if (s.isConst || !s.annotations.empty())
            continue;
        out.push_back(
            {"shared-state", s.file, s.line,
             "mutable " + s.scope + "-scope static '" + s.name +
                 "' has no thread-safety annotation; declare its "
                 "sharing story with GENIE_SHARED_OK(reason) or "
                 "GENIE_THREAD_LOCAL_OK (src/sim/thread_safety.hh)"});
    }

    for (const auto &c : index.classes()) {
        if (!inSharedSet(c.file))
            continue;
        bool classCovered =
            index.classHasAnnotation(c, "GENIE_THREAD_LOCAL_OK") ||
            index.classHasAnnotation(c, "GENIE_SHARED_OK");
        for (const auto &f : c.fields) {
            if (f.isConst || f.isSync)
                continue;
            if (fieldAnnotated(f) || classCovered)
                continue;
            out.push_back(
                {"shared-state", c.file, f.line,
                 "mutable member '" + c.name + "::" + f.name +
                     "' is reachable from sweep workers and the main "
                     "thread but has no thread-safety annotation; add "
                     "GENIE_GUARDED_BY(m), GENIE_SHARED_OK(reason), "
                     "or GENIE_THREAD_LOCAL_OK "
                     "(src/sim/thread_safety.hh)"});
        }
    }
}

// ---------------------------------------------------------------- //
// guarded-by
// ---------------------------------------------------------------- //

/** Split the joined argument string of a lock declaration on
 * top-level commas and return the last identifier of each piece. */
std::vector<std::string>
lockArgNames(const std::vector<Token> &toks, std::size_t open,
             std::size_t close)
{
    std::vector<std::string> names;
    std::string cur;
    int depth = 0;
    for (std::size_t k = open + 1; k < close; ++k) {
        const std::string &t = toks[k].text;
        if (t == "(" || t == "[" || t == "{" || t == "<")
            ++depth;
        else if (t == ")" || t == "]" || t == "}" || t == ">")
            --depth;
        if (t == "," && depth == 0) {
            names.push_back(lastIdentifier(cur));
            cur.clear();
            continue;
        }
        cur += t;
        cur += ' ';
    }
    if (!cur.empty())
        names.push_back(lastIdentifier(cur));
    return names;
}

/** Index just past the balanced group opening at @p i (tokens). */
std::size_t
matchGroup(const std::vector<Token> &toks, std::size_t i,
           const std::string &open, const std::string &close)
{
    int depth = 0;
    for (; i < toks.size(); ++i) {
        if (toks[i].text == open) {
            ++depth;
        } else if (toks[i].text == close) {
            if (--depth == 0)
                return i;
        }
    }
    return toks.size();
}

/**
 * True if some lock statement in [begin, pos) of @p toks acquires
 * mutex @p m: an RAII guard declaration whose argument resolves to
 * @p m, or a direct `m.lock()` call.
 */
bool
lockHeldBefore(const std::vector<Token> &toks, std::size_t begin,
               std::size_t pos, const std::string &m)
{
    for (std::size_t k = begin; k < pos; ++k) {
        const std::string &t = toks[k].text;
        if (t == "lock_guard" || t == "scoped_lock" ||
            t == "unique_lock") {
            // Skip template arguments to the guard's ctor call.
            std::size_t p = k + 1;
            while (p < pos && toks[p].text != "(")
                ++p;
            if (p >= pos)
                continue;
            std::size_t close = matchGroup(toks, p, "(", ")");
            for (const auto &name : lockArgNames(toks, p, close)) {
                if (name == m)
                    return true;
            }
            k = std::min(close, pos);
        } else if (t == m && k + 2 < pos && toks[k + 1].text == "." &&
                   toks[k + 2].text == "lock") {
            return true;
        }
    }
    return false;
}

bool
requiresMutex(const std::vector<Annotation> &anns,
              const std::string &m)
{
    for (const auto &a : anns) {
        if (a.name == "GENIE_REQUIRES" && lastIdentifier(a.arg) == m)
            return true;
    }
    return false;
}

void
checkGuardedBy(const DeclIndex &index, std::vector<Finding> &out)
{
    for (const auto &c : index.classes()) {
        // Collect this class's guarded fields.
        std::vector<std::pair<std::string, std::string>> guarded;
        for (const auto &f : c.fields) {
            for (const auto &a : f.annotations) {
                if (a.name == "GENIE_GUARDED_BY")
                    guarded.emplace_back(f.name,
                                         lastIdentifier(a.arg));
            }
        }
        if (guarded.empty())
            continue;

        for (const auto &fn : index.functions()) {
            // Scope: functions in the declaring file (they can reach
            // the fields through any instance) plus out-of-line
            // methods of the class anywhere.
            if (fn.file != c.file && fn.className != c.shortName)
                continue;
            if (fn.name == c.shortName ||
                fn.name == "~" + c.shortName)
                continue; // single-owner construction/destruction
            const SourceFile *sf = index.file(fn.file);
            if (!sf)
                continue;
            const auto &toks = sf->tokens;
            for (const auto &[field, mutex] : guarded) {
                if (requiresMutex(fn.annotations, mutex))
                    continue;
                for (std::size_t k = fn.tokenBegin + 1;
                     k < fn.tokenEnd && k < toks.size(); ++k) {
                    if (toks[k].text != field)
                        continue;
                    // Qualified names (Foo::field) are type-ish uses,
                    // not object accesses.
                    if (k > 0 && toks[k - 1].text == "::")
                        continue;
                    if (lockHeldBefore(toks, fn.tokenBegin + 1, k,
                                       mutex))
                        continue;
                    out.push_back(
                        {"guarded-by", fn.file, toks[k].line,
                         "'" + c.name + "::" + field +
                             "' is GENIE_GUARDED_BY(" + mutex +
                             ") but this access in " + fn.name +
                             "() has no lock of '" + mutex +
                             "' in scope; take the lock or annotate "
                             "the function GENIE_REQUIRES(" + mutex +
                             ")"});
                    break; // one finding per field per function
                }
            }
        }
    }
}

// ---------------------------------------------------------------- //
// event-affinity
// ---------------------------------------------------------------- //

bool
isMemberCall(const std::vector<Token> &toks, std::size_t i)
{
    return i > 0 &&
           (toks[i - 1].text == "." || toks[i - 1].text == "->") &&
           i + 1 < toks.size() && toks[i + 1].text == "(";
}

/** Count top-level commas in the call group opening at @p open. */
std::size_t
topLevelCommas(const std::vector<Token> &toks, std::size_t open)
{
    int depth = 0;
    std::size_t commas = 0;
    for (std::size_t k = open; k < toks.size(); ++k) {
        const std::string &t = toks[k].text;
        if (t == "(" || t == "[" || t == "{") {
            ++depth;
        } else if (t == ")" || t == "]" || t == "}") {
            if (--depth == 0)
                break;
        } else if (t == "," && depth == 1) {
            ++commas;
        }
    }
    return commas;
}

void
checkEventAffinity(const DeclIndex &index, std::vector<Finding> &out)
{
    static const char *const setters[] = {
        "setTracer", "setStatRegistry", "setProfiler",
        "setFaultInjector"};

    for (const auto &path : index.filePaths()) {
        if (!startsWith(path, "src/") || startsWith(path, "src/sim/"))
            continue;
        const SourceFile *sf = index.file(path);
        const auto &toks = sf->tokens;

        bool hasTaggedSchedule = false;
        std::vector<std::size_t> descheduleSites;

        for (std::size_t i = 0; i < toks.size(); ++i) {
            const std::string &t = toks[i].text;
            bool stdSched = t == "schedule" || t == "scheduleIn" ||
                            t == "scheduleAt" || t == "scheduleFlow" ||
                            t == "scheduleFlowIn";
            // Genie-Turbo raw-dispatch variants: (tick, fn, ctx,
            // arg, kind), so a kind-tagged call has at least five
            // arguments instead of three.
            bool rawSched = t == "scheduleFlowRaw" ||
                            t == "scheduleFlowRawIn" ||
                            t == "scheduleRaw";
            if ((stdSched || rawSched) && isMemberCall(toks, i)) {
                // A kind-tagged call has at least three arguments:
                // tick, action, kind. (A stripped string-literal kind
                // leaves its comma behind, so the count survives.)
                if (topLevelCommas(toks, i + 1) >=
                    (rawSched ? 4u : 2u)) {
                    hasTaggedSchedule = true;
                } else {
                    out.push_back(
                        {"event-affinity", path, toks[i].line,
                         "un-tagged " + t + "() call: every schedule "
                         "site outside src/sim must pass a kind tag "
                         "naming the owning component, so the "
                         "parallel kernel can enforce queue affinity "
                         "at the sync boundary"});
                }
            } else if (t == "deschedule" && isMemberCall(toks, i)) {
                descheduleSites.push_back(i);
            } else {
                for (const char *setter : setters) {
                    if (t != setter || !isMemberCall(toks, i))
                        continue;
                    if (startsWith(path, "src/core/"))
                        break; // the Soc layer owns its queues
                    // Allowed when this function body constructed the
                    // Soc itself: a single-owner setup phase.
                    bool setupPhase = false;
                    for (const auto &fn : index.functions()) {
                        if (fn.file != path ||
                            fn.tokenBegin >= i || fn.tokenEnd <= i)
                            continue;
                        for (std::size_t k = fn.tokenBegin; k < i;
                             ++k) {
                            if (toks[k].text == "Soc") {
                                setupPhase = true;
                                break;
                            }
                        }
                        if (setupPhase)
                            break;
                    }
                    if (!setupPhase) {
                        out.push_back(
                            {"event-affinity", path, toks[i].line,
                             std::string(setter) +
                                 "() mutates an EventQueue "
                                 "rendezvous slot outside the "
                                 "owning queue's context; only the "
                                 "Soc layer (src/core) or a function "
                                 "that locally constructed the Soc "
                                 "may rebind rendezvous slots"});
                    }
                    break;
                }
            }
        }

        if (!hasTaggedSchedule) {
            for (std::size_t i : descheduleSites) {
                out.push_back(
                    {"event-affinity", path, toks[i].line,
                     "deschedule() in a translation unit with no "
                     "kind-tagged schedule site: a component may only "
                     "cancel events it scheduled itself (queue "
                     "affinity)"});
            }
        }
    }
}

// ---------------------------------------------------------------- //
// flow-site
// ---------------------------------------------------------------- //

/**
 * A translation unit that records spans (it calls tracerFor) must
 * schedule follow-on work through the flow-aware variants —
 * scheduleFlow()/scheduleFlowIn()/scheduleCycles() — so the event
 * queue captures each event's causal origin. A plain schedule()
 * inside a traced TU silently drops the flow edge: the span still
 * renders, but critical-path attribution sees a hole and falls back
 * to an inferred hop. src/sim (the mechanism itself) and src/trace
 * (the Tracer) are exempt.
 */
void
checkFlowSite(const DeclIndex &index, std::vector<Finding> &out)
{
    for (const auto &path : index.filePaths()) {
        if (!startsWith(path, "src/") ||
            startsWith(path, "src/sim/") ||
            startsWith(path, "src/trace/"))
            continue;
        const SourceFile *sf = index.file(path);
        const auto &toks = sf->tokens;

        bool traced = false;
        for (const auto &tok : toks) {
            if (tok.text == "tracerFor") {
                traced = true;
                break;
            }
        }
        if (!traced)
            continue;

        for (std::size_t i = 0; i < toks.size(); ++i) {
            const std::string &t = toks[i].text;
            if ((t == "schedule" || t == "scheduleIn" ||
                 t == "scheduleAt" || t == "scheduleRaw") &&
                isMemberCall(toks, i)) {
                out.push_back(
                    {"flow-site", path, toks[i].line,
                     "plain " + t + "() in a traced translation "
                     "unit (it calls tracerFor): components that "
                     "record spans must schedule through "
                     "scheduleFlow()/scheduleFlowIn()/"
                     "scheduleCycles() (or their Raw variants) so "
                     "the causal origin of the event is captured "
                     "and critical-path attribution stays complete"});
            }
        }
    }
}

// ---------------------------------------------------------------- //
// ambient-nondeterminism
// ---------------------------------------------------------------- //

void
checkAmbient(const DeclIndex &index, std::vector<Finding> &out)
{
    for (const auto &path : index.filePaths()) {
        const SourceFile *sf = index.file(path);
        const auto &toks = sf->tokens;
        for (std::size_t i = 0; i < toks.size(); ++i) {
            const std::string &t = toks[i].text;
            if (t == "getenv" || t == "secure_getenv") {
                out.push_back(
                    {"ambient-nondeterminism", path, toks[i].line,
                     "environment reads make behavior depend on "
                     "ambient process state; take configuration "
                     "through explicit parameters instead"});
            } else if (t == "setlocale" || t == "imbue" ||
                       (t == "locale" && i >= 2 &&
                        toks[i - 1].text == "::" &&
                        toks[i - 2].text == "std")) {
                out.push_back(
                    {"ambient-nondeterminism", path, toks[i].line,
                     "locale-sensitive formatting varies across "
                     "hosts; all serialized output must use the "
                     "classic locale the defaults provide"});
            } else if ((t == "map" || t == "multimap" || t == "set" ||
                        t == "multiset") &&
                       i >= 2 && toks[i - 1].text == "::" &&
                       toks[i - 2].text == "std" &&
                       i + 1 < toks.size() &&
                       toks[i + 1].text == "<") {
                // Pointer-keyed ordered containers iterate in
                // allocation order, which ASLR randomizes.
                bool keyIsPointer = false;
                int depth = 0;
                bool mapLike = t == "map" || t == "multimap";
                for (std::size_t k = i + 1; k < toks.size(); ++k) {
                    const std::string &u = toks[k].text;
                    if (u == "<") {
                        ++depth;
                    } else if (u == ">") {
                        if (--depth == 0)
                            break;
                    } else if (u == "," && depth == 1 && mapLike) {
                        break; // end of the key type
                    } else if (u == "*" && depth == 1) {
                        keyIsPointer = true;
                    } else if (u == "(" || u == ";") {
                        break; // not a template argument list
                    }
                }
                if (keyIsPointer) {
                    out.push_back(
                        {"ambient-nondeterminism", path, toks[i].line,
                         "pointer-keyed std::" + t +
                             " iterates in allocation order, which "
                             "ASLR randomizes run to run; key on a "
                             "stable id (name, index) instead"});
                }
            }
        }
    }
}

} // namespace

bool
inSharedSet(const std::string &relPath)
{
    return startsWith(relPath, "src/dse/") ||
           startsWith(relPath, "src/trace/") ||
           startsWith(relPath, "src/metrics/") ||
           relPath == "src/sim/stats.hh";
}

std::vector<Finding>
analyzeConcurrency(const DeclIndex &index)
{
    std::vector<Finding> out;
    checkSharedState(index, out);
    checkGuardedBy(index, out);
    checkEventAffinity(index, out);
    checkFlowSite(index, out);
    checkAmbient(index, out);
    std::stable_sort(out.begin(), out.end(),
                     [](const Finding &a, const Finding &b) {
                         if (a.file != b.file)
                             return a.file < b.file;
                         return a.line < b.line;
                     });
    return out;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
sharedStateInventoryJson(const DeclIndex &index)
{
    std::ostringstream os;
    os << "{\n  \"schema\": \"genie-analyze-1\",\n";
    os << "  \"files\": " << index.numFiles() << ",\n";

    os << "  \"statics\": [";
    bool first = true;
    for (const auto &s : index.statics()) {
        if (!startsWith(s.file, "src/") || s.isConst)
            continue;
        os << (first ? "\n" : ",\n");
        first = false;
        os << "    {\"name\": \"" << jsonEscape(s.name)
           << "\", \"file\": \"" << jsonEscape(s.file)
           << "\", \"line\": " << s.line << ", \"scope\": \""
           << s.scope << "\", \"annotations\": [";
        for (std::size_t i = 0; i < s.annotations.size(); ++i) {
            if (i)
                os << ", ";
            os << "{\"name\": \"" << jsonEscape(s.annotations[i].name)
               << "\", \"arg\": \""
               << jsonEscape(s.annotations[i].arg) << "\"}";
        }
        os << "]}";
    }
    os << (first ? "" : "\n  ") << "],\n";

    os << "  \"classes\": [";
    first = true;
    for (const auto &c : index.classes()) {
        if (!inSharedSet(c.file))
            continue;
        os << (first ? "\n" : ",\n");
        first = false;
        os << "    {\"name\": \"" << jsonEscape(c.name)
           << "\", \"file\": \"" << jsonEscape(c.file)
           << "\", \"line\": " << c.line << ", \"annotations\": [";
        for (std::size_t i = 0; i < c.annotations.size(); ++i) {
            if (i)
                os << ", ";
            os << "{\"name\": \"" << jsonEscape(c.annotations[i].name)
               << "\", \"arg\": \""
               << jsonEscape(c.annotations[i].arg) << "\"}";
        }
        os << "], \"fields\": [";
        bool firstField = true;
        for (const auto &f : c.fields) {
            os << (firstField ? "\n" : ",\n");
            firstField = false;
            os << "      {\"name\": \"" << jsonEscape(f.name)
               << "\", \"line\": " << f.line << ", \"const\": "
               << (f.isConst ? "true" : "false") << ", \"atomic\": "
               << (f.isAtomic ? "true" : "false") << ", \"sync\": "
               << (f.isSync ? "true" : "false")
               << ", \"annotations\": [";
            for (std::size_t i = 0; i < f.annotations.size(); ++i) {
                if (i)
                    os << ", ";
                os << "{\"name\": \""
                   << jsonEscape(f.annotations[i].name)
                   << "\", \"arg\": \""
                   << jsonEscape(f.annotations[i].arg) << "\"}";
            }
            os << "]}";
        }
        os << (firstField ? "" : "\n    ") << "]}";
    }
    os << (first ? "" : "\n  ") << "]\n}\n";
    return os.str();
}

} // namespace lint
} // namespace genie
