/**
 * @file
 * genie-verify subsystem tests.
 *
 * Covers the three correctness-tooling layers introduced with the
 * subsystem: the static lint pass (seeded violations against the rule
 * engine, suppression semantics), the runtime bus protocol checker
 * (clean full-system flows plus panics on seeded protocol breaks),
 * and the MOESI transition table.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "accel/dddg.hh"
#include "concurrency.hh"
#include "core/soc.hh"
#include "index.hh"
#include "lint.hh"
#include "mem/bus.hh"
#include "mem/coherence.hh"
#include "mem/dram.hh"
#include "mem/protocol_checker.hh"
#include "sim/logging.hh"
#include "workloads/workload.hh"

namespace genie
{
namespace
{

// --- static pass: rule engine against seeded violations -------------

std::vector<lint::Finding>
lintSnippet(const std::string &path, const std::string &code)
{
    return lint::lintSource(path, code);
}

bool
hasRule(const std::vector<lint::Finding> &fs, const std::string &rule)
{
    for (const auto &f : fs) {
        if (f.rule == rule)
            return true;
    }
    return false;
}

TEST(LintDeterminism, FlagsSeededRandCall)
{
    auto fs = lintSnippet("src/accel/fixture.cc",
                          "int jitter() { return rand() % 7; }\n");
    ASSERT_TRUE(hasRule(fs, "determinism"));
    EXPECT_EQ(fs[0].line, 1);
}

TEST(LintDeterminism, FlagsWallClockAndRandomDevice)
{
    EXPECT_TRUE(hasRule(
        lintSnippet("src/core/x.cc",
                    "auto t = std::chrono::system_clock::now();\n"),
        "determinism"));
    EXPECT_TRUE(hasRule(
        lintSnippet("src/core/x.cc", "std::random_device rd;\n"),
        "determinism"));
    EXPECT_TRUE(hasRule(
        lintSnippet("src/core/x.cc", "seed = std::time(nullptr);\n"),
        "determinism"));
}

TEST(LintDeterminism, SanctionedRngHeaderIsExempt)
{
    // random.hh itself may talk about mt19937 alternatives etc.
    auto fs = lintSnippet("src/sim/random.hh",
                          "std::mt19937 fallback;\n");
    EXPECT_FALSE(hasRule(fs, "determinism"));
}

TEST(LintDeterminism, IgnoresMatchesInCommentsAndStrings)
{
    auto fs = lintSnippet(
        "src/core/x.cc",
        "// rand() would be wrong here\n"
        "const char *msg = \"do not call rand()\";\n"
        "/* std::chrono::system_clock is banned */\n");
    EXPECT_FALSE(hasRule(fs, "determinism"));
}

TEST(LintDeterminism, DoesNotFlagIdentifiersContainingRand)
{
    auto fs = lintSnippet("src/core/x.cc",
                          "int operand(int x); int r = operand(3);\n");
    EXPECT_FALSE(hasRule(fs, "determinism"));
}

TEST(LintFaultRng, FlagsForeignRandomnessInsideFaultSubsystem)
{
    EXPECT_TRUE(hasRule(
        lintSnippet("src/fault/fault_injector.cc",
                    "#include <random>\n"),
        "fault-rng"));
    EXPECT_TRUE(hasRule(
        lintSnippet("src/fault/fault_injector.cc",
                    "std::uniform_int_distribution<int> d(0, 9);\n"),
        "fault-rng"));
    EXPECT_TRUE(hasRule(
        lintSnippet("src/fault/watchdog.cc",
                    "std::bernoulli_distribution coin(0.5);\n"),
        "fault-rng"));
    // rand() in src/fault is already covered by the tree-wide
    // determinism rule.
    EXPECT_TRUE(hasRule(
        lintSnippet("src/fault/fault_injector.cc",
                    "int r = rand() % 2;\n"),
        "determinism"));
}

TEST(LintFaultRng, OnlyAppliesToTheFaultSubsystem)
{
    // <random> elsewhere is a style question for other rules, not a
    // fault-rng violation.
    EXPECT_FALSE(hasRule(
        lintSnippet("src/core/soc.cc", "#include <random>\n"),
        "fault-rng"));
}

TEST(LintFaultRng, SanctionedRngUseIsClean)
{
    auto fs = lintSnippet("src/fault/fault_injector.cc",
                          "#include \"sim/random.hh\"\n"
                          "bool f(Rng &r) { return r.chance(0.5); }\n");
    EXPECT_FALSE(hasRule(fs, "fault-rng"));
    EXPECT_FALSE(hasRule(fs, "determinism"));
}

TEST(LintRawOutput, FlagsCoutAndPrintf)
{
    EXPECT_TRUE(hasRule(
        lintSnippet("src/core/x.cc", "std::cout << 42;\n"),
        "raw-output"));
    EXPECT_TRUE(hasRule(
        lintSnippet("src/core/x.cc", "printf(\"%d\", 42);\n"),
        "raw-output"));
    EXPECT_TRUE(hasRule(
        lintSnippet("src/core/x.cc",
                    "std::fprintf(stderr, \"oops\");\n"),
        "raw-output"));
}

TEST(LintRawOutput, AllowsStringFormattingAndFormatAttribute)
{
    // snprintf/vsnprintf format into buffers, not the console; the
    // printf format __attribute__ is metadata, not a call.
    auto fs = lintSnippet(
        "src/sim/x.cc",
        "int n = std::vsnprintf(nullptr, 0, fmt, ap);\n"
        "std::snprintf(buf, sizeof(buf), \"%d\", v);\n"
        "void warn(const char *fmt, ...)\n"
        "    __attribute__((format(printf, 1, 2)));\n");
    EXPECT_FALSE(hasRule(fs, "raw-output"));
}

TEST(LintIncludeGuard, ComputesCanonicalGuardFromPath)
{
    EXPECT_EQ(lint::expectedGuard("src/mem/bus.hh"),
              "GENIE_MEM_BUS_HH");
    EXPECT_EQ(lint::expectedGuard("src/sim/event_queue.hh"),
              "GENIE_SIM_EVENT_QUEUE_HH");
    EXPECT_EQ(lint::expectedGuard("tests/foo.hh"), "");
    EXPECT_EQ(lint::expectedGuard("src/mem/bus.cc"), "");
}

TEST(LintIncludeGuard, FlagsWrongMissingAndMismatchedDefine)
{
    EXPECT_TRUE(hasRule(
        lintSnippet("src/mem/foo.hh",
                    "#ifndef WRONG_HH\n#define WRONG_HH\n#endif\n"),
        "include-guard"));
    EXPECT_TRUE(hasRule(
        lintSnippet("src/mem/foo.hh", "#include <vector>\n"),
        "include-guard"));
    EXPECT_TRUE(hasRule(
        lintSnippet("src/mem/foo.hh",
                    "#ifndef GENIE_MEM_FOO_HH\n"
                    "#define GENIE_MEM_FOO_XX\n#endif\n"),
        "include-guard"));
    EXPECT_FALSE(hasRule(
        lintSnippet("src/mem/foo.hh",
                    "#ifndef GENIE_MEM_FOO_HH\n"
                    "#define GENIE_MEM_FOO_HH\n#endif\n"),
        "include-guard"));
}

TEST(LintStaticState, FlagsMutableStaticsButNotFunctionsOrConst)
{
    EXPECT_TRUE(hasRule(
        lintSnippet("src/core/x.cc", "static int counter = 0;\n"),
        "static-state"));
    EXPECT_TRUE(hasRule(
        lintSnippet("src/core/x.cc", "static bool initialized;\n"),
        "static-state"));
    EXPECT_TRUE(hasRule(
        lintSnippet("src/core/x.cc", "thread_local int tls = 1;\n"),
        "static-state"));
    // Static member-function declarations and const data are fine.
    EXPECT_FALSE(hasRule(
        lintSnippet("src/core/x.hh",
                    "static std::vector<SocConfig> "
                    "isolated(const SocConfig &base);\n"),
        "static-state"));
    EXPECT_FALSE(hasRule(
        lintSnippet("src/core/x.cc",
                    "static constexpr int kTableSize = 8;\n"),
        "static-state"));
    EXPECT_FALSE(hasRule(
        lintSnippet("src/core/x.cc",
                    "static const char *names[] = {\"a\"};\n"),
        "static-state"));
    // static_cast / static_assert are not the `static` keyword.
    EXPECT_FALSE(hasRule(
        lintSnippet("src/core/x.cc",
                    "static_assert(sizeof(int) == 4);\n"),
        "static-state"));
}

TEST(LintRawNewDelete, FlagsOwnershipButNotDeletedMembers)
{
    EXPECT_TRUE(hasRule(
        lintSnippet("src/core/x.cc", "auto *p = new Entry{};\n"),
        "raw-new-delete"));
    EXPECT_TRUE(hasRule(
        lintSnippet("src/core/x.cc", "delete e;\n"),
        "raw-new-delete"));
    EXPECT_FALSE(hasRule(
        lintSnippet("src/core/x.hh",
                    "EventQueue(const EventQueue &) = delete;\n"
                    "EventQueue &operator=(const EventQueue &) = "
                    "delete;\n"),
        "raw-new-delete"));
    EXPECT_FALSE(hasRule(
        lintSnippet("src/core/x.cc",
                    "// a new miss allocates an MSHR\n"
                    "auto p = std::make_unique<int>(3);\n"),
        "raw-new-delete"));
}

TEST(LintEventAlloc, FlagsManualAllocationInsideTheEventKernel)
{
    EXPECT_TRUE(hasRule(
        lintSnippet("src/sim/event_queue.cc",
                    "void *p = malloc(sizeof(Event));\n"),
        "event-alloc"));
    EXPECT_TRUE(hasRule(
        lintSnippet("src/sim/event_queue.cc", "free(p);\n"),
        "event-alloc"));
    EXPECT_TRUE(hasRule(
        lintSnippet("src/sim/event_queue.hh",
                    "void *operator new(std::size_t n);\n"),
        "event-alloc"));
    // No file of the event kernel is exempt, including a would-be
    // allocator header.
    EXPECT_TRUE(hasRule(
        lintSnippet("src/sim/event_arena.hh",
                    "void *raw = malloc(n); free(raw);\n"),
        "event-alloc"));
}

TEST(LintEventAlloc, OtherSubsystemsAreExempt)
{
    // The rule polices the event kernel only; allocation elsewhere is
    // raw-new-delete's (or a human reviewer's) business.
    EXPECT_FALSE(hasRule(
        lintSnippet("src/mem/dram.cc", "free(ctx);\n"),
        "event-alloc"));
    // Identifiers containing the tokens don't trip the lexer.
    EXPECT_FALSE(hasRule(
        lintSnippet("src/sim/event_queue.cc",
                    "freeAction(e.arg); freeActions.push_back(slot);\n"),
        "event-alloc"));
}

TEST(LintTraceSink, FlagsAdHocFileSinksOutsideTraceHome)
{
    EXPECT_TRUE(hasRule(
        lintSnippet("src/mem/foo.cc",
                    "std::ofstream out(\"events.json\");\n"),
        "trace-sink"));
    EXPECT_TRUE(hasRule(
        lintSnippet("src/dma/foo.cc",
                    "FILE *f = fopen(path, \"w\");\n"),
        "trace-sink"));
}

TEST(LintTraceSink, TraceSubsystemOwnsItsSinks)
{
    // src/trace is where the sanctioned sink lives; its own streams
    // are exempt without a suppression entry.
    EXPECT_FALSE(hasRule(
        lintSnippet("src/trace/tracer.cc",
                    "std::ofstream out(path);\n"),
        "trace-sink"));
}

TEST(LintTraceSink, IgnoresMatchesInCommentsAndStrings)
{
    EXPECT_FALSE(hasRule(
        lintSnippet("src/mem/foo.cc",
                    "// use std::ofstream via the Tracer only\n"
                    "const char *m = \"fopen( is banned here\";\n"),
        "trace-sink"));
}

TEST(LintTraceSink, MetricsSubsystemOwnsItsSinks)
{
    // src/metrics hosts the sanctioned stats/samples exporters; like
    // src/trace, its own file streams are exempt.
    EXPECT_FALSE(hasRule(
        lintSnippet("src/metrics/export.cc",
                    "std::ofstream out(path);\n"),
        "trace-sink"));
}

TEST(LintSweepDeterminism, FlagsThreadIdentityInsideDse)
{
    // Sweep results and store records must be byte-identical
    // across thread counts, so nothing in src/dse may observe which
    // thread or process ran a point.
    EXPECT_TRUE(hasRule(
        lintSnippet("src/dse/sweep_engine.cc",
                    "auto id = std::this_thread::get_id();\n"),
        "sweep-determinism"));
    EXPECT_TRUE(hasRule(
        lintSnippet("src/dse/result_json.cc",
                    "std::thread::id owner;\n"),
        "sweep-determinism"));
    EXPECT_TRUE(hasRule(
        lintSnippet("src/dse/sweep.cc",
                    "auto t = pthread_self();\n"),
        "sweep-determinism"));
    EXPECT_TRUE(hasRule(
        lintSnippet("src/dse/sweep_engine.cc",
                    "record.worker = gettid();\n"),
        "sweep-determinism"));
    EXPECT_TRUE(hasRule(
        lintSnippet("src/dse/result_json.cc",
                    "header.pid = getpid();\n"),
        "sweep-determinism"));
}

TEST(LintSweepDeterminism, OnlyAppliesToDseAndSkipsNonCode)
{
    // Outside src/dse the tokens are legitimate (tests spawn
    // threads; tools may report identity), so the rule is scoped.
    EXPECT_FALSE(hasRule(
        lintSnippet("src/sim/event_queue.cc",
                    "auto id = std::this_thread::get_id();\n"),
        "sweep-determinism"));
    EXPECT_FALSE(hasRule(
        lintSnippet("tools/genie_sweep/main.cc",
                    "auto t = pthread_self();\n"),
        "sweep-determinism"));
    // Comments and strings never trip the rule.
    EXPECT_FALSE(hasRule(
        lintSnippet("src/dse/sweep_engine.cc",
                    "// never call std::this_thread::get_id() here\n"
                    "log(\"worker gettid( trace\");\n"),
        "sweep-determinism"));
    // std::thread itself (spawning workers) is fine; only identity
    // observation is banned.
    EXPECT_FALSE(hasRule(
        lintSnippet("src/dse/sweep_engine.cc",
                    "std::vector<std::thread> pool;\n"
                    "pool.emplace_back(worker, t);\n"),
        "sweep-determinism"));
}

TEST(LintStatPrint, FlagsBespokeStatDumpingOutsideMetrics)
{
    // Hand-plumbed per-component dumping is what the StatRegistry
    // replaced; new call sites must go through the registry.
    EXPECT_TRUE(hasRule(
        lintSnippet("src/dse/foo.cc",
                    "soc.bus().stats().dump(os);\n"),
        "stat-print"));
    EXPECT_TRUE(hasRule(
        lintSnippet("src/mem/foo.cc", "stats().dump(std::cerr);\n"),
        "stat-print"));
}

TEST(LintStatPrint, MetricsAndReportAreSanctioned)
{
    EXPECT_FALSE(hasRule(
        lintSnippet("src/metrics/export.cc",
                    "group.stats().dump(os);\n"),
        "stat-print"));
    EXPECT_FALSE(hasRule(
        lintSnippet("src/core/report.cc",
                    "soc.bus().stats().dump(os);\n"),
        "stat-print"));
}

TEST(LintStatPrint, RegistryDumpIsTheBlessedPath)
{
    EXPECT_FALSE(hasRule(
        lintSnippet("src/dse/foo.cc",
                    "soc.statRegistry().dump(os);\n"),
        "stat-print"));
}

TEST(LintSuppressions, SuppressesByRuleAndPathOnly)
{
    auto s = lint::Suppressions::parse(
        "# comment\n"
        "\n"
        "raw-new-delete src/sim/event_queue.cc\n"
        "* src/legacy/grandfathered.cc\n");
    EXPECT_TRUE(s.matches("raw-new-delete", "src/sim/event_queue.cc"));
    EXPECT_FALSE(s.matches("determinism", "src/sim/event_queue.cc"));
    EXPECT_FALSE(s.matches("raw-new-delete", "src/sim/other.cc"));
    EXPECT_TRUE(s.matches("determinism",
                          "src/legacy/grandfathered.cc"));
    EXPECT_EQ(s.size(), 2u);
}

TEST(LintStrip, PreservesLineStructure)
{
    std::string out = lint::stripCommentsAndStrings(
        "a /* x\ny */ b\n\"str\\\"ing\" // tail\n'c'\n");
    // Same number of newlines in and out.
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
    EXPECT_EQ(out.find("str"), std::string::npos);
    EXPECT_EQ(out.find("tail"), std::string::npos);
    EXPECT_NE(out.find('a'), std::string::npos);
    EXPECT_NE(out.find('b'), std::string::npos);
}

// --- cross-TU declaration index -------------------------------------

lint::DeclIndex
indexOf(std::vector<std::pair<std::string, std::string>> files)
{
    lint::DeclIndex idx;
    for (const auto &[path, code] : files)
        idx.addFile(path, code);
    return idx;
}

std::vector<lint::Finding>
findingsFor(std::vector<std::pair<std::string, std::string>> files,
            const std::string &rule)
{
    auto idx = indexOf(std::move(files));
    std::vector<lint::Finding> out;
    for (auto &f : lint::analyzeConcurrency(idx)) {
        if (f.rule == rule)
            out.push_back(std::move(f));
    }
    return out;
}

TEST(DeclIndex, IndexesClassesFieldsMethodsAndStatics)
{
    auto idx = indexOf(
        {{"src/mem/widget.hh",
          "#include \"sim/types.hh\"\n"
          "namespace genie {\n"
          "class Widget {\n"
          "  public:\n"
          "    void tick();\n"
          "    int size() const { return n; }\n"
          "  private:\n"
          "    int n = 0;\n"
          "    const int limit = 8;\n"
          "    static unsigned live;\n"
          "    std::mutex mutex;\n"
          "    std::atomic<int> refs{0};\n"
          "};\n"
          "int spare = 3;\n"
          "} // namespace genie\n"},
         {"src/mem/widget.cc",
          "#include \"mem/widget.hh\"\n"
          "namespace genie {\n"
          "unsigned Widget::live = 0;\n"
          "void Widget::tick() { ++n; }\n"
          "} // namespace genie\n"}});

    const lint::ClassDecl *w = idx.findClass("Widget");
    ASSERT_NE(w, nullptr);
    EXPECT_EQ(w->file, "src/mem/widget.hh");
    ASSERT_EQ(w->fields.size(), 5u);
    EXPECT_EQ(w->fields[0].name, "n");
    EXPECT_TRUE(w->fields[1].isConst);
    EXPECT_TRUE(w->fields[2].isStatic);
    EXPECT_TRUE(w->fields[3].isSync);
    EXPECT_TRUE(w->fields[4].isAtomic);

    // Methods with and without inline bodies both register; the
    // out-of-line definition lands in functions() with its class.
    ASSERT_EQ(w->methods.size(), 2u);
    bool sawOutOfLine = false;
    for (const auto &fn : idx.functions()) {
        if (fn.name == "tick" && fn.className == "Widget" &&
            fn.file == "src/mem/widget.cc")
            sawOutOfLine = true;
    }
    EXPECT_TRUE(sawOutOfLine);

    // Initialized namespace-scope variables count as statics; the
    // include graph is harvested from the raw text.
    bool sawSpare = false;
    for (const auto &s : idx.statics())
        sawSpare |= s.name == "spare" && s.scope == "namespace";
    EXPECT_TRUE(sawSpare);
    ASSERT_NE(idx.file("src/mem/widget.hh"), nullptr);
    EXPECT_EQ(idx.file("src/mem/widget.hh")->includes,
              std::vector<std::string>{"sim/types.hh"});
}

TEST(DeclIndex, CollectsAnnotationsThroughTheEnclosingChain)
{
    auto idx = indexOf(
        {{"src/dse/outer.hh",
          "namespace genie {\n"
          "class Outer GENIE_THREAD_LOCAL_OK {\n"
          "    struct Inner { int x = 0; };\n"
          "    int guardedValue GENIE_GUARDED_BY(mutex) = 0;\n"
          "    std::mutex mutex;\n"
          "};\n"
          "} // namespace genie\n"}});

    const lint::ClassDecl *outer = idx.findClass("Outer");
    const lint::ClassDecl *inner = idx.findClass("Outer::Inner");
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    EXPECT_EQ(inner->enclosing, "Outer");
    EXPECT_TRUE(
        idx.classHasAnnotation(*outer, "GENIE_THREAD_LOCAL_OK"));
    // Nested classes inherit the enclosing class's coverage.
    EXPECT_TRUE(
        idx.classHasAnnotation(*inner, "GENIE_THREAD_LOCAL_OK"));

    bool sawGuarded = false;
    for (const auto &f : outer->fields) {
        if (f.name != "guardedValue")
            continue;
        ASSERT_EQ(f.annotations.size(), 1u);
        EXPECT_EQ(f.annotations[0].name, "GENIE_GUARDED_BY");
        EXPECT_EQ(f.annotations[0].arg, "mutex");
        sawGuarded = true;
    }
    EXPECT_TRUE(sawGuarded);
}

TEST(DeclIndex, InitializersDoNotLeakIntoDeclaredNames)
{
    // Regression: `bool on = false;` once indexed a field named
    // "false" because the name scan included initializer tokens.
    auto idx = indexOf({{"src/dse/cfg.hh",
                         "namespace genie {\n"
                         "struct Cfg {\n"
                         "    bool on = false;\n"
                         "    unsigned depth = kDefault;\n"
                         "};\n"
                         "} // namespace genie\n"}});
    const lint::ClassDecl *c = idx.findClass("Cfg");
    ASSERT_NE(c, nullptr);
    ASSERT_EQ(c->fields.size(), 2u);
    EXPECT_EQ(c->fields[0].name, "on");
    EXPECT_EQ(c->fields[1].name, "depth");
}

// --- concurrency rules over the index -------------------------------

TEST(LintSharedState, FlagsUnannotatedStaticsAndSharedSetFields)
{
    auto fs = findingsFor(
        {{"src/mem/counters.cc",
          "namespace genie { namespace {\n"
          "unsigned long totalPackets = 0;\n"
          "} }\n"},
         {"src/dse/tally.hh",
          "namespace genie {\n"
          "struct Tally { unsigned hits = 0; };\n"
          "} // namespace genie\n"}},
        "shared-state");
    ASSERT_EQ(fs.size(), 2u);
    EXPECT_EQ(fs[0].file, "src/dse/tally.hh");
    EXPECT_NE(fs[0].message.find("Tally::hits"), std::string::npos);
    EXPECT_EQ(fs[1].file, "src/mem/counters.cc");
    EXPECT_NE(fs[1].message.find("totalPackets"), std::string::npos);
}

TEST(LintSharedState, AnnotationsAndExemptKindsSatisfyTheRule)
{
    auto fs = findingsFor(
        {{"src/dse/tally.hh",
          "namespace genie {\n"
          "struct Tally {\n"
          "    unsigned hits GENIE_GUARDED_BY(mutex) = 0;\n"
          "    std::atomic<unsigned> misses GENIE_SHARED_OK(atomic){0};\n"
          "    const unsigned cap = 8;\n"
          "    std::mutex mutex;\n"
          "};\n"
          "struct Scratch GENIE_THREAD_LOCAL_OK {\n"
          "    unsigned covered = 0;\n"
          "};\n"
          "} // namespace genie\n"},
         {"src/mem/counters.cc",
          "namespace genie { namespace {\n"
          "unsigned hits GENIE_SHARED_OK(atomic counter) = 0;\n"
          "} }\n"}},
        "shared-state");
    EXPECT_TRUE(fs.empty()) << (fs.empty() ? "" : fs[0].message);
}

TEST(LintSharedState, OutsideTheSharedSetOnlyStaticsAreChecked)
{
    // src/mem is not in the shared set: bare members pass, but
    // mutable statics are still everyone's problem.
    auto fs = findingsFor({{"src/mem/bus.hh",
                            "namespace genie {\n"
                            "struct Bus { unsigned inflight = 0; };\n"
                            "} // namespace genie\n"}},
                          "shared-state");
    EXPECT_TRUE(fs.empty());
    EXPECT_FALSE(lint::inSharedSet("src/mem/bus.hh"));
    EXPECT_TRUE(lint::inSharedSet("src/dse/sweep_engine.hh"));
    EXPECT_TRUE(lint::inSharedSet("src/sim/stats.hh"));
}

TEST(LintGuardedBy, LockRequiresAndCtorSatisfyTheContract)
{
    const char *code =
        "namespace genie {\n"
        "class Box {\n"
        "  public:\n"
        "    Box() { value = 1; }\n" // single-owner construction
        "    void addLocked() {\n"
        "        std::lock_guard<std::mutex> lock(mutex);\n"
        "        ++value;\n"
        "    }\n"
        "    int readRequired() GENIE_REQUIRES(mutex)\n"
        "    { return value; }\n"
        "    void addDirect() { mutex.lock(); ++value; }\n"
        "  private:\n"
        "    int value GENIE_GUARDED_BY(mutex) = 0;\n"
        "    std::mutex mutex;\n"
        "};\n"
        "} // namespace genie\n";
    auto fs = findingsFor({{"src/dse/box.hh", code}}, "guarded-by");
    EXPECT_TRUE(fs.empty()) << (fs.empty() ? "" : fs[0].message);
}

TEST(LintGuardedBy, FlagsAccessWithNoLockInScope)
{
    const char *code =
        "namespace genie {\n"
        "class Box {\n"
        "  public:\n"
        "    void addUnlocked() { ++value; }\n"
        "  private:\n"
        "    int value GENIE_GUARDED_BY(mutex) = 0;\n"
        "    std::mutex mutex;\n"
        "};\n"
        "} // namespace genie\n";
    auto fs = findingsFor({{"src/dse/box.hh", code}}, "guarded-by");
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_NE(fs[0].message.find("addUnlocked"), std::string::npos);
    EXPECT_NE(fs[0].message.find("GENIE_GUARDED_BY(mutex)"),
              std::string::npos);
}

TEST(LintGuardedBy, OutOfLineMethodsAreInScope)
{
    auto fs = findingsFor(
        {{"src/dse/box.hh",
          "namespace genie {\n"
          "class Box {\n"
          "    void bump();\n"
          "    int value GENIE_GUARDED_BY(mutex) = 0;\n"
          "    std::mutex mutex;\n"
          "};\n"
          "} // namespace genie\n"},
         {"src/dse/box.cc",
          "#include \"dse/box.hh\"\n"
          "namespace genie {\n"
          "void Box::bump() { ++value; }\n"
          "} // namespace genie\n"}},
        "guarded-by");
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].file, "src/dse/box.cc");
}

TEST(LintEventAffinity, KindTaggedScheduleSitesAreWhitelisted)
{
    // The tagged call keeps its third-argument comma even after
    // string stripping, and it licenses deschedule in the same TU.
    const char *code =
        "namespace genie {\n"
        "void Watchdog::arm() {\n"
        "    eventQueue.scheduleIn(period, check, \"watchdog.check\");\n"
        "    eventQueue.deschedule(pending);\n"
        "}\n"
        "} // namespace genie\n";
    auto fs = findingsFor({{"src/fault/watchdog.cc", code}},
                          "event-affinity");
    EXPECT_TRUE(fs.empty()) << (fs.empty() ? "" : fs[0].message);
}

TEST(LintEventAffinity, FlagsUntaggedScheduleAndOrphanDeschedule)
{
    auto fs = findingsFor(
        {{"src/accel/unit.cc",
          "namespace genie {\n"
          "void Unit::go() { eq.schedule(when, action); }\n"
          "} // namespace genie\n"},
         {"src/accel/other.cc",
          "namespace genie {\n"
          "void Other::halt() { eq.deschedule(evt); }\n"
          "} // namespace genie\n"}},
        "event-affinity");
    ASSERT_EQ(fs.size(), 2u);
    EXPECT_NE(fs[0].message.find("deschedule"), std::string::npos);
    EXPECT_NE(fs[1].message.find("un-tagged"), std::string::npos);
}

TEST(LintEventAffinity, RendezvousSettersNeedAnOwningContext)
{
    const char *offender =
        "namespace genie {\n"
        "void Probe::attach(EventQueue &eq) {\n"
        "    eq.setProfiler(&profiler);\n"
        "}\n"
        "} // namespace genie\n";
    const char *owner =
        "namespace genie {\n"
        "void runPoint(const SocConfig &cfg) {\n"
        "    Soc soc(cfg, trace, dddg);\n"
        "    soc.eventQueue().setProfiler(&profiler);\n"
        "}\n"
        "} // namespace genie\n";
    auto bad = findingsFor({{"src/metrics/probe.cc", offender}},
                           "event-affinity");
    ASSERT_EQ(bad.size(), 1u);
    EXPECT_NE(bad[0].message.find("setProfiler"), std::string::npos);
    // Constructing the Soc locally, or living in src/core, is the
    // single-owner setup phase the rule licenses.
    EXPECT_TRUE(findingsFor({{"src/dse/runner.cc", owner}},
                            "event-affinity")
                    .empty());
    EXPECT_TRUE(findingsFor({{"src/core/soc.cc", offender}},
                            "event-affinity")
                    .empty());
}

TEST(LintEventAffinity, FlowVariantsNeedTagsAndLicenseDeschedule)
{
    // scheduleFlow/scheduleFlowIn are schedule sites like any other:
    // untagged ones are flagged, tagged ones license deschedule.
    auto bad = findingsFor(
        {{"src/mem/port.cc",
          "namespace genie {\n"
          "void Port::push() { eq.scheduleFlow(when, action); }\n"
          "} // namespace genie\n"}},
        "event-affinity");
    ASSERT_EQ(bad.size(), 1u);
    EXPECT_NE(bad[0].message.find("un-tagged"), std::string::npos);

    const char *good =
        "namespace genie {\n"
        "void Port::push() {\n"
        "    eq.scheduleFlowIn(delay, action, \"mem.port\");\n"
        "    eq.deschedule(pending);\n"
        "}\n"
        "} // namespace genie\n";
    EXPECT_TRUE(
        findingsFor({{"src/mem/port.cc", good}}, "event-affinity")
            .empty());
}

TEST(LintFlowSite, TracedTuMustUseFlowScheduling)
{
    // A TU that records spans (calls tracerFor) dropping back to a
    // plain schedule loses the causal edge; the flow variants (and
    // Clocked::scheduleCycles) are the sanctioned paths.
    const char *offender =
        "namespace genie {\n"
        "void Unit::go() {\n"
        "    auto span = eq.tracerFor(this);\n"
        "    eq.scheduleIn(delay, action, \"accel.unit\");\n"
        "}\n"
        "} // namespace genie\n";
    auto fs =
        findingsFor({{"src/accel/unit.cc", offender}}, "flow-site");
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].line, 4);
    EXPECT_NE(fs[0].message.find("scheduleFlow"), std::string::npos);

    const char *fixed =
        "namespace genie {\n"
        "void Unit::go() {\n"
        "    auto span = eq.tracerFor(this);\n"
        "    eq.scheduleFlowIn(delay, action, \"accel.unit\");\n"
        "    scheduleCycles(1, tick, \"accel.unit\");\n"
        "}\n"
        "} // namespace genie\n";
    EXPECT_TRUE(
        findingsFor({{"src/accel/unit.cc", fixed}}, "flow-site")
            .empty());
}

TEST(LintFlowSite, UntracedTusAndTheMechanismAreExempt)
{
    // No tracerFor: plain scheduling is fine (the event-affinity tag
    // rule still applies separately).
    const char *untraced =
        "namespace genie {\n"
        "void Watchdog::arm() {\n"
        "    eq.scheduleIn(period, check, \"fault.watchdog\");\n"
        "}\n"
        "} // namespace genie\n";
    EXPECT_TRUE(
        findingsFor({{"src/fault/watchdog.cc", untraced}}, "flow-site")
            .empty());

    // src/sim (the mechanism) and src/trace (the Tracer) are exempt
    // even when tracerFor appears in the token stream.
    const char *mechanism =
        "namespace genie {\n"
        "void EventQueue::helper() {\n"
        "    tracerFor(this);\n"
        "    schedule(when, action, \"sim.helper\");\n"
        "}\n"
        "} // namespace genie\n";
    EXPECT_TRUE(
        findingsFor({{"src/sim/event_queue.cc", mechanism}},
                    "flow-site")
            .empty());
    EXPECT_TRUE(
        findingsFor({{"src/trace/tracer.cc", mechanism}}, "flow-site")
            .empty());
}

TEST(LintAmbient, FlagsEnvLocaleAndPointerKeyedContainers)
{
    auto fs = findingsFor(
        {{"src/core/cfg.cc",
          "const char *home = std::getenv(\"HOME\");\n"
          "std::map<const Node *, int> order;\n"
          "std::map<std::string, int> byName;\n"
          "std::set<Event *> pending;\n"}},
        "ambient-nondeterminism");
    ASSERT_EQ(fs.size(), 3u);
    EXPECT_NE(fs[0].message.find("environment"), std::string::npos);
    EXPECT_EQ(fs[1].line, 2);
    EXPECT_NE(fs[1].message.find("pointer-keyed"), std::string::npos);
    EXPECT_EQ(fs[2].line, 4);
}

TEST(LintAmbient, ValueKeyedContainersAndToolsSuppressionsWork)
{
    // Value-keyed maps are fine; suppression entries take the
    // rule+path pair just like the per-file rules.
    auto fs = findingsFor(
        {{"src/core/tbl.cc", "std::map<unsigned, Row> rows;\n"}},
        "ambient-nondeterminism");
    EXPECT_TRUE(fs.empty());

    auto s = lint::Suppressions::parse(
        "ambient-nondeterminism tools/genie_sweep/main.cc\n");
    EXPECT_TRUE(s.matches("ambient-nondeterminism",
                          "tools/genie_sweep/main.cc"));
    EXPECT_FALSE(
        s.matches("ambient-nondeterminism", "src/core/tbl.cc"));
}

TEST(SharedStateInventory, ReportsAnnotatedStateAsJson)
{
    auto idx = indexOf(
        {{"src/dse/tally.hh",
          "namespace genie {\n"
          "struct Tally {\n"
          "    unsigned hits GENIE_GUARDED_BY(mutex) = 0;\n"
          "    std::mutex mutex;\n"
          "};\n"
          "} // namespace genie\n"}});
    std::string json = lint::sharedStateInventoryJson(idx);
    EXPECT_NE(json.find("\"schema\": \"genie-analyze-1\""),
              std::string::npos);
    EXPECT_NE(json.find("Tally"), std::string::npos);
    EXPECT_NE(json.find("GENIE_GUARDED_BY"), std::string::npos);
    EXPECT_NE(json.find("mutex"), std::string::npos);
}

// --- runtime layer: bus protocol checker ----------------------------

constexpr Tick busPeriod = 10000; // 100 MHz

class Sink : public BusClient
{
  public:
    void
    recvResponse(const Packet &pkt) override
    {
        responses.push_back(pkt);
    }
    std::vector<Packet> responses;
};

struct CheckedBusFixture : public ::testing::Test
{
    CheckedBusFixture()
        : bus("bus", eq, ClockDomain(busPeriod), {}),
          dram("dram", eq, ClockDomain(busPeriod), bus, {})
    {
        bus.setTarget(&dram);
        bus.enableProtocolChecker();
        port = bus.attachClient(&client, false);
    }

    EventQueue eq;
    SystemBus bus;
    DramCtrl dram;
    Sink client;
    BusPortId port = invalidBusPort;
};

TEST_F(CheckedBusFixture, CleanRoundTripsPassAndRetire)
{
    for (std::uint64_t id = 1; id <= 8; ++id) {
        Packet pkt;
        pkt.cmd = id % 2 ? MemCmd::ReadShared : MemCmd::WriteReq;
        pkt.addr = 0x1000 + id * 64;
        pkt.size = 64;
        pkt.reqId = id;
        bus.sendRequest(port, pkt);
    }
    eq.run();

    ASSERT_NE(bus.protocolChecker(), nullptr);
    EXPECT_EQ(bus.protocolChecker()->requestsSeen(), 8u);
    EXPECT_EQ(bus.protocolChecker()->responsesSeen(), 8u);
    EXPECT_EQ(bus.protocolChecker()->outstanding(), 0u);
    bus.protocolChecker()->checkQuiescent(); // must not panic
    EXPECT_EQ(client.responses.size(), 8u);
}

TEST_F(CheckedBusFixture, DuplicateOutstandingReqIdPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Packet pkt;
    pkt.cmd = MemCmd::ReadShared;
    pkt.addr = 0x1000;
    pkt.size = 64;
    pkt.reqId = 42;
    bus.sendRequest(port, pkt);
    EXPECT_DEATH(bus.sendRequest(port, pkt), "duplicate outstanding");
}

TEST_F(CheckedBusFixture, ResponseWithoutRequestPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Packet resp;
    resp.cmd = MemCmd::ReadResp;
    resp.src = port;
    resp.reqId = 99;
    EXPECT_DEATH(bus.sendResponse(resp),
                 "response without a matching request");
}

TEST(ProtocolChecker, WrongCommandPairingPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    ProtocolChecker checker;
    Packet req;
    req.cmd = MemCmd::ReadShared;
    req.src = 0;
    req.reqId = 7;
    checker.onRequest(req);
    Packet resp = req;
    resp.cmd = MemCmd::WriteResp; // reads must get ReadResp
    EXPECT_DEATH(checker.onResponse(resp), "wrong response pairing");
}

TEST(ProtocolChecker, LeakedRequestFailsQuiescenceCheck)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    ProtocolChecker checker;
    Packet req;
    req.cmd = MemCmd::Writeback;
    req.src = 2;
    req.reqId = 11;
    checker.onRequest(req);
    EXPECT_EQ(checker.outstanding(), 1u);
    EXPECT_DEATH(checker.checkQuiescent(),
                 "never received a response");
}

// --- runtime layer: full-system flows under the checker -------------

struct Prepared
{
    Trace trace;
    Dddg dddg;
    explicit Prepared(const std::string &name)
        : trace(makeWorkload(name)->build().trace), dddg(trace)
    {}
};

void
runCheckedFlow(SocConfig cfg)
{
    Prepared p("stencil-stencil2d");
    Soc soc(cfg, p.trace, p.dddg);
    soc.bus().enableProtocolChecker();
    SocResults r = soc.run();
    EXPECT_GT(r.totalTicks, 0u);

    ProtocolChecker *checker = soc.bus().protocolChecker();
    ASSERT_NE(checker, nullptr);
    // Every reqId must have received exactly one response...
    checker->checkQuiescent();
    EXPECT_EQ(checker->requestsSeen(), checker->responsesSeen());
    EXPECT_GT(checker->requestsSeen(), 0u);
    // ...and the drained flow must leave no live events behind.
    soc.eventQueue().checkDrained();
}

TEST(ProtocolCheckerSystem, DmaOffloadFlowIsProtocolClean)
{
    SocConfig cfg;
    cfg.memType = MemInterface::ScratchpadDma;
    cfg.lanes = 4;
    cfg.spadPartitions = 4;
    cfg.dma.pipelined = true;
    runCheckedFlow(cfg);
}

TEST(ProtocolCheckerSystem, CacheOffloadFlowIsProtocolClean)
{
    SocConfig cfg;
    cfg.memType = MemInterface::Cache;
    cfg.lanes = 4;
    runCheckedFlow(cfg);
}

TEST(ProtocolCheckerSystem, AcpOffloadFlowIsProtocolClean)
{
    // The third interface regime: coherent ACP loads/stores plus
    // interrupt completion and a drained command queue must pair
    // every request with exactly one response, like the two regimes
    // it joins.
    SocConfig cfg;
    cfg.memType = MemInterface::ScratchpadDma;
    cfg.lanes = 4;
    cfg.spadPartitions = 4;
    cfg.iface.memType = IfaceMemType::Acp;
    cfg.iface.completion = CompletionMode::Interrupt;
    cfg.iface.queueDepth = 2;
    cfg.iface.invocations = 2;
    runCheckedFlow(cfg);
}

TEST(ProtocolCheckerSystem, AcpFaultRetriesStayProtocolClean)
{
    // Injected snoop faults force beat reissues; every reissue is a
    // fresh request that must still retire exactly once.
    SocConfig cfg;
    cfg.memType = MemInterface::ScratchpadDma;
    cfg.lanes = 4;
    cfg.spadPartitions = 4;
    cfg.iface.memType = IfaceMemType::Acp;
    cfg.faults.rates[static_cast<unsigned>(FaultSite::AcpSnoop)] =
        0.3;
    cfg.faults.seed = 11;
    runCheckedFlow(cfg);
}

// --- runtime layer: MOESI transition table --------------------------

TEST(MoesiTable, LegalEdgesOfTheProtocol)
{
    using S = CoherenceState;
    using E = CoherenceEvent;
    EXPECT_TRUE(moesiEdgeLegal(S::Invalid, S::Shared, E::FillShared));
    EXPECT_TRUE(
        moesiEdgeLegal(S::Invalid, S::Exclusive, E::FillExclusive));
    EXPECT_TRUE(
        moesiEdgeLegal(S::Invalid, S::Modified, E::FillModified));
    EXPECT_TRUE(moesiEdgeLegal(S::Exclusive, S::Modified, E::StoreHit));
    EXPECT_TRUE(moesiEdgeLegal(S::Modified, S::Modified, E::StoreHit));
    EXPECT_TRUE(moesiEdgeLegal(S::Shared, S::Modified, E::UpgradeDone));
    EXPECT_TRUE(moesiEdgeLegal(S::Owned, S::Modified, E::UpgradeDone));
    EXPECT_TRUE(moesiEdgeLegal(S::Modified, S::Owned, E::SnoopShared));
    EXPECT_TRUE(moesiEdgeLegal(S::Owned, S::Owned, E::SnoopShared));
    EXPECT_TRUE(moesiEdgeLegal(S::Exclusive, S::Shared, E::SnoopShared));
    EXPECT_TRUE(
        moesiEdgeLegal(S::Modified, S::Invalid, E::SnoopExclusive));
    EXPECT_TRUE(moesiEdgeLegal(S::Shared, S::Invalid, E::SnoopUpgrade));
    EXPECT_TRUE(moesiEdgeLegal(S::Owned, S::Invalid, E::Evict));
    EXPECT_TRUE(moesiEdgeLegal(S::Shared, S::Modified, E::Prefill));
}

TEST(MoesiTable, IllegalEdgesAreRejected)
{
    using S = CoherenceState;
    using E = CoherenceEvent;
    // No silent privilege escalation.
    EXPECT_FALSE(moesiEdgeLegal(S::Shared, S::Modified, E::StoreHit));
    EXPECT_FALSE(moesiEdgeLegal(S::Owned, S::Modified, E::StoreHit));
    EXPECT_FALSE(
        moesiEdgeLegal(S::Shared, S::Exclusive, E::FillExclusive));
    // Fills only land on invalid lines.
    EXPECT_FALSE(moesiEdgeLegal(S::Shared, S::Shared, E::FillShared));
    // An upgrade from E/I makes no sense (E upgrades silently; I has
    // nothing to upgrade).
    EXPECT_FALSE(
        moesiEdgeLegal(S::Exclusive, S::Modified, E::UpgradeDone));
    EXPECT_FALSE(
        moesiEdgeLegal(S::Invalid, S::Modified, E::UpgradeDone));
    // Owners never shed dirty responsibility on a ReadShared snoop.
    EXPECT_FALSE(moesiEdgeLegal(S::Owned, S::Shared, E::SnoopShared));
    EXPECT_FALSE(
        moesiEdgeLegal(S::Modified, S::Shared, E::SnoopShared));
    // Invalidating snoops cannot hit an invalid line (the cache
    // filters those before consulting the table).
    EXPECT_FALSE(
        moesiEdgeLegal(S::Invalid, S::Invalid, E::SnoopExclusive));
}

TEST(MoesiTable, StateAndEventNamesAreStable)
{
    EXPECT_STREQ(toString(CoherenceState::Owned), "O");
    EXPECT_STREQ(toString(CoherenceState::Invalid), "I");
    EXPECT_STREQ(toString(CoherenceEvent::SnoopShared), "SnoopShared");
}

} // namespace
} // namespace genie
