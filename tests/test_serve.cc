/**
 * @file
 * Genie-Serve tests: the durable self-verifying ResultStore, the
 * genie-serve-1 protocol, the worker exit-code contract, and the
 * daemon's crash paths — worker SIGKILL with retry and quarantine,
 * timeout SIGTERM-to-SIGKILL escalation, backpressure, spool
 * recovery, and graceful drain.
 *
 * The daemon tests run a real Server (poll loop in a thread, real
 * Unix-domain socket, real forked workers) with the workerCommand
 * test hook substituting `/bin/sh -c ...` for the simulator, so
 * crash and timeout behavior is exercised in milliseconds.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

#include "core/fingerprint.hh"
#include "dse/job.hh"
#include "dse/journal.hh"
#include "dse/result_store.hh"
#include "dse/sweep_engine.hh"
#include "scope/json.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "serve/worker.hh"
#include "workloads/workload.hh"

#ifndef GENIE_SERVE_EXE
#error "tests/CMakeLists.txt must define GENIE_SERVE_EXE"
#endif

namespace fs = std::filesystem;

namespace genie
{
namespace
{

// ---------------------------------------------------------------
// Helpers

std::string
testTag()
{
    const auto *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    return std::string(info->test_suite_name()) + "_" + info->name();
}

/** Fresh per-test scratch directory. */
std::string
scratchDir()
{
    std::string dir = ::testing::TempDir() + "genie_" + testTag();
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

SocResults
sampleResults(double seed)
{
    SocResults r;
    r.totalTicks = static_cast<Tick>(1000 + seed * 7);
    r.accelCycles = static_cast<Cycles>(100 + seed * 3);
    r.energyPj = 1.5 * seed + 0.125;
    r.avgPowerMw = seed / 3.0; // non-terminating binary fraction
    r.edp = seed * 1e-9;
    r.dmaBytes = static_cast<std::uint64_t>(seed) * 64;
    return r;
}

JobDescriptor
sampleJob()
{
    JobDescriptor job;
    job.workload = "stencil-stencil2d";
    job.space = "single";
    job.threads = 1;
    return job;
}

void
writeTextFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary);
    out << text;
}

std::string
readTextFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Flip one payload byte of a store record (line 2, mid-line). */
void
corruptRecord(const std::string &path)
{
    std::string text = readTextFile(path);
    std::size_t nl = text.find('\n');
    ASSERT_NE(nl, std::string::npos);
    ASSERT_LT(nl + 10, text.size());
    text[nl + 10] ^= 0x20;
    writeTextFile(path, text);
}

// ---------------------------------------------------------------
// CRC32 and the record format

TEST(Crc32, MatchesTheIeeeCheckVector)
{
    // The canonical CRC-32 check value: crc("123456789").
    EXPECT_EQ(crc32Ieee("123456789", 9), 0xCBF43926u);
    EXPECT_EQ(crc32Ieee("", 0), 0u);
}

TEST(Crc32, DetectsSingleBitFlips)
{
    std::string payload = "{\"key\": \"lanes=4\", \"x\": 1.25}";
    std::uint32_t clean = crc32Ieee(payload.data(), payload.size());
    payload[5] ^= 1;
    EXPECT_NE(crc32Ieee(payload.data(), payload.size()), clean);
}

// ---------------------------------------------------------------
// ResultStore

TEST(ResultStore, RoundTripsResultsBitExactly)
{
    const std::string dir = scratchDir();
    ResultStore store;
    store.open(dir);
    SocResults in = sampleResults(41.0);
    store.insert("lanes=4", in);

    SocResults out;
    ASSERT_TRUE(store.lookup("lanes=4", out));
    EXPECT_EQ(resultsJson(out), resultsJson(in))
        << "store records must round-trip doubles bit-exactly";
    EXPECT_EQ(store.stats().hits, 1u);
    EXPECT_EQ(store.stats().inserts, 1u);

    SocResults miss;
    EXPECT_FALSE(store.lookup("lanes=8", miss));
    EXPECT_EQ(store.stats().misses, 1u);
}

TEST(ResultStore, SurvivesReopen)
{
    const std::string dir = scratchDir();
    {
        ResultStore store;
        store.open(dir);
        for (int i = 0; i < 3; ++i) {
            store.insert(format("key-%d", i), sampleResults(i + 1));
        }
    }
    ResultStore reopened;
    reopened.open(dir);
    EXPECT_EQ(reopened.stats().reloaded, 3u);
    SocResults out;
    for (int i = 0; i < 3; ++i) {
        EXPECT_TRUE(reopened.lookup(format("key-%d", i), out))
            << "records must survive a process restart";
    }
}

TEST(ResultStore, QuarantinesCorruptRecordOnLookup)
{
    const std::string dir = scratchDir();
    ResultStore store;
    store.open(dir);
    store.insert("poisoned", sampleResults(7.0));

    // Flip one payload byte behind the store's back: the CRC check
    // must catch it, quarantine the file, and report a miss — never
    // return damaged results.
    std::string rec;
    for (const auto &e : fs::directory_iterator(dir)) {
        if (e.path().extension() == ".rec")
            rec = e.path().string();
    }
    ASSERT_FALSE(rec.empty());
    corruptRecord(rec);

    SocResults out;
    EXPECT_FALSE(store.lookup("poisoned", out));
    EXPECT_EQ(store.stats().corrupt, 1u);
    EXPECT_FALSE(fs::exists(rec));
    EXPECT_FALSE(fs::is_empty(dir + "/" +
                              ResultStore::quarantineSubdir()))
        << "the corrupt record must be kept for post-mortem";
}

TEST(ResultStore, ReopenQuarantinesPartialRecordAndSweepsTmp)
{
    const std::string dir = scratchDir();
    {
        ResultStore store;
        store.open(dir);
        store.insert("whole", sampleResults(3.0));
    }
    // A daemon killed mid-insert leaves either a .tmp (never
    // renamed) or, with external interference, a truncated record.
    writeTextFile(dir + "/deadbeef00000000.rec",
                  "{\"schema\": \"genie-store-2\", \"crc32\": "
                  "\"00000000\"}\n");
    writeTextFile(dir + "/cafe000000000000.rec.tmp", "partial");
    // A torn payload whose CRC still matches must fail the parse.
    const std::string torn = "{\"key\": \"torn\", \"results\": {";
    writeTextFile(dir + "/beef000000000000.rec",
                  format("{\"schema\": \"genie-store-2\", "
                         "\"crc32\": \"%08x\"}\n",
                         crc32Ieee(torn.data(), torn.size())) +
                      torn + "\n");

    ResultStore reopened;
    reopened.open(dir);
    EXPECT_EQ(reopened.stats().reloaded, 1u);
    EXPECT_EQ(reopened.stats().corrupt, 2u);
    EXPECT_FALSE(fs::exists(dir + "/cafe000000000000.rec.tmp"))
        << "killed writers' .tmp debris must be swept on open";
    SocResults out;
    EXPECT_TRUE(reopened.lookup("whole", out))
        << "intact records must be unaffected by their corrupt "
           "neighbors";
}

TEST(ResultStore, EvictsLeastRecentlyUsedUnderBudget)
{
    const std::string dir = scratchDir();
    ResultStore store;
    store.open(dir, 1); // absurdly tight: at most one record survives
    store.insert("first", sampleResults(1.0));
    store.insert("second", sampleResults(2.0));
    EXPECT_GE(store.stats().evictions, 1u);
    SocResults out;
    EXPECT_FALSE(store.lookup("first", out))
        << "the older record is the eviction victim";
    EXPECT_TRUE(store.lookup("second", out))
        << "the newest record is always retained, even over budget";
}

TEST(ResultStore, InsertIsFirstWriterWins)
{
    const std::string dir = scratchDir();
    ResultStore store;
    store.open(dir);
    SocResults a = sampleResults(1.0);
    store.insert("k", a);
    store.insert("k", sampleResults(2.0));
    EXPECT_EQ(store.stats().inserts, 1u);
    SocResults out;
    ASSERT_TRUE(store.lookup("k", out));
    EXPECT_EQ(resultsJson(out), resultsJson(a));
}

TEST(ResultStore, KeysSharingOneConfigFingerprintAllRoundTrip)
{
    // Twenty kernels share one config: file names must come from
    // the full key, not the config.
    const std::string dir = scratchDir();
    SocConfig config;
    std::vector<std::string> keys;
    for (std::uint64_t digest = 1; digest <= 20; ++digest)
        keys.push_back(resultKey(digest * 0x9e3779b97f4a7c15ull,
                                 config));
    {
        ResultStore store;
        store.open(dir);
        for (std::size_t i = 0; i < keys.size(); ++i)
            store.insert(keys[i], sampleResults(i + 1.0));
        EXPECT_EQ(store.stats().records, keys.size());
    }
    ResultStore reopened;
    reopened.open(dir);
    EXPECT_EQ(reopened.stats().reloaded, keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
        SocResults out;
        ASSERT_TRUE(reopened.lookup(keys[i], out)) << keys[i];
        EXPECT_EQ(resultsJson(out),
                  resultsJson(sampleResults(i + 1.0)))
            << keys[i];
    }
}

TEST(ResultStore, Store1RecordIsNeverAHit)
{
    // A well-formed record of the old config-only schema, CRC and
    // all, under both the old key and the new one: neither may hit.
    const std::string dir = scratchDir();
    SocConfig config;
    const std::string oldKey = configCanonicalKey(config);
    const std::string newKey = resultKey(0x1234u, config);
    int n = 0;
    for (const std::string &key : {oldKey, newKey}) {
        std::string payload =
            format("{\"fp\": \"%s\", \"key\": \"%s\", ",
                   fingerprintHex(configFingerprint(config)).c_str(),
                   key.c_str()) +
            "\"results\": " + resultsJson(sampleResults(5.0)) + "}";
        writeTextFile(
            dir + format("/%016x.rec", ++n),
            format("{\"schema\": \"genie-store-1\", \"crc32\": "
                   "\"%08x\"}\n",
                   crc32Ieee(payload.data(), payload.size())) +
                payload + "\n");
    }
    ResultStore store;
    store.open(dir);
    EXPECT_EQ(store.stats().reloaded, 0u);
    EXPECT_EQ(store.stats().corrupt, 2u)
        << "old-schema records are quarantined on open";
    SocResults out;
    EXPECT_FALSE(store.lookup(oldKey, out));
    EXPECT_FALSE(store.lookup(newKey, out));
    EXPECT_EQ(store.stats().hits, 0u);
}

TEST(ResultStore, OpenRefusesAPathThatIsAFile)
{
    const std::string dir = scratchDir();
    ResultStore store;
    EXPECT_FALSE(store.isOpen());
    writeTextFile(dir + "/plain", "not a directory");
    EXPECT_THROW(store.open(dir + "/plain"), FatalError);
    EXPECT_FALSE(store.isOpen());
    store.open(dir);
    EXPECT_TRUE(store.isOpen());
}

TEST(ResultStore, InsertBeforeOpenPanics)
{
    ResultStore store;
    EXPECT_DEATH(store.insert("k", sampleResults(1.0)),
                 "insert before open");
}

TEST(ResultStore, ReopenQuarantinesEmptyAndCrcLessRecords)
{
    const std::string dir = scratchDir();
    std::string kept;
    {
        ResultStore store;
        store.open(dir);
        store.insert("kept", sampleResults(2.0));
        for (const auto &e : fs::directory_iterator(dir))
            kept = e.path().string();
    }
    writeTextFile(dir + "/0000000000000001.rec", "");
    writeTextFile(dir + "/0000000000000002.rec",
                  "{\"schema\": \"genie-store-2\"}\npayload\n");
    // A byte-identical copy holds the same key: one index entry.
    fs::copy_file(kept, dir + "/0000000000000003.rec");
    // Neither a directory named like a record nor a foreign file is
    // a record.
    fs::create_directories(dir + "/0000000000000004.rec");
    writeTextFile(dir + "/notes.txt", "ignored");

    ResultStore reopened;
    reopened.open(dir);
    EXPECT_EQ(reopened.stats().reloaded, 1u);
    EXPECT_EQ(reopened.stats().corrupt, 2u);
    EXPECT_TRUE(fs::exists(dir + "/notes.txt"));
    SocResults out;
    EXPECT_TRUE(reopened.lookup("kept", out));
}

/** The one record file in store directory @p dir holding @p key. */
std::string
recordFileOf(const std::string &dir, const std::string &key)
{
    return dir + "/" + fingerprintHex(fnv1a64(key)) + ".rec";
}

TEST(ResultStore, VanishedRecordMissesWithoutQuarantine)
{
    const std::string dir = scratchDir();
    ResultStore store;
    store.open(dir);
    store.insert("gone", sampleResults(4.0));
    ASSERT_TRUE(fs::remove(recordFileOf(dir, "gone")));

    SocResults out;
    EXPECT_FALSE(store.lookup("gone", out));
    EXPECT_EQ(store.stats().corrupt, 0u)
        << "a file deleted behind the store's back is not corrupt";
    EXPECT_EQ(store.stats().records, 0u);
    EXPECT_EQ(store.stats().bytes, 0u);
}

TEST(ResultStore, RecordOfAnotherKeyMissesAndIsQuarantined)
{
    // A valid record under the wrong file name (a key-hash collision
    // or outside interference) is right for some point, not this one.
    const std::string dir = scratchDir();
    ResultStore store;
    store.open(dir);
    store.insert("mine", sampleResults(1.0));
    store.insert("theirs", sampleResults(2.0));
    fs::copy_file(recordFileOf(dir, "theirs"), recordFileOf(dir, "mine"),
                  fs::copy_options::overwrite_existing);

    SocResults out;
    EXPECT_FALSE(store.lookup("mine", out));
    EXPECT_EQ(store.stats().corrupt, 1u);
    ASSERT_TRUE(store.lookup("theirs", out));
    EXPECT_EQ(resultsJson(out), resultsJson(sampleResults(2.0)));
}

TEST(ResultStore, FailedWritesAreDroppedNotFatal)
{
    const std::string dir = scratchDir();
    ResultStore store;
    store.open(dir);

    // The rename onto the record's name fails: a directory is there.
    fs::create_directories(recordFileOf(dir, "blocked") + "/x");
    store.insert("blocked", sampleResults(1.0));
    EXPECT_FALSE(fs::exists(recordFileOf(dir, "blocked") + ".tmp"));
    for (const auto &entry : fs::directory_iterator(dir)) {
        EXPECT_NE(entry.path().extension(), ".tmp")
            << "failed write left its staging file " << entry.path();
    }

    // The temporary file cannot be created: the directory is gone.
    fs::remove_all(dir);
    store.insert("homeless", sampleResults(2.0));

    EXPECT_EQ(store.stats().inserts, 0u);
    EXPECT_EQ(store.stats().records, 0u);
    SocResults out;
    EXPECT_FALSE(store.lookup("blocked", out));
    EXPECT_FALSE(store.lookup("homeless", out));
}

TEST(ResultStore, ConcurrentProcessesAndReopensLoseNoInserts)
{
    // Two processes insert overlapping key ranges into one store
    // while a third keeps reopening it. A reopen sweeps only staging
    // files no live writer holds, so every insert must land and
    // nothing may be quarantined.
    const std::string dir = scratchDir();
    constexpr int perWriter = 60;
    constexpr int overlap = 30;
    auto keyOf = [](int k) { return format("key%03d", k); };

    pid_t writers[2];
    for (int w = 0; w < 2; ++w) {
        writers[w] = ::fork();
        ASSERT_GE(writers[w], 0);
        if (writers[w] == 0) {
            ResultStore store;
            store.open(dir);
            const int first = w * (perWriter - overlap);
            for (int k = first; k < first + perWriter; ++k)
                store.insert(keyOf(k), sampleResults(k));
            ::_exit(store.stats().inserts == perWriter ? 0 : 1);
        }
    }
    int reopens = 0;
    for (int live = 2; live > 0;) {
        ResultStore third;
        third.open(dir);
        EXPECT_EQ(third.stats().corrupt, 0u);
        ++reopens;
        live = 0;
        for (pid_t pid : writers)
            live += ::waitpid(pid, nullptr, WNOHANG) == 0 ? 1 : 0;
    }
    for (pid_t pid : writers) {
        int status = 0;
        ::waitpid(pid, &status, 0);
        EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
            << "a writer lost inserts";
    }
    EXPECT_GT(reopens, 0);

    ResultStore store;
    store.open(dir);
    const int keys = 2 * perWriter - overlap;
    EXPECT_EQ(store.stats().reloaded, static_cast<std::uint64_t>(keys));
    EXPECT_EQ(store.stats().corrupt, 0u);
    EXPECT_FALSE(fs::exists(dir + "/" + ResultStore::quarantineSubdir()));
    for (int k = 0; k < keys; ++k) {
        SocResults out;
        ASSERT_TRUE(store.lookup(keyOf(k), out)) << keyOf(k);
        EXPECT_EQ(resultsJson(out), resultsJson(sampleResults(k)));
    }
    for (const auto &entry : fs::directory_iterator(dir))
        EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
}

// ---------------------------------------------------------------
// SweepEngine + store integration

struct ServeSpace
{
    ServeSpace()
        : trace(makeWorkload("stencil-stencil2d")->build().trace),
          dddg(trace)
    {
        for (unsigned lanes : {1u, 4u}) {
            SocConfig c;
            c.lanes = lanes;
            configs.push_back(c);
        }
    }

    Trace trace;
    Dddg dddg;
    std::vector<SocConfig> configs;
};

ServeSpace &
serveSpace()
{
    static ServeSpace s;
    return s;
}

TEST(SweepEngineStore, WritesThroughAndReplaysAcrossEngines)
{
    const auto &s = serveSpace();
    const std::string dir = scratchDir();

    ResultStore store;
    store.open(dir);
    std::vector<DesignPoint> cold;
    {
        SweepOptions options;
        options.store = &store;
        options.threads = 1;
        SweepEngine engine(std::move(options));
        cold = engine.run(s.configs, s.trace, s.dddg);
        EXPECT_EQ(engine.progress().done, s.configs.size());
        EXPECT_EQ(store.stats().inserts, s.configs.size());
    }
    // A different engine, cold in-memory cache, same store: every
    // point replays from disk — the killed-worker retry path.
    {
        SweepOptions options;
        options.store = &store;
        options.threads = 1;
        SweepEngine engine(std::move(options));
        auto warm = engine.run(s.configs, s.trace, s.dddg);
        EXPECT_EQ(engine.progress().done, 0u);
        EXPECT_EQ(engine.progress().cached, s.configs.size());
        EXPECT_EQ(engine.storeHits(), s.configs.size());
        ASSERT_EQ(warm.size(), cold.size());
        for (std::size_t i = 0; i < warm.size(); ++i) {
            EXPECT_EQ(resultsJson(warm[i].results),
                      resultsJson(cold[i].results))
                << "store-replayed results must be byte-identical";
        }
    }
}

TEST(SweepEngineStore, SharedStoreKeepsKernelsApart)
{
    // Two kernels through one store directory, reopened between them
    // as separate processes would, with one config in common.
    const std::string dir = scratchDir();
    SocConfig narrow;
    narrow.lanes = 1;
    SocConfig shared;
    shared.lanes = 4;
    const std::vector<std::pair<std::string, std::vector<SocConfig>>>
        kernels = {{"gemm-ncubed", {narrow, shared}},
                   {"aes-aes", {shared}}};
    for (const auto &[name, configs] : kernels) {
        Trace trace = makeWorkload(name)->build().trace;
        Dddg dddg(trace);
        ResultStore store;
        store.open(dir);
        SweepOptions options;
        options.store = &store;
        options.threads = 1;
        SweepEngine engine(std::move(options));
        auto points = engine.run(configs, trace, dddg);
        EXPECT_EQ(engine.storeHits(), 0u) << name;
        auto fresh = SweepEngine().run(configs, trace, dddg);
        ASSERT_EQ(points.size(), fresh.size());
        for (std::size_t i = 0; i < points.size(); ++i) {
            EXPECT_EQ(resultsJson(points[i].results),
                      resultsJson(fresh[i].results))
                << name << " must match a fresh single-kernel run";
        }
    }
    ResultStore reopened;
    reopened.open(dir);
    EXPECT_EQ(reopened.stats().reloaded, 3u);
}

TEST(SweepEngineStore, StopRequestedDrainsBeforeDealing)
{
    const auto &s = serveSpace();
    std::atomic<bool> stop{true};
    SweepOptions options;
    options.stopRequested = &stop;
    options.threads = 1;
    SweepEngine engine(std::move(options));
    engine.run(s.configs, s.trace, s.dddg);
    EXPECT_TRUE(engine.interrupted());
    EXPECT_EQ(engine.progress().done, 0u)
        << "a pre-set drain flag must stop before any fresh point";
}

// ---------------------------------------------------------------
// Protocol

TEST(ServeProtocol, JobLineRoundTrips)
{
    JobDescriptor job = sampleJob();
    job.id = "j-000042";
    job.space = "fig6";
    job.filter = "lanes=1,4";
    job.config = {"lanes=4", "spad-partitions=2"};
    job.threads = 3;

    JobDescriptor back;
    std::string error;
    ASSERT_TRUE(parseJobLine(jobJsonLine(job), back, error)) << error;
    EXPECT_EQ(back.id, job.id);
    EXPECT_EQ(back.workload, job.workload);
    EXPECT_EQ(back.space, job.space);
    EXPECT_EQ(back.filter, job.filter);
    EXPECT_EQ(back.config, job.config);
    EXPECT_EQ(back.threads, job.threads);
}

TEST(ServeProtocol, JobLineRejectsGarbage)
{
    JobDescriptor out;
    std::string error;
    EXPECT_FALSE(parseJobLine("not json", out, error));
    EXPECT_FALSE(parseJobLine("{\"workload\": \"x\"}", out, error))
        << "a spool line without the schema tag must be rejected";
    EXPECT_FALSE(error.empty());
}

TEST(ServeProtocol, ParsesSubmitRequests)
{
    JobDescriptor job = sampleJob();
    job.filter = "lanes=1";
    job.config = {"lanes=1"};
    ServeRequest req = parseServeRequest(serveSubmitLine(job));
    ASSERT_EQ(req.op, ServeOp::Submit) << req.error;
    EXPECT_EQ(req.job.workload, job.workload);
    EXPECT_EQ(req.job.space, job.space);
    EXPECT_EQ(req.job.filter, job.filter);
    EXPECT_EQ(req.job.config, job.config);
}

TEST(ServeProtocol, ParsesJobOpsAndRejectsBadInput)
{
    ServeRequest req =
        parseServeRequest(serveJobOpLine("wait", "j-000001"));
    EXPECT_EQ(req.op, ServeOp::Wait);
    EXPECT_EQ(req.jobId, "j-000001");

    EXPECT_EQ(parseServeRequest(serveSimpleOpLine("stats")).op,
              ServeOp::Stats);
    EXPECT_EQ(parseServeRequest(serveSimpleOpLine("drain")).op,
              ServeOp::Drain);

    EXPECT_EQ(parseServeRequest("{\"op\": \"status\"}").op,
              ServeOp::Invalid)
        << "job ops without a job id must not parse";
    EXPECT_EQ(parseServeRequest("{{{").op, ServeOp::Invalid);
    EXPECT_EQ(parseServeRequest("{\"op\": \"launch\"}").op,
              ServeOp::Invalid);
    EXPECT_FALSE(parseServeRequest("{{{").error.empty());
}

TEST(ServeProtocol, StatusLinesAreValidJson)
{
    std::string line = serveStatusLine(
        "j-000009", ServeJobState::Quarantined, 3,
        "quarantined after 3 attempts; last: \"signal 9\"");
    JsonParseResult parsed = parseJson(line);
    ASSERT_TRUE(parsed.ok) << parsed.error;
    EXPECT_EQ(parsed.value.get("state")->string(), "quarantined");
    EXPECT_EQ(parsed.value.get("attempts")->number(), 3.0);
}

// ---------------------------------------------------------------
// Worker exit-code contract (in-process)

TEST(ServeWorker, RunsAJobAndWritesDurableResults)
{
    const std::string dir = scratchDir();
    JobDescriptor job = sampleJob();
    job.id = "j-000001";
    writeTextFile(dir + "/job", jobJsonLine(job));

    ServeWorkerArgs args;
    args.jobPath = dir + "/job";
    args.outPath = dir + "/out";
    args.errPath = dir + "/err";
    args.storeDir = dir + "/store";
    EXPECT_EQ(runServeWorker(args), serveWorkerDone);
    std::string results = readTextFile(dir + "/out");
    EXPECT_NE(results.find("genie-sweep-results-1"),
              std::string::npos);

    ResultStore store;
    store.open(dir + "/store");
    EXPECT_EQ(store.stats().reloaded, 1u)
        << "the worker must write completed points through the "
           "store";
}

TEST(ServeWorker, CorruptStoreRecordIsResimulatedIdentically)
{
    const std::string dir = scratchDir();
    JobDescriptor job = sampleJob();
    writeTextFile(dir + "/job", jobJsonLine(job));

    ServeWorkerArgs args;
    args.jobPath = dir + "/job";
    args.outPath = dir + "/out1";
    args.errPath = dir + "/err";
    args.storeDir = dir + "/store";
    ASSERT_EQ(runServeWorker(args), serveWorkerDone);

    std::string rec;
    for (const auto &e : fs::directory_iterator(dir + "/store")) {
        if (e.path().extension() == ".rec")
            rec = e.path().string();
    }
    ASSERT_FALSE(rec.empty());
    corruptRecord(rec);

    args.outPath = dir + "/out2";
    ASSERT_EQ(runServeWorker(args), serveWorkerDone);
    EXPECT_EQ(readTextFile(dir + "/out2"),
              readTextFile(dir + "/out1"))
        << "a quarantined record must be re-simulated to "
           "byte-identical results";
    EXPECT_TRUE(fs::exists(dir + "/store/quarantine"));
    EXPECT_FALSE(fs::is_empty(dir + "/store/quarantine"));
}

TEST(ServeWorker, PresetStopCheckpointsAndExitsInterrupted)
{
    const std::string dir = scratchDir();
    writeTextFile(dir + "/job", jobJsonLine(sampleJob()));
    std::atomic<bool> stop{true};

    ServeWorkerArgs args;
    args.jobPath = dir + "/job";
    args.outPath = dir + "/out";
    args.errPath = dir + "/err";
    args.stopRequested = &stop;
    EXPECT_EQ(runServeWorker(args), serveWorkerInterrupted);
    EXPECT_FALSE(fs::exists(dir + "/out"))
        << "an interrupted attempt must not publish results";
}

TEST(ServeWorker, MalformedJobFileExitsUserError)
{
    const std::string dir = scratchDir();
    writeTextFile(dir + "/job", "this is not a job\n");
    ServeWorkerArgs args;
    args.jobPath = dir + "/job";
    args.outPath = dir + "/out";
    args.errPath = dir + "/err";
    EXPECT_EQ(runServeWorker(args), serveWorkerUserError);
    EXPECT_FALSE(readTextFile(dir + "/err").empty())
        << "the worker must leave diagnostics for the daemon";
}

// ---------------------------------------------------------------
// Daemon crash paths (real Server, real forked workers)

/** A live daemon on a scratch socket, its poll loop in a thread. */
class TestDaemon
{
  public:
    explicit TestDaemon(std::function<void(ServeOptions &)> tweak = {},
                        bool freshState = true)
    {
        const std::string base =
            ::testing::TempDir() + "gs_" + testTag();
        opts.socketPath = base + ".sock";
        opts.stateDir = base + ".state";
        opts.workers = 1;
        opts.backoffMs = 10;
        opts.drainFlag = &drain;
        if (tweak)
            tweak(opts);
        if (freshState)
            fs::remove_all(opts.stateDir);
        server = std::make_unique<Server>(opts);
        server->start();
        loop = std::thread([this] { exitCode = server->run(); });
    }

    ~TestDaemon() { stop(); }

    /** Drain and join; returns run()'s exit code. */
    int
    stop()
    {
        if (loop.joinable()) {
            drain.store(true);
            loop.join();
        }
        return exitCode;
    }

    const ServeCounters &counters() const
    {
        return server->counters();
    }

    ServeOptions opts;
    std::atomic<bool> drain{false};
    std::unique_ptr<Server> server;
    std::thread loop;
    int exitCode = -1;
};

/** A protocol client: connects, verifies the greeting, trades
 * request lines for response lines. */
class TestClient
{
  public:
    explicit TestClient(const std::string &path)
    {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        EXPECT_LT(path.size(), sizeof(addr.sun_path));
        std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
        fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        EXPECT_GE(fd, 0);
        // The daemon may still be binding; retry briefly.
        for (int i = 0; i < 100; ++i) {
            if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                          sizeof(addr)) == 0)
                break;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
        }
        std::string greeting = readLine();
        EXPECT_NE(greeting.find(serveSchemaName()),
                  std::string::npos);
    }

    ~TestClient()
    {
        if (fd >= 0)
            ::close(fd);
    }

    void
    send(const std::string &line)
    {
        ASSERT_EQ(::send(fd, line.data(), line.size(), MSG_NOSIGNAL),
                  static_cast<ssize_t>(line.size()));
    }

    std::string
    readLine()
    {
        for (;;) {
            std::size_t nl = buf.find('\n');
            if (nl != std::string::npos) {
                std::string line = buf.substr(0, nl);
                buf.erase(0, nl + 1);
                return line;
            }
            char chunk[4096];
            ssize_t n = ::read(fd, chunk, sizeof(chunk));
            if (n <= 0)
                return "";
            buf.append(chunk, static_cast<std::size_t>(n));
        }
    }

    /** Send one request line, return the parsed response. */
    JsonValue
    transact(const std::string &request)
    {
        send(request);
        JsonParseResult parsed = parseJson(readLine());
        EXPECT_TRUE(parsed.ok) << parsed.error;
        return parsed.value;
    }

    static std::string
    field(const JsonValue &doc, const char *key)
    {
        const JsonValue *v = doc.get(key);
        return v && v->isString() ? v->string() : "";
    }

  private:
    int fd = -1;
    std::string buf;
};

TEST(ServeDaemon, CrashedWorkerRetriesThenQuarantines)
{
    TestDaemon daemon([](ServeOptions &o) {
        o.workerCommand = "kill -9 $$";
        o.maxAttempts = 3;
    });
    TestClient client(daemon.opts.socketPath);

    JsonValue sub = client.transact(serveSubmitLine(sampleJob()));
    std::string id = TestClient::field(sub, "job");
    ASSERT_FALSE(id.empty());

    JsonValue done = client.transact(serveJobOpLine("wait", id));
    EXPECT_EQ(TestClient::field(done, "state"), "quarantined")
        << "a job that crashes on every attempt is poison";
    EXPECT_NE(TestClient::field(done, "error").find("signal 9"),
              std::string::npos);
    daemon.stop();
    EXPECT_EQ(daemon.counters().crashes, 3u);
    EXPECT_EQ(daemon.counters().retries, 2u)
        << "each crash short of the cap must re-enqueue the job";
    EXPECT_EQ(daemon.counters().quarantined, 1u);
}

TEST(ServeDaemon, TimeoutEscalatesTermThenKill)
{
    TestDaemon daemon([](ServeOptions &o) {
        // The worker ignores SIGTERM, so only the SIGKILL
        // escalation can end it.
        // Redirect the sleep away from the inherited stdio so the
        // orphan it leaves behind cannot hold the test harness's
        // output pipe open for the full 30 s.
        o.workerCommand = "trap '' TERM; sleep 30 >/dev/null 2>&1";
        o.maxAttempts = 1;
        o.timeoutMs = 100;
        o.termGraceMs = 100;
    });
    TestClient client(daemon.opts.socketPath);

    JsonValue sub = client.transact(serveSubmitLine(sampleJob()));
    JsonValue done = client.transact(
        serveJobOpLine("wait", TestClient::field(sub, "job")));
    EXPECT_EQ(TestClient::field(done, "state"), "quarantined");
    EXPECT_NE(TestClient::field(done, "error")
                  .find("SIGTERM ignored, escalated to SIGKILL"),
              std::string::npos)
        << "the escalation order must be TERM first, then KILL";
    daemon.stop();
    EXPECT_EQ(daemon.counters().timeouts, 1u);
}

TEST(ServeDaemon, TimeoutTermSufficesForCooperativeWorkers)
{
    TestDaemon daemon([](ServeOptions &o) {
        o.workerCommand = "sleep 30 >/dev/null 2>&1";
        o.maxAttempts = 1;
        o.timeoutMs = 100;
        o.termGraceMs = 5000;
    });
    TestClient client(daemon.opts.socketPath);

    JsonValue sub = client.transact(serveSubmitLine(sampleJob()));
    JsonValue done = client.transact(
        serveJobOpLine("wait", TestClient::field(sub, "job")));
    EXPECT_EQ(TestClient::field(done, "state"), "quarantined");
    EXPECT_NE(TestClient::field(done, "error").find("timeout"),
              std::string::npos);
    daemon.stop();
    EXPECT_EQ(daemon.counters().timeouts, 1u);
}

TEST(ServeDaemon, BackpressureRefusesBusyWithoutDroppingAccepted)
{
    TestDaemon daemon([](ServeOptions &o) {
        o.workerCommand = "sleep 0.4";
        o.workers = 1;
        o.maxQueue = 1;
    });
    TestClient client(daemon.opts.socketPath);

    JsonValue first = client.transact(serveSubmitLine(sampleJob()));
    std::string id1 = TestClient::field(first, "job");
    ASSERT_FALSE(id1.empty());
    // Wait until the only worker slot is occupied so admission
    // decisions below are deterministic.
    for (int i = 0; i < 200; ++i) {
        JsonValue st =
            client.transact(serveJobOpLine("status", id1));
        if (TestClient::field(st, "state") == "running")
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }

    JsonValue second = client.transact(serveSubmitLine(sampleJob()));
    std::string id2 = TestClient::field(second, "job");
    ASSERT_FALSE(id2.empty()) << "the queue has room for one";

    JsonValue third = client.transact(serveSubmitLine(sampleJob()));
    EXPECT_EQ(TestClient::field(third, "error"), "busy")
        << "a full queue must refuse, not buffer without bound";

    // Both accepted jobs still complete.
    JsonValue done1 = client.transact(serveJobOpLine("wait", id1));
    EXPECT_EQ(TestClient::field(done1, "state"), "done");
    JsonValue done2 = client.transact(serveJobOpLine("wait", id2));
    EXPECT_EQ(TestClient::field(done2, "state"), "done");
    daemon.stop();
    EXPECT_EQ(daemon.counters().busy, 1u);
    EXPECT_EQ(daemon.counters().completed, 2u);
}

TEST(ServeDaemon, RecoversSpooledJobsAfterRestart)
{
    const std::string base =
        ::testing::TempDir() + "gs_" + testTag();
    fs::remove_all(base + ".state");
    fs::create_directories(base + ".state/spool");
    // A daemon died holding one accepted-but-unfinished job: only
    // its durable spool entry remains.
    JobDescriptor job = sampleJob();
    job.id = "j-000007";
    writeTextFile(base + ".state/spool/j-000007.job",
                  jobJsonLine(job));

    TestDaemon daemon(
        [&](ServeOptions &o) {
            o.socketPath = base + ".sock";
            o.stateDir = base + ".state";
            o.workerCommand = "true";
        },
        /*freshState=*/false);
    TestClient client(daemon.opts.socketPath);
    JsonValue done =
        client.transact(serveJobOpLine("wait", "j-000007"));
    EXPECT_EQ(TestClient::field(done, "state"), "done")
        << "spooled jobs must re-enqueue and finish after restart";

    // The restarted daemon must also never reuse a recovered id.
    JsonValue sub = client.transact(serveSubmitLine(sampleJob()));
    EXPECT_EQ(TestClient::field(sub, "job"), "j-000008");
    daemon.stop();
    EXPECT_EQ(daemon.counters().recovered, 1u);
}

TEST(ServeDaemon, RejectsInvalidSubmissionsUpFront)
{
    TestDaemon daemon;
    TestClient client(daemon.opts.socketPath);

    JobDescriptor bad = sampleJob();
    bad.workload = "no-such-workload";
    JsonValue resp = client.transact(serveSubmitLine(bad));
    EXPECT_NE(TestClient::field(resp, "error").find("unknown"),
              std::string::npos);

    JsonValue unknown =
        client.transact(serveJobOpLine("status", "j-999999"));
    EXPECT_NE(TestClient::field(unknown, "error").find("unknown"),
              std::string::npos);
    EXPECT_EQ(daemon.stop(), 0);
}

TEST(ServeDaemon, DrainFinishesRunningWorkAndExitsZero)
{
    TestDaemon daemon([](ServeOptions &o) {
        o.workerCommand = "sleep 0.2";
    });
    TestClient client(daemon.opts.socketPath);
    JsonValue sub = client.transact(serveSubmitLine(sampleJob()));
    std::string id = TestClient::field(sub, "job");
    ASSERT_FALSE(id.empty());
    for (int i = 0; i < 200; ++i) {
        JsonValue st = client.transact(serveJobOpLine("status", id));
        if (TestClient::field(st, "state") == "running")
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_EQ(daemon.stop(), 0)
        << "a drain must wait for the running worker and exit 0";
    EXPECT_EQ(daemon.counters().completed, 1u);
}

TEST(ServeDaemon, OneDaemonKeepsKernelsApart)
{
    // Real workers sharing the daemon's one store: the second
    // kernel's job shares its config with the first and must still
    // get its own results, byte-equal to a fresh single-kernel run.
    TestDaemon daemon([](ServeOptions &o) {
        o.selfExe = GENIE_SERVE_EXE;
    });
    TestClient client(daemon.opts.socketPath);
    for (const char *workload : {"gemm-ncubed", "aes-aes"}) {
        JobDescriptor job = sampleJob();
        job.workload = workload;
        job.config = {"lanes=4", "partitions=4"};
        JsonValue sub = client.transact(serveSubmitLine(job));
        std::string id = TestClient::field(sub, "job");
        ASSERT_FALSE(id.empty()) << workload;
        JsonValue done = client.transact(serveJobOpLine("wait", id));
        ASSERT_EQ(TestClient::field(done, "state"), "done")
            << workload << ": " << TestClient::field(done, "error");

        SweepEngine engine;
        std::ostringstream fresh;
        writeSweepResultsJson(fresh, runJob(job, engine), workload);
        EXPECT_EQ(readTextFile(daemon.opts.stateDir + "/spool/" + id +
                               ".out"),
                  fresh.str())
            << workload << " must match a fresh single-kernel run";
    }
    EXPECT_EQ(daemon.stop(), 0);
    EXPECT_EQ(daemon.counters().completed, 2u);
}

} // namespace
} // namespace genie
