/**
 * @file
 * Durable result tier tests: the self-verifying ResultStore (CRC32,
 * bit-exact round trips, quarantine of corrupt and torn records,
 * reopen, LRU budget, first-writer-wins, concurrent writer
 * processes) and the SweepEngine writing through it and replaying
 * from it, which is how several genie_sweep processes share one
 * store and how a killed sweep resumes.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

#include "core/fingerprint.hh"
#include "dse/result_json.hh"
#include "dse/result_store.hh"
#include "dse/sweep_engine.hh"
#include "workloads/workload.hh"

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

TEST(ResultRecordLine, RejectsSignedOverflowingAndJunkCounts)
{
    const std::string good = resultRecordLine("k", sampleResults(3.0));
    const std::string field = "\"total_ticks\": ";
    const std::size_t at = good.find(field) + field.size();
    const std::size_t end = good.find(',', at);
    auto withTicks = [&](const std::string &text) {
        return good.substr(0, at) + text + good.substr(end);
    };

    std::string key;
    SocResults out;
    ASSERT_TRUE(parseResultRecordLine(good, key, out));
    ASSERT_TRUE(
        parseResultRecordLine(withTicks("18446744073709551615"), key, out));
    EXPECT_EQ(out.totalTicks, 18446744073709551615ull);

    // strtoull read "-5" as 2^64 - 5 and clamped an overflow to 2^64 - 1.
    for (const char *bad : {"-5", "99999999999999999999999",
                            "18446744073709551616", "+7", " 7", "12abc",
                            "0x10", ""}) {
        EXPECT_FALSE(parseResultRecordLine(withTicks(bad), key, out))
            << "total_ticks: '" << bad << "'";
    }
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

TEST(ResultStore, ReopenQuarantinesMalformedCrc)
{
    const std::string dir = scratchDir();
    {
        ResultStore store;
        store.open(dir);
        store.insert("k", sampleResults(5.0));
    }
    const std::string good = readTextFile(recordFileOf(dir, "k"));
    const std::string field = "\"crc32\": \"";
    const std::size_t at = good.find(field) + field.size();
    const std::string hex = good.substr(at, 8);
    // Each keeps the right crc for strtoul to find: extra leading
    // digits, a sign, a prefix, a space, trailing junk, too few.
    const std::vector<std::string> bad = {
        "ff" + hex,  "+" + hex,          "0x" + hex,
        " " + hex,   hex + "z",          hex.substr(1)};
    for (std::size_t i = 0; i < bad.size(); ++i) {
        writeTextFile(format("%s/%016zx.rec", dir.c_str(), i + 1),
                      good.substr(0, at) + bad[i] + good.substr(at + 8));
    }

    ResultStore reopened;
    reopened.open(dir);
    EXPECT_EQ(reopened.stats().reloaded, 1u);
    EXPECT_EQ(reopened.stats().corrupt, bad.size());
    SocResults out;
    EXPECT_TRUE(reopened.lookup("k", out));
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


TEST(SweepEngineStore, CorruptStoreRecordIsResimulatedIdentically)
{
    // One sweep into the store, one byte of a record flipped, then
    // the same sweep again as a new process would run it: the bad
    // record is quarantined and its point re-simulated to the same
    // bytes.
    const auto &s = serveSpace();
    const std::string dir = scratchDir();
    auto sweep = [&](std::size_t &simulated) {
        ResultStore store;
        store.open(dir);
        SweepOptions options;
        options.store = &store;
        options.threads = 1;
        SweepEngine engine(std::move(options));
        std::ostringstream out;
        writeSweepResultsJson(out, engine.run(s.configs, s.trace, s.dddg),
                              "stencil-stencil2d");
        simulated = engine.progress().done;
        return out.str();
    };

    std::size_t simulated = 0;
    const std::string first = sweep(simulated);
    ASSERT_EQ(simulated, s.configs.size());
    std::string rec;
    for (const auto &e : fs::directory_iterator(dir)) {
        if (e.path().extension() == ".rec")
            rec = e.path().string();
    }
    ASSERT_FALSE(rec.empty());
    corruptRecord(rec);

    EXPECT_EQ(sweep(simulated), first)
        << "a quarantined record must be re-simulated to "
           "byte-identical results";
    EXPECT_EQ(simulated, 1u);
    EXPECT_TRUE(fs::exists(dir + "/quarantine"));
    EXPECT_FALSE(fs::is_empty(dir + "/quarantine"));
}

} // namespace
} // namespace genie
