#include "result_store.hh"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>
#include <vector>

#include "core/fingerprint.hh"
#include "dse/result_json.hh"
#include "sim/logging.hh"

namespace fs = std::filesystem;

namespace genie
{

namespace
{

constexpr std::array<std::uint32_t, 256>
makeCrcTable()
{
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t n = 0; n < 256; ++n) {
        std::uint32_t c = n;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        table[n] = c;
    }
    return table;
}

constexpr std::array<std::uint32_t, 256> crcTable = makeCrcTable();

const char *recordSuffix = ".rec";
const char *tmpSuffix = ".tmp";

/** Remove the staging file @p file unless its writer still holds
 * the lock it takes for the whole write; a staging file nobody holds
 * is debris from a writer that died before its rename. */
void
sweepStagingFile(const fs::path &file)
{
    int fd = ::open(file.c_str(), O_RDONLY);
    if (fd < 0)
        return;
    if (::flock(fd, LOCK_EX | LOCK_NB) == 0)
        ::unlink(file.c_str());
    ::close(fd);
}

std::string
storeHeaderLine(std::uint32_t crc)
{
    return format("{\"schema\": \"genie-store-2\", \"crc32\": "
                  "\"%08x\"}\n",
                  crc);
}

/** Everything read out of one record file; stack-local to a read. */
struct ReadRecord GENIE_THREAD_LOCAL_OK
{
    bool ok = false;
    const char *why = "";  ///< failure reason when !ok
    std::string key;
    SocResults results;
    std::uint64_t bytes = 0; ///< on-disk size of the record
};

/**
 * Read and verify one record file: schema header, CRC32 of the
 * payload line, and a parseable payload. Verification happens on
 * every read — the store never trusts bytes it did not just check.
 */
ReadRecord
readRecordFile(const std::string &path)
{
    ReadRecord r;
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        r.why = "unreadable";
        return r;
    }
    std::string header, payload;
    if (!std::getline(in, header)) {
        r.why = "empty file";
        return r;
    }
    if (header.find("\"schema\": \"genie-store-2\"") ==
        std::string::npos) {
        r.why = "missing genie-store-2 header";
        return r;
    }
    const std::string needle = "\"crc32\": \"";
    std::size_t pos = header.find(needle);
    if (pos == std::string::npos) {
        r.why = "header lacks crc32";
        return r;
    }
    // Exactly the eight lowercase hex digits storeHeaderLine writes,
    // then the closing quote.
    const std::size_t hex = pos + needle.size();
    if (header.size() < hex + 9 || header[hex + 8] != '"' ||
        header.find_first_not_of("0123456789abcdef", hex) != hex + 8) {
        r.why = "malformed crc32";
        return r;
    }
    std::uint32_t want = static_cast<std::uint32_t>(
        std::strtoul(header.substr(hex, 8).c_str(), nullptr, 16));
    if (!std::getline(in, payload)) {
        r.why = "truncated record (no payload line)";
        return r;
    }
    if (crc32Ieee(payload.data(), payload.size()) != want) {
        r.why = "crc32 mismatch";
        return r;
    }
    if (!parseResultRecordLine(payload, r.key, r.results)) {
        r.why = "unparseable payload";
        return r;
    }
    r.ok = true;
    r.bytes = header.size() + payload.size() + 2; // + two newlines
    return r;
}

/** Best-effort fsync of the directory entry itself. */
void
syncDirectory(const std::string &dir)
{
    int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd >= 0) {
        ::fsync(fd);
        ::close(fd);
    }
}

/**
 * Write @p contents to @p path atomically and durably: readers see
 * either the old file or the complete new one, never a torn write.
 * Returns false (after a warn) on IO failure; never throws.
 */
bool
writeFileDurably(const std::string &path, const std::string &contents)
{
    // Each write stages under its own "<path>.XXXXXX.tmp" name and
    // holds an flock on it until the rename, so concurrent writers —
    // threads or processes — never share a staging file and open()
    // never sweeps a live one. A sweep that won the race unlinked the
    // file before this writer locked it; then start over.
    std::string tmp;
    int fd = -1;
    for (;;) {
        tmp = path + ".XXXXXX" + tmpSuffix;
        fd = ::mkstemps(tmp.data(), static_cast<int>(
                                        std::strlen(tmpSuffix)));
        if (fd < 0) {
            warn("result store: cannot create %s: %s", tmp.c_str(),
                 std::strerror(errno));
            return false;
        }
        struct stat st{};
        if (::flock(fd, LOCK_EX) != 0 || ::fstat(fd, &st) != 0 ||
            st.st_nlink > 0)
            break;
        ::close(fd);
    }
    ::fchmod(fd, 0644);
    std::size_t off = 0;
    while (off < contents.size()) {
        ssize_t n = ::write(fd, contents.data() + off,
                            contents.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            warn("result store: write %s failed: %s", tmp.c_str(),
                 std::strerror(errno));
            ::close(fd);
            ::unlink(tmp.c_str());
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    // The fsync-before-rename is the durability contract: after the
    // rename is visible, the record's bytes are on disk, so a
    // kill -9 can only ever lose records still in their .tmp phase.
    if (::fsync(fd) != 0)
        warn("result store: fsync %s failed", tmp.c_str());
    bool renamed = std::rename(tmp.c_str(), path.c_str()) == 0;
    if (!renamed) {
        warn("result store: rename %s -> %s failed: %s", tmp.c_str(),
             path.c_str(), std::strerror(errno));
        ::unlink(tmp.c_str());
    }
    ::close(fd);
    return renamed;
}

} // namespace

std::uint32_t
crc32Ieee(const void *data, std::size_t size)
{
    const auto *p = static_cast<const unsigned char *>(data);
    std::uint32_t c = 0xffffffffu;
    for (std::size_t i = 0; i < size; ++i)
        c = crcTable[(c ^ p[i]) & 0xffu] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

std::string
ResultStore::path(const std::string &file) const
{
    return _dir + "/" + file;
}

void
ResultStore::open(const std::string &dir, std::uint64_t maxBytes)
{
    std::lock_guard<std::mutex> lock(mutex);
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec) {
        fatal("result store: cannot create directory %s: %s",
              dir.c_str(), ec.message().c_str());
    }
    _dir = dir;
    _budget = maxBytes;
    index.clear();
    lru.clear();
    _bytes = 0;

    // Scan: collect well-formed records oldest-first so the LRU order
    // survives a reopen; sweep dead writers' .tmp debris (a live
    // writer, possibly another process, still holds its lock); move
    // anything corrupt out of the way.
    struct Found
    {
        fs::file_time_type mtime;
        std::string name;
        std::string key;
        std::uint64_t bytes;
    };
    std::vector<Found> found;
    for (const auto &entry : fs::directory_iterator(_dir, ec)) {
        if (!entry.is_regular_file(ec))
            continue;
        std::string name = entry.path().filename().string();
        if (name.size() > 4 &&
            name.compare(name.size() - 4, 4, tmpSuffix) == 0) {
            sweepStagingFile(entry.path());
            continue;
        }
        if (name.size() <= 4 ||
            name.compare(name.size() - 4, 4, recordSuffix) != 0)
            continue;
        ReadRecord rec = readRecordFile(entry.path().string());
        if (!rec.ok) {
            quarantine(name, rec.why);
            continue;
        }
        found.push_back({entry.last_write_time(ec), name, rec.key,
                         rec.bytes});
    }
    std::sort(found.begin(), found.end(),
              [](const Found &a, const Found &b) {
                  if (a.mtime != b.mtime)
                      return a.mtime < b.mtime;
                  return a.name < b.name;
              });
    for (auto &f : found) {
        if (index.count(f.key))
            continue; // duplicate content; keep the older file
        lru.push_back(f.key);
        index[f.key] =
            Record{f.name, f.bytes, std::prev(lru.end())};
        _bytes += f.bytes;
        ++counters.reloaded;
    }
    counters.records = index.size();
    counters.bytes = _bytes;
    evictToBudget();
}

bool
ResultStore::isOpen() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return !_dir.empty();
}

void
ResultStore::quarantine(const std::string &file, const char *why)
    GENIE_REQUIRES(mutex)
{
    std::error_code ec;
    const std::string qdir = _dir + "/" + quarantineSubdir();
    fs::create_directories(qdir, ec);
    fs::rename(path(file), qdir + "/" + file, ec);
    if (ec)
        fs::remove(path(file), ec);
    ++counters.corrupt;
    warn("result store: quarantined corrupt record %s (%s) — the "
         "point will be re-simulated",
         file.c_str(), why);
}

void
ResultStore::touch(const std::string &key) GENIE_REQUIRES(mutex)
{
    auto it = index.find(key);
    if (it == index.end())
        return;
    lru.erase(it->second.lruPos);
    lru.push_back(key);
    it->second.lruPos = std::prev(lru.end());
    // Mirror recency into the filesystem so LRU order survives a
    // reopen; purely best-effort.
    std::error_code ec;
    fs::last_write_time(path(it->second.file),
                        fs::file_time_type::clock::now(), ec);
}

bool
ResultStore::lookup(const std::string &key, SocResults &out)
{
    std::lock_guard<std::mutex> lock(mutex);
    auto it = index.find(key);
    if (it == index.end()) {
        ++counters.misses;
        return false;
    }
    ReadRecord rec = readRecordFile(path(it->second.file));
    bool gone = !rec.ok && std::strcmp(rec.why, "unreadable") == 0;
    if (rec.ok && rec.key != key) {
        // The file changed identity since it was indexed (external
        // interference or a key-hash collision); it is valid for
        // *some* point but not this one, so it must miss.
        rec.ok = false;
        rec.why = "result key mismatch";
    }
    if (!rec.ok) {
        if (!gone)
            quarantine(it->second.file, rec.why);
        _bytes -= std::min(_bytes, it->second.bytes);
        lru.erase(it->second.lruPos);
        index.erase(it);
        counters.records = index.size();
        counters.bytes = _bytes;
        ++counters.misses;
        return false;
    }
    out = rec.results;
    touch(key);
    ++counters.hits;
    return true;
}

void
ResultStore::insert(const std::string &key, const SocResults &results)
{
    std::lock_guard<std::mutex> lock(mutex);
    if (_dir.empty())
        panic("result store: insert before open()");
    auto it = index.find(key);
    if (it != index.end()) {
        // First writer wins: an identical point was stored while we
        // simulated. Refresh recency only.
        touch(key);
        return;
    }

    const std::string payload = resultRecordLine(key, results);
    std::uint32_t crc = crc32Ieee(payload.data(), payload.size());
    const std::string contents =
        storeHeaderLine(crc) + payload + "\n";

    // Content address: the key's hash names the file. Two live keys
    // sharing a 64-bit hash would overwrite each other's file; the
    // record's embedded key turns that into a miss, never a wrong
    // result.
    const std::string name =
        fingerprintHex(fnv1a64(key)) + recordSuffix;
    if (!writeFileDurably(path(name), contents))
        return; // warned already; the store is a cache, not a gate
    syncDirectory(_dir);

    lru.push_back(key);
    index[key] = Record{name, contents.size(), std::prev(lru.end())};
    _bytes += contents.size();
    ++counters.inserts;
    counters.records = index.size();
    counters.bytes = _bytes;
    evictToBudget();
}

void
ResultStore::evictToBudget() GENIE_REQUIRES(mutex)
{
    if (_budget == 0)
        return;
    // The newest record is always retained, even when it alone
    // exceeds the budget — evicting what was just inserted would turn
    // a tight budget into a store that caches nothing.
    while (_bytes > _budget && lru.size() > 1) {
        const std::string victim = lru.front();
        auto it = index.find(victim);
        if (it == index.end()) {
            lru.pop_front();
            continue;
        }
        std::error_code ec;
        fs::remove(path(it->second.file), ec);
        _bytes -= std::min(_bytes, it->second.bytes);
        lru.pop_front();
        index.erase(it);
        ++counters.evictions;
    }
    counters.records = index.size();
    counters.bytes = _bytes;
}

ResultStoreStats
ResultStore::stats() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return counters;
}

} // namespace genie
