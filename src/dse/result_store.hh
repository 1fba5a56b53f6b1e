/**
 * @file
 * ResultStore: the durable, self-verifying, content-addressed store
 * of simulated design points (schema `genie-store-2`) — the one
 * durable result tier.
 *
 * The in-memory ResultCache memoizes points for the lifetime of one
 * process; the ResultStore is its on-disk big sibling, shared across
 * processes, restarts, and days. Re-running an interrupted
 * sweep against the same store replays every finished point as a
 * hit. Records are addressed by result key: the full
 * `trace=<digest> <canonical config>` string of resultKey()
 * (core/fingerprint.hh). The filename is the FNV-1a hash of that key
 * (fingerprintHex), and the record itself carries the full key, so a
 * hash collision degrades to a miss, never to a wrong result — the
 * hash is the index, the key is the identity, exactly as in the
 * ResultCache.
 *
 * Durability and self-verification:
 *
 *  - One record per file. A record is the genie-store-2 header line
 *    (carrying a CRC32 of the payload) followed by one
 *    resultRecordLine() payload line (dse/result_json.hh), through
 *    which results round-trip bit-exactly. Records of any other schema
 *    (genie-store-1 keyed on the config alone) are quarantined like
 *    corrupt ones, so they can only ever miss.
 *  - Writes are atomic: the record is written to a
 *    `<record>.XXXXXX.tmp` sibling private to that write and locked
 *    (flock) by its writer, fsync'd, then renamed into place. A
 *    `kill -9` at any instant leaves either the old state or the new
 *    record, never a torn visible record. open() sweeps `.tmp`
 *    debris nobody holds locked and leaves a live writer's staging
 *    file alone, even one in another process.
 *  - Every read re-verifies the CRC and the result key. A corrupt
 *    record — torn, truncated, bit-flipped, or semantically
 *    mismatched — is *quarantined* (moved to `quarantine/` for
 *    post-mortem) and reported as a miss, so the caller simply
 *    re-simulates the point. Corruption is loud (warn + counters)
 *    but never fatal and never poisons results.
 *  - Concurrent writers are safe by convergence: two processes that
 *    insert the same key write byte-identical records, and the
 *    rename makes whichever finishes last a no-op.
 *
 * Eviction: with a byte budget set, least-recently-used records are
 * unlinked until the store fits. Recency is tracked in memory and
 * mirrored best-effort into file mtimes so it survives reopen.
 */

#ifndef GENIE_DSE_RESULT_STORE_HH
#define GENIE_DSE_RESULT_STORE_HH

#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <string>

#include "core/results.hh"
#include "sim/thread_safety.hh"

namespace genie
{

/** CRC-32 (IEEE 802.3 polynomial, the zlib/PNG convention) of
 * @p size bytes at @p data. Exposed so tests can check it against
 * the standard vectors and corrupt records deliberately. */
std::uint32_t crc32Ieee(const void *data, std::size_t size);

/** Counters describing everything the store has done since open().
 * All monotonic except records/bytes, which track current content. */
struct ResultStoreStats GENIE_THREAD_LOCAL_OK
{
    std::uint64_t hits = 0;       ///< lookups served from disk
    std::uint64_t misses = 0;     ///< lookups that found nothing
    std::uint64_t inserts = 0;    ///< fresh records written
    std::uint64_t evictions = 0;  ///< records unlinked by the budget
    std::uint64_t corrupt = 0;    ///< records quarantined
    std::uint64_t reloaded = 0;   ///< records indexed by open()
    std::size_t records = 0;      ///< records currently indexed
    std::uint64_t bytes = 0;      ///< payload bytes currently indexed
};

class ResultStore
{
  public:
    ResultStore() = default;
    ResultStore(const ResultStore &) = delete;
    ResultStore &operator=(const ResultStore &) = delete;

    /**
     * Open (creating if needed) the store rooted at @p dir with an
     * optional byte budget (@p maxBytes, 0 = unbounded). Scans the
     * directory: well-formed records are indexed oldest-first (so
     * reopen preserves LRU order), corrupt records are quarantined,
     * and `.tmp` debris no live writer holds locked is removed.
     * fatal() only when the directory itself cannot be created.
     */
    void open(const std::string &dir, std::uint64_t maxBytes = 0);

    bool isOpen() const;

    /**
     * If a record for @p key exists and verifies (CRC and result key
     * both match), copy its results into @p out and return true.
     * A corrupt record is quarantined and reported as a miss.
     */
    bool lookup(const std::string &key, SocResults &out);

    /**
     * Durably persist @p results under @p key (atomic write-rename,
     * fsync'd) in a file named after the key's hash. First writer
     * wins; inserting a key that is already indexed only refreshes
     * its recency. May evict least-recently-used records to honor
     * the byte budget.
     */
    void insert(const std::string &key, const SocResults &results);

    /** Snapshot of the store counters. */
    ResultStoreStats stats() const;

    /** The directory this store was opened on ("" before open). */
    const std::string &directory() const { return _dir; }

    /** Subdirectory quarantined records are moved into. */
    static const char *quarantineSubdir() { return "quarantine"; }

  private:
    /** Index entry; only ever reached through the guarded index. */
    struct Record GENIE_THREAD_LOCAL_OK
    {
        std::string file; ///< filename within the store directory
        std::uint64_t bytes = 0;
        std::list<std::string>::iterator lruPos;
    };

    mutable std::mutex mutex;
    /** Root directory; set once by open() before any sharing. */
    std::string _dir GENIE_SHARED_OK(written by open before the store
                                     is shared and read-only after);
    std::uint64_t _budget GENIE_SHARED_OK(written by open before the
                                          store is shared) = 0;
    std::map<std::string, Record> index GENIE_GUARDED_BY(mutex);
    /** Least recently used at the front. */
    std::list<std::string> lru GENIE_GUARDED_BY(mutex);
    std::uint64_t _bytes GENIE_GUARDED_BY(mutex) = 0;
    ResultStoreStats counters GENIE_GUARDED_BY(mutex);

    void quarantine(const std::string &file, const char *why)
        GENIE_REQUIRES(mutex);
    void evictToBudget() GENIE_REQUIRES(mutex);
    void touch(const std::string &key) GENIE_REQUIRES(mutex);
    std::string path(const std::string &file) const;
};

} // namespace genie

#endif // GENIE_DSE_RESULT_STORE_HH
