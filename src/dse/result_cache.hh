/**
 * @file
 * ResultCache: a thread-safe memo of simulated design points.
 *
 * Keys are the full result keys from resultKey() (core/
 * fingerprint.hh): the trace digest followed by the canonical config
 * string. That key is the identity — equal keys mean the same kernel
 * under the same result-affecting configuration — so a hash
 * collision can never produce a false hit, and two kernels can share
 * one cache. One cache can be shared across sweeps (the Fig. 6 and
 * Fig. 8 spaces overlap in their all-optimizations DMA points) and
 * across workloads; across processes the durable tier is the
 * ResultStore.
 *
 * Bounding: a CLI sweep lives for one process and wants every point
 * memoized, so the default is unbounded. Long-lived processes (the
 * genie_serve daemon's workers, shared explorer caches) set a
 * max-entry budget instead: the least-recently-used entry is evicted
 * on overflow and counted in evictions(), so a service that sees
 * millions of distinct points over days holds memory flat instead of
 * growing without limit — the durable tier for those evicted points
 * is the on-disk ResultStore.
 */

#ifndef GENIE_DSE_RESULT_CACHE_HH
#define GENIE_DSE_RESULT_CACHE_HH

#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <string>

#include "core/results.hh"
#include "sim/thread_safety.hh"

namespace genie
{

class ResultCache
{
  public:
    /** @p maxEntries bounds the cache (LRU eviction); 0 = unbounded,
     * the right default for one-shot CLI sweeps. */
    explicit ResultCache(std::size_t maxEntries = 0)
        : _maxEntries(maxEntries)
    {}

    /** If @p key is cached, copy its results into @p out. Counts a
     * hit or a miss either way; a hit refreshes LRU recency. */
    bool lookup(const std::string &key, SocResults &out);

    /** Memoize @p results under @p key. The first writer wins; a
     * concurrent duplicate simulation of the same point produced the
     * identical results, so dropping the second copy is lossless.
     * With a budget set, the least-recently-used entry is evicted to
     * make room. */
    void insert(const std::string &key, const SocResults &results);

    std::size_t size() const;
    std::uint64_t hits() const;
    std::uint64_t misses() const;
    /** Entries dropped by the max-entry budget (0 when unbounded). */
    std::uint64_t evictions() const;
    /** The configured budget (0 = unbounded). */
    std::size_t maxEntries() const { return _maxEntries; }

  private:
    /** Cache slot; only ever reached through the guarded map. */
    struct Entry GENIE_THREAD_LOCAL_OK
    {
        SocResults results;
        std::list<std::string>::iterator lruPos;
    };

    mutable std::mutex mutex;
    /** Set at construction, before the cache is shared. */
    const std::size_t _maxEntries;
    std::map<std::string, Entry> entries GENIE_GUARDED_BY(mutex);
    /** Least recently used at the front. */
    std::list<std::string> lru GENIE_GUARDED_BY(mutex);
    std::uint64_t _hits GENIE_GUARDED_BY(mutex) = 0;
    std::uint64_t _misses GENIE_GUARDED_BY(mutex) = 0;
    std::uint64_t _evictions GENIE_GUARDED_BY(mutex) = 0;
};

} // namespace genie

#endif // GENIE_DSE_RESULT_CACHE_HH
