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
 * ResultStore. The cache is unbounded: a sweep process wants every
 * point it has seen memoized, and the ResultStore's byte budget is
 * the one bound on kept results.
 */

#ifndef GENIE_DSE_RESULT_CACHE_HH
#define GENIE_DSE_RESULT_CACHE_HH

#include <cstdint>
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
    /** If @p key is cached, copy its results into @p out. Counts a
     * hit or a miss either way. */
    bool lookup(const std::string &key, SocResults &out);

    /** Memoize @p results under @p key. The first writer wins; a
     * concurrent duplicate simulation of the same point produced the
     * identical results, so dropping the second copy is lossless. */
    void insert(const std::string &key, const SocResults &results);

    std::size_t size() const;
    std::uint64_t hits() const;
    std::uint64_t misses() const;

  private:
    mutable std::mutex mutex;
    std::map<std::string, SocResults> entries GENIE_GUARDED_BY(mutex);
    std::uint64_t _hits GENIE_GUARDED_BY(mutex) = 0;
    std::uint64_t _misses GENIE_GUARDED_BY(mutex) = 0;
};

} // namespace genie

#endif // GENIE_DSE_RESULT_CACHE_HH
