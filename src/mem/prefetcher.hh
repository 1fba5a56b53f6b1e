/**
 * @file
 * A table-based strided hardware prefetcher (the "Strided" entry in
 * the paper's Figure 3 parameter table).
 *
 * Streams are identified by the accessed array (the accelerator analog
 * of a load PC). Once a stream has produced the same address stride
 * twice in a row, prefetches are issued `degree` strides ahead.
 */

#ifndef GENIE_MEM_PREFETCHER_HH
#define GENIE_MEM_PREFETCHER_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace genie
{

class Cache;

class StridePrefetcher
{
  public:
    StridePrefetcher(Cache &cache, unsigned degree)
        : cache(cache), degree(degree)
    {}

    /** Observe a demand access and possibly issue prefetches. */
    void notify(int streamId, Addr addr);

  private:
    struct StreamEntry
    {
        Addr lastAddr = 0;
        std::int64_t stride = 0;
        unsigned confidence = 0;
        bool primed = false;
    };

    Cache &cache;
    unsigned degree;
    /** Stream entries indexed by array id, grown on first use. */
    std::vector<StreamEntry> table;
};

} // namespace genie

#endif // GENIE_MEM_PREFETCHER_HH
