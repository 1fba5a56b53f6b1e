/**
 * @file
 * Full/empty ("ready") bits for DMA-triggered computation
 * (Section IV-B2).
 *
 * Data readiness is tracked at cache-line granularity, consistent with
 * the preceding flush operations. The bits live in a separate SRAM
 * structure indexed by a slice of the load address; a load checks the
 * bit in parallel with the data array and, if the bit is clear, the
 * issuing lane stalls until the DMA engine fills the line and sets the
 * bit, at which point registered waiters are woken.
 */

#ifndef GENIE_MEM_FULL_EMPTY_HH
#define GENIE_MEM_FULL_EMPTY_HH

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/sim_object.hh"
#include "sim/types.hh"

namespace genie
{

class FullEmptyBits : public SimObject
{
  public:
    using Waiter = std::function<void()>;

    /** @p granularityBytes, the bytes each bit covers, is a power of
     * two. */
    FullEmptyBits(std::string name, unsigned granularityBytes);

    /** Register an array of @p sizeBytes; @return its id. All bits
     * start empty. */
    int addArray(std::uint64_t sizeBytes);

    /** Mark every bit of every array full (used when DMA-triggered
     * compute is disabled or data is preloaded). */
    void setAllFull();

    /** Mark [offset, offset+len) of @p arrayId full and wake waiters. */
    void fill(int arrayId, Addr offset, std::uint64_t len);

    /** True if the word at @p offset is ready. */
    bool
    isFull(int arrayId, Addr offset) const
    {
        return isFullChunk(arrayId, chunkOf(offset));
    }

    /** Register a waiter woken when @p offset becomes full. The waiter
     * must re-check; spurious wakeups are allowed. */
    void
    wait(int arrayId, Addr offset, Waiter waiter)
    {
        waitChunk(arrayId, chunkOf(offset), std::move(waiter));
    }

    /** The ready-bit chunk covering @p offset. */
    std::size_t
    chunkOf(Addr offset) const
    {
        return static_cast<std::size_t>(offset >> granularityShift);
    }

    /** isFull() with the chunk already resolved by chunkOf(): the
     * datapath's per-cycle issue path. */
    bool
    isFullChunk(int arrayId, std::size_t chunk) const
    {
        GENIE_ASSERT(arrayId >= 0 &&
                         static_cast<std::size_t>(arrayId) < arrays.size(),
                     "bad full/empty array id %d", arrayId);
        const ArrayBits &a = arrays[static_cast<std::size_t>(arrayId)];
        GENIE_ASSERT(chunk < a.full.size(),
                     "full/empty query out of range (array %d)", arrayId);
        return a.full[chunk];
    }

    /** wait() with the chunk already resolved by chunkOf(). */
    void waitChunk(int arrayId, std::size_t chunk, Waiter waiter);

    /** Estimated ready-bit SRAM bits (for the power model). */
    std::uint64_t storageBits() const;

    double fills() const { return statFills.value(); }
    double stalls() const { return statStalls.value(); }

  private:
    struct ArrayBits
    {
        std::vector<bool> full;
        std::unordered_map<std::size_t, std::vector<Waiter>> waiters;
    };

    unsigned granularity;
    unsigned granularityShift;
    std::vector<ArrayBits> arrays;

    Stat &statFills;
    Stat &statStalls;
};

} // namespace genie

#endif // GENIE_MEM_FULL_EMPTY_HH
