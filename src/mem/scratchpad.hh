/**
 * @file
 * Partitioned accelerator scratchpads.
 *
 * Each workload array mapped to local memory becomes one scratchpad
 * that can be partitioned into smaller banks (cyclic partitioning on
 * the word index) to increase memory bandwidth to the datapath lanes —
 * the paper's "scratchpad partitioning" design parameter. Every
 * partition accepts a limited number of accesses per accelerator cycle
 * (its ports); bank conflicts are resolved by the datapath retrying in
 * the next cycle.
 */

#ifndef GENIE_MEM_SCRATCHPAD_HH
#define GENIE_MEM_SCRATCHPAD_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/clocked.hh"
#include "sim/sim_object.hh"

namespace genie
{

class Scratchpad : public SimObject, public Clocked
{
  public:
    struct ArrayConfig
    {
        std::string name;
        std::uint64_t sizeBytes = 0;
        unsigned wordBytes = 4;
        unsigned partitions = 1;
        /** Read/write ports per partition per cycle. */
        unsigned portsPerPartition = 1;
    };

    Scratchpad(std::string name, EventQueue &eq, ClockDomain domain);

    /** Register an array; @return its array id. */
    int addArray(const ArrayConfig &cfg);

    /** Outcome of a port request to one bank. */
    enum class Access : std::uint8_t
    {
        Conflict, ///< every port of the bank is taken this cycle
        Granted,  ///< granted; the bank has ports left this cycle
        LastPort, ///< granted the bank's last port this cycle
    };

    /**
     * Try to perform an access in the current cycle.
     * @return true if a partition port was granted (data available
     * next cycle); false on a bank conflict, which is counted.
     */
    bool
    tryAccess(int arrayId, Addr offset, bool isWrite)
    {
        if (tryAccessBank(arrayId, bankOf(arrayId, offset), isWrite) !=
            Access::Conflict)
            return true;
        recordConflicts(1);
        return false;
    }

    /** The partition (bank) holding the word at @p offset. */
    std::size_t bankOf(int arrayId, Addr offset) const;

    /** tryAccess() with the bank already resolved by bankOf(): the
     * datapath's per-cycle issue path. A conflict is not counted
     * here; the caller reports it through recordConflicts(). */
    Access
    tryAccessBank(int arrayId, std::size_t bank, bool isWrite)
    {
        ArrayState &st = state(arrayId);
        // Most accesses repeat the last one's tick: skip the divide.
        if (st.stampTick != eventq.curTick()) {
            st.stampTick = eventq.curTick();
            Cycles now = curCycle();
            if (st.stamp != now) {
                st.stamp = now;
                std::fill(st.used.begin(), st.used.end(), 0);
            }
        }
        GENIE_ASSERT(bank < st.used.size(), "bad scratchpad bank %zu",
                     bank);
        if (st.used[bank] >= st.cfg.portsPerPartition)
            return Access::Conflict;
        ++st.used[bank];
        if (isWrite) {
            ++statWrites;
            ++st.writes;
        } else {
            ++statReads;
            ++st.reads;
        }
        return st.used[bank] == st.cfg.portsPerPartition ? Access::LastPort
                                                         : Access::Granted;
    }

    /** Count @p k bank conflicts in the current cycle, with one
     * `conflict` trace instant each. */
    void recordConflicts(std::uint64_t k);

    const ArrayConfig &arrayConfig(int arrayId) const;
    std::size_t numArrays() const { return arrays.size(); }

    /** Total bytes across all arrays (the SRAM sizing input). */
    std::uint64_t totalBytes() const;

    /** Peak words per cycle across all partitions (bandwidth input). */
    unsigned peakAccessesPerCycle() const;

    double reads() const { return statReads.value(); }
    double writes() const { return statWrites.value(); }
    double conflicts() const { return statConflicts.value(); }

    /** Per-array access counts (the power model needs per-bank sizes). */
    std::uint64_t arrayReads(int arrayId) const;
    std::uint64_t arrayWrites(int arrayId) const;

  private:
    struct ArrayState
    {
        ArrayConfig cfg;
        /** Per-partition usage counters, reset each cycle. */
        std::vector<unsigned> used;
        Cycles stamp = 0;
        /** Tick of the last access; its cycle is `stamp`. */
        Tick stampTick = 0;
        std::uint64_t reads = 0;
        std::uint64_t writes = 0;
    };

    const ArrayState &
    state(int arrayId) const
    {
        GENIE_ASSERT(arrayId >= 0 &&
                         static_cast<std::size_t>(arrayId) < arrays.size(),
                     "bad scratchpad array id %d", arrayId);
        return arrays[static_cast<std::size_t>(arrayId)];
    }

    ArrayState &
    state(int arrayId)
    {
        return const_cast<ArrayState &>(std::as_const(*this).state(arrayId));
    }

    std::vector<ArrayState> arrays;

    Stat &statReads;
    Stat &statWrites;
    Stat &statConflicts;
};

} // namespace genie

#endif // GENIE_MEM_SCRATCHPAD_HH
