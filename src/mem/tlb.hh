/**
 * @file
 * The accelerator TLB (Section III-D).
 *
 * gem5-Aladdin's accelerators are trace-driven, so the addresses in the
 * trace do not directly correspond to the simulated address space. The
 * Aladdin TLB translates a trace address to a simulated virtual address
 * and then to a simulated physical address. We model the same two-step
 * mapping: arrays registered with the TLB receive simulated virtual
 * bases, and pages are lazily mapped to sequential physical frames.
 *
 * Timing: a small fully-associative structure (8 entries in the paper)
 * with LRU replacement; hits are free (folded into the cache access);
 * misses cost a fixed pre-characterized page-walk penalty (200 ns).
 */

#ifndef GENIE_MEM_TLB_HH
#define GENIE_MEM_TLB_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/clocked.hh"
#include "sim/sim_object.hh"

namespace genie
{

class AladdinTlb : public SimObject, public Clocked
{
  public:
    struct Params
    {
        unsigned entries = 8;
        Tick missLatency = 200 * tickPerNs;
        unsigned pageBytes = 4096;
        /** Simulated-physical base of the accelerator's data segment. */
        Addr physBase = 0x10000000;
    };

    using TranslateCallback = std::function<void(Addr paddr)>;

    AladdinTlb(std::string name, EventQueue &eq, ClockDomain domain,
               Params params);

    /**
     * Translate trace address @p vaddr. A hit returns the physical
     * address at once (zero added latency). A miss returns
     * std::nullopt and parks @p onMiss, which runs with the physical
     * address after the page-walk penalty; only a miss turns it into
     * a TranslateCallback.
     */
    template <typename OnMiss>
    std::optional<Addr>
    translate(Addr vaddr, OnMiss &&onMiss)
    {
        if (std::optional<Addr> paddr = lookup(vaddr))
            return paddr;
        walk(vaddr, TranslateCallback(std::forward<OnMiss>(onMiss)));
        return std::nullopt;
    }

    /** Functional translation with no timing side effects. */
    Addr translateFunctional(Addr vaddr);

    double hitRate() const;

    /** Number of distinct pages touched so far. */
    std::size_t pagesMapped() const { return pageTable.size(); }

  private:
    struct TlbEntry
    {
        Addr vpn = 0;
        Addr pfn = 0;
        std::uint64_t lastUse = 0;
        bool valid = false;
    };

    Addr vpn(Addr vaddr) const { return vaddr / params.pageBytes; }

    /** The hit half of translate(): the physical address if an entry
     * maps @p vaddr's page (counted as a hit), else std::nullopt. */
    std::optional<Addr> lookup(Addr vaddr);

    /** The miss half of translate(): count the miss and park @p cb
     * on a new or in-flight page walk. */
    void walk(Addr vaddr, TranslateCallback cb);

    /** Look up / lazily allocate the physical frame for a page. */
    Addr frameOf(Addr vpn);

    void insert(Addr vpn, Addr pfn);

    Params params;
    std::vector<TlbEntry> entries;
    std::unordered_map<Addr, Addr> pageTable;
    /** Page walks in flight: later misses to the same page coalesce
     * onto the pending walk instead of launching their own (and
     * instead of inserting duplicate entries). */
    std::unordered_map<Addr, std::vector<std::pair<Addr, TranslateCallback>>>
        pendingWalks;
    Addr nextFrame = 0;
    std::uint64_t useCounter = 0;

    Stat &statHits;
    Stat &statMisses;
    Stat &statWalksCoalesced;
    /** Walk timeouts injected by the fault campaign. */
    Stat &statErrors;
    /** Walks reissued after a timeout. */
    Stat &statRetries;
    /** Walks that burned the whole retry budget before completing. */
    Stat &statRetryExhausted;
};

} // namespace genie

#endif // GENIE_MEM_TLB_HH
