/**
 * @file
 * A slot table: where a raw-dispatch event's payload waits when it is
 * larger than the event's one argument word.
 *
 * The scheduling component put()s the payload and passes the returned
 * slot index as the event's argument; the handler take()s it back,
 * which frees the slot. Freed slots are reused last-in first-out, so
 * a table grows only to the peak number of payloads parked at once
 * and, once warm, schedules without allocating. Slot numbers carry no
 * meaning beyond the round trip, so reuse never changes results.
 */

#ifndef GENIE_SIM_SLOT_TABLE_HH
#define GENIE_SIM_SLOT_TABLE_HH

#include <cstdint>
#include <utility>
#include <vector>

namespace genie
{

template <typename T>
class SlotTable
{
  public:
    /** Park @p value. @return its slot, valid until take(). */
    std::uint64_t
    put(T value)
    {
        if (freeSlots.empty()) {
            items.push_back(std::move(value));
            return items.size() - 1;
        }
        const std::uint64_t slot = freeSlots.back();
        freeSlots.pop_back();
        items[slot] = std::move(value);
        return slot;
    }

    /** Move the value parked in @p slot out and free the slot. */
    T
    take(std::uint64_t slot)
    {
        T value = std::move(items[slot]);
        freeSlots.push_back(static_cast<std::uint32_t>(slot));
        return value;
    }

  private:
    std::vector<T> items;
    std::vector<std::uint32_t> freeSlots;
};

} // namespace genie

#endif // GENIE_SIM_SLOT_TABLE_HH
