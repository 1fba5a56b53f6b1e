#include "full_empty.hh"

#include "sim/logging.hh"

namespace genie
{

FullEmptyBits::FullEmptyBits(std::string name, unsigned granularityBytes)
    : SimObject(std::move(name)), granularity(granularityBytes),
      granularityShift(floorLog2(granularityBytes)),
      statFills(stats().add("fills", "line-granularity fill events")),
      statStalls(stats().add("stalls", "loads that waited on a bit"))
{
    if (!isPowerOf2(granularity))
        fatal("full/empty granularity %u is not a power of two",
              granularity);
}

int
FullEmptyBits::addArray(std::uint64_t sizeBytes)
{
    ArrayBits bits;
    bits.full.assign(divCeil(sizeBytes, granularity), false);
    arrays.push_back(std::move(bits));
    return static_cast<int>(arrays.size() - 1);
}

void
FullEmptyBits::setAllFull()
{
    for (auto &a : arrays)
        std::fill(a.full.begin(), a.full.end(), true);
}

void
FullEmptyBits::fill(int arrayId, Addr offset, std::uint64_t len)
{
    GENIE_ASSERT(arrayId >= 0 &&
                     static_cast<std::size_t>(arrayId) < arrays.size(),
                 "bad full/empty array id %d", arrayId);
    ArrayBits &a = arrays[static_cast<std::size_t>(arrayId)];
    std::size_t first = chunkOf(offset);
    std::size_t last = chunkOf(offset + len - 1);
    for (std::size_t i = first; i <= last && i < a.full.size(); ++i) {
        if (a.full[i])
            continue;
        a.full[i] = true;
        ++statFills;
        auto it = a.waiters.find(i);
        if (it != a.waiters.end()) {
            std::vector<Waiter> pending = std::move(it->second);
            a.waiters.erase(it);
            for (auto &w : pending)
                w();
        }
    }
}

void
FullEmptyBits::waitChunk(int arrayId, std::size_t chunk, Waiter waiter)
{
    GENIE_ASSERT(arrayId >= 0 &&
                     static_cast<std::size_t>(arrayId) < arrays.size(),
                 "bad full/empty array id %d", arrayId);
    ArrayBits &a = arrays[static_cast<std::size_t>(arrayId)];
    GENIE_ASSERT(chunk < a.full.size(), "full/empty wait out of range");
    ++statStalls;
    a.waiters[chunk].push_back(std::move(waiter));
}

std::uint64_t
FullEmptyBits::storageBits() const
{
    std::uint64_t bits = 0;
    for (const auto &a : arrays)
        bits += a.full.size();
    return bits;
}

} // namespace genie
