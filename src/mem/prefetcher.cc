#include "prefetcher.hh"

#include "mem/cache.hh"
#include "sim/logging.hh"

namespace genie
{

void
StridePrefetcher::notify(int streamId, Addr addr)
{
    GENIE_ASSERT(streamId >= 0, "prefetch stream id %d", streamId);
    const auto id = static_cast<std::size_t>(streamId);
    if (id >= table.size())
        table.resize(id + 1);
    StreamEntry &e = table[id];
    if (!e.primed) {
        e.lastAddr = addr;
        e.primed = true;
        return;
    }

    auto stride = static_cast<std::int64_t>(addr) -
                  static_cast<std::int64_t>(e.lastAddr);
    if (stride == 0)
        return;

    if (stride == e.stride) {
        if (e.confidence < 4)
            ++e.confidence;
    } else {
        e.stride = stride;
        e.confidence = 1;
    }
    e.lastAddr = addr;

    if (e.confidence < 2)
        return;

    unsigned line = cache.lineBytes();
    for (unsigned d = 1; d <= degree; ++d) {
        std::int64_t target = static_cast<std::int64_t>(addr) +
                              e.stride * static_cast<std::int64_t>(d);
        if (target < 0)
            break;
        cache.tryPrefetch(alignDown(static_cast<Addr>(target), line));
    }
}

} // namespace genie
