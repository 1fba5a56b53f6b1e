#include "result_cache.hh"

namespace genie
{

bool
ResultCache::lookup(const std::string &key, SocResults &out)
{
    std::lock_guard<std::mutex> lock(mutex);
    auto it = entries.find(key);
    if (it == entries.end()) {
        ++_misses;
        return false;
    }
    ++_hits;
    out = it->second;
    return true;
}

void
ResultCache::insert(const std::string &key, const SocResults &results)
{
    std::lock_guard<std::mutex> lock(mutex);
    entries.emplace(key, results); // first writer wins
}

std::size_t
ResultCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return entries.size();
}

std::uint64_t
ResultCache::hits() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return _hits;
}

std::uint64_t
ResultCache::misses() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return _misses;
}

} // namespace genie
