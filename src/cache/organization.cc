/**
 * @file
 * Implementation of cache organizations.
 */

#include "cache/organization.hh"

namespace cachelab
{

UnifiedCache::UnifiedCache(const CacheConfig &config) : cache_(config)
{
}

bool
UnifiedCache::access(const MemoryRef &ref)
{
    return cache_.access(ref);
}

void
UnifiedCache::purge()
{
    cache_.purge();
}

CacheStats
UnifiedCache::combinedStats() const
{
    return cache_.stats();
}

void
UnifiedCache::resetStats()
{
    cache_.resetStats();
}

std::string
UnifiedCache::describe() const
{
    return "unified " + cache_.config().describe();
}

SplitCache::SplitCache(const CacheConfig &iconfig, const CacheConfig &dconfig)
    : icache_(iconfig), dcache_(dconfig)
{
}

bool
SplitCache::access(const MemoryRef &ref)
{
    if (ref.kind == AccessKind::IFetch)
        return icache_.access(ref);
    return dcache_.access(ref);
}

void
SplitCache::purge()
{
    icache_.purge();
    dcache_.purge();
}

CacheStats
SplitCache::combinedStats() const
{
    return icache_.stats() + dcache_.stats();
}

void
SplitCache::resetStats()
{
    icache_.resetStats();
    dcache_.resetStats();
}

std::string
SplitCache::describe() const
{
    return "split I[" + icache_.config().describe() + "] D[" +
        dcache_.config().describe() + "]";
}

} // namespace cachelab
