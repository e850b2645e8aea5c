/**
 * @file
 * Implementation of the two-level cache hierarchy.
 */

#include "cache/hierarchy.hh"

#include "util/logging.hh"

namespace cachelab
{

TwoLevelCache::TwoLevelCache(const CacheConfig &l1_config,
                             const CacheConfig &l2_config)
    : l1_(l1_config), l2_(l2_config)
{
    if (l2_config.lineBytes < l1_config.lineBytes ||
        l2_config.lineBytes % l1_config.lineBytes != 0) {
        fatal("L2 line size (", l2_config.lineBytes,
              ") must be a multiple of L1's (", l1_config.lineBytes, ")");
    }
    l1_.setObserver(this);
}

void
TwoLevelCache::onFill(Addr line_addr, bool prefetched)
{
    (void)prefetched;
    // An L1 line fill reads the line from L2 (which fetches it from
    // memory on an L2 miss).
    const bool l2_hit = l2_.access(
        {line_addr, l1_.config().lineBytes, AccessKind::Read});
    if (!l2_hit)
        l2MissedDuringRef_ = true;
}

void
TwoLevelCache::onEvict(Addr line_addr, bool dirty, bool is_purge)
{
    (void)is_purge;
    // Copy-back from L1 lands in L2.  (L1's own stats still count the
    // push; the "bytes to memory" of the hierarchy are L2's.)
    if (dirty)
        l2_.access({line_addr, l1_.config().lineBytes, AccessKind::Write});
}

bool
TwoLevelCache::access(const MemoryRef &ref)
{
    ++refs_;
    l2MissedDuringRef_ = false;
    const bool l1_hit = l1_.access(ref);
    if (!l1_hit && l2MissedDuringRef_)
        ++globalMisses_;
    return l1_hit;
}

void
TwoLevelCache::purge()
{
    l1_.purge(); // dirty L1 lines drain into L2 via onEvict
    l2_.purge();
}

void
TwoLevelCache::resetStats()
{
    l1_.resetStats();
    l2_.resetStats();
    refs_ = 0;
    globalMisses_ = 0;
}

double
TwoLevelCache::globalMissRatio() const
{
    return refs_ ? static_cast<double>(globalMisses_) /
            static_cast<double>(refs_)
                 : 0.0;
}

double
TwoLevelCache::l2LocalMissRatio() const
{
    return l2_.stats().missRatio();
}

} // namespace cachelab
