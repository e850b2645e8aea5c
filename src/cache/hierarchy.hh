/**
 * @file
 * Two-level cache hierarchy.
 *
 * The paper studies single-level caches (two-level hierarchies arrived
 * in force a few years later), but a design laboratory built on its
 * methodology needs them: the design-target miss ratios of Table 5 are
 * exactly what a designer feeds into an L2 sizing study.  This module
 * composes two Cache instances: lines L1 fetches are looked up in (and
 * on a miss fetched into) L2, and dirty lines L1 evicts are written
 * into L2 — so copy-back traffic lands in L2, not memory.
 *
 * The composition is *non-inclusive* ("accidentally inclusive"):
 * nothing forces L2 to retain L1's contents and no back-invalidation
 * is modeled — the common organization of early two-level designs.
 */

#ifndef CACHELAB_CACHE_HIERARCHY_HH
#define CACHELAB_CACHE_HIERARCHY_HH

#include <cstdint>

#include "cache/cache.hh"
#include "cache/config.hh"
#include "cache/stats.hh"
#include "trace/memory_ref.hh"

namespace cachelab
{

/**
 * An L1 + L2 pair.
 *
 * Statistics: l1().stats() counts the reference stream; l2().stats()
 * counts the L1-miss stream (its accesses are L1 line fills,
 * classified as reads, plus L1 dirty pushes classified as writes).
 * The hierarchy's memory traffic is l2().stats().trafficBytes().
 *
 * Not copyable or movable: L1 holds a pointer to this object as its
 * fill/eviction observer.
 */
class TwoLevelCache : private CacheObserver
{
  public:
    /**
     * @param l1_config L1 parameters.
     * @param l2_config L2 parameters; the L2 line size must be a
     * multiple of L1's.
     */
    TwoLevelCache(const CacheConfig &l1_config,
                  const CacheConfig &l2_config);

    TwoLevelCache(const TwoLevelCache &) = delete;
    TwoLevelCache &operator=(const TwoLevelCache &) = delete;

    /** Apply one reference; @return true when it hit in L1. */
    bool access(const MemoryRef &ref);

    /** Purge both levels (task switch). */
    void purge();

    /** Zero both levels' statistics and the global counters. */
    void resetStats();

    Cache &l1() { return l1_; }
    const Cache &l1() const { return l1_; }
    Cache &l2() { return l2_; }
    const Cache &l2() const { return l2_; }

    /**
     * Attach introspection probes per level (not owned; nullptr
     * detaches).  L2's event clock counts L1 fills and dirty pushes,
     * not raw references.
     */
    void setProbes(CacheProbe *l1_probe, CacheProbe *l2_probe)
    {
        l1_.setProbe(l1_probe);
        l2_.setProbe(l2_probe);
    }

    /**
     * Global (solo) miss ratio: references that miss in both levels,
     * per reference — the quantity an L2 sizing study optimizes.
     */
    double globalMissRatio() const;

    /** Local L2 miss ratio: L2 misses per L2 access. */
    double l2LocalMissRatio() const;

    /** References processed since construction / resetStats(). */
    std::uint64_t refCount() const { return refs_; }

  private:
    void onFill(Addr line_addr, bool prefetched) override;
    void onEvict(Addr line_addr, bool dirty, bool is_purge) override;

    Cache l1_;
    Cache l2_;
    std::uint64_t refs_ = 0;
    std::uint64_t globalMisses_ = 0;
    bool l2MissedDuringRef_ = false;
};

} // namespace cachelab

#endif // CACHELAB_CACHE_HIERARCHY_HH
