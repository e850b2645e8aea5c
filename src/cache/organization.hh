/**
 * @file
 * Cache organizations: unified vs split instruction/data caches.
 *
 * Section 3.5 of the paper simulates "two cache organizations ... a
 * unified (instructions and data) and a split (separate instruction
 * and data caches) design"; Table 3 and Figures 3-4 use a split
 * organization.
 */

#ifndef CACHELAB_CACHE_ORGANIZATION_HH
#define CACHELAB_CACHE_ORGANIZATION_HH

#include <memory>

#include "cache/cache.hh"
#include "cache/config.hh"
#include "cache/stats.hh"
#include "trace/memory_ref.hh"

namespace cachelab
{

/**
 * Abstract cache organization: a thing references can be applied to
 * and that can be purged on a task switch.
 */
class CacheSystem
{
  public:
    virtual ~CacheSystem() = default;

    /** Apply one memory reference; @return true on hit. */
    virtual bool access(const MemoryRef &ref) = 0;

    /** Invalidate all constituent caches. */
    virtual void purge() = 0;

    /** @return combined statistics over all constituent caches. */
    virtual CacheStats combinedStats() const = 0;

    /** Zero all statistics, keeping cache contents (warm-up support). */
    virtual void resetStats() = 0;

    /** @return a human-readable description of the organization. */
    virtual std::string describe() const = 0;
};

/** A single cache serving instructions and data alike. */
class UnifiedCache : public CacheSystem
{
  public:
    explicit UnifiedCache(const CacheConfig &config);

    bool access(const MemoryRef &ref) override;
    void purge() override;
    CacheStats combinedStats() const override;
    void resetStats() override;
    std::string describe() const override;

    Cache &cache() { return cache_; }
    const Cache &cache() const { return cache_; }

    /** Attach an introspection probe (not owned; nullptr detaches). */
    void setProbe(CacheProbe *probe) { cache_.setProbe(probe); }

  private:
    Cache cache_;
};

/**
 * Separate instruction and data caches; ifetches go to the I-cache,
 * reads and writes to the D-cache.
 */
class SplitCache : public CacheSystem
{
  public:
    SplitCache(const CacheConfig &iconfig, const CacheConfig &dconfig);

    bool access(const MemoryRef &ref) override;
    void purge() override;
    CacheStats combinedStats() const override;
    void resetStats() override;
    std::string describe() const override;

    Cache &icache() { return icache_; }
    const Cache &icache() const { return icache_; }
    Cache &dcache() { return dcache_; }
    const Cache &dcache() const { return dcache_; }

    /**
     * Attach introspection probes to the constituent caches (not
     * owned; nullptr detaches).  The same probe may serve both sides:
     * events do not overlap because ifetches only reach the I-cache
     * and reads/writes only the D-cache.
     */
    void setProbes(CacheProbe *iprobe, CacheProbe *dprobe)
    {
        icache_.setProbe(iprobe);
        dcache_.setProbe(dprobe);
    }

  private:
    Cache icache_;
    Cache dcache_;
};

} // namespace cachelab

#endif // CACHELAB_CACHE_ORGANIZATION_HH
