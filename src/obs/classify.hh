/**
 * @file
 * 3C miss classification: compulsory / capacity / conflict.
 *
 * Hill's taxonomy, realized as a CacheProbe sink so any instrumented
 * run can explain its miss ratio:
 *
 *  - **compulsory**: the missing line was never filled into the cache
 *    before — an infinite cache running the same policies would miss
 *    too (tracked by an infinite shadow directory of every line ever
 *    filled);
 *  - **conflict**: the line would have hit in a fully-associative LRU
 *    cache of the same capacity — the miss is an artifact of set
 *    mapping (tracked by a fully-associative LRU shadow driven by the
 *    real cache's own event stream);
 *  - **capacity**: everything else — the working set simply exceeds
 *    the cache.
 *
 * The fully-associative-shadow convention: the shadow is *event
 * driven*, not independently simulated.  A Hit or Fill/Prefetch of
 * line X promotes (or inserts) X at the shadow's MRU position,
 * evicting the shadow's LRU line beyond capacity; a Purge clears it;
 * no-allocate write misses never warm it.  Driven this way the shadow
 * replays exactly the state a fully-associative LRU cache of equal
 * capacity would hold, so when the *real* cache is fully associative
 * the shadow agrees with it identically and the conflict count is
 * exactly zero — the invariant the tests pin.
 *
 * Counting granularity matches CacheStats: a reference spanning
 * several lines counts as at most one miss, classified by its first
 * missing line.  Hence the sum invariant
 *
 *     compulsory + capacity + conflict == CacheStats::totalMisses()
 *
 * holds by construction on every trace and configuration.
 */

#ifndef CACHELAB_OBS_CLASSIFY_HH
#define CACHELAB_OBS_CLASSIFY_HH

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "cache/lru_stack.hh"
#include "cache/probe.hh"
#include "obs/metrics.hh"
#include "trace/memory_ref.hh"

namespace cachelab
{

struct CacheConfig;

/** Whole-run 3C breakdown. */
struct ClassifiedTotals
{
    std::uint64_t misses = 0;     ///< ref-granularity, == sum of the 3Cs
    std::uint64_t compulsory = 0;
    std::uint64_t capacity = 0;
    std::uint64_t conflict = 0;
};

/** One classification interval (a timeline bucket with 3Cs). */
struct ClassifiedInterval
{
    std::uint64_t startRef = 0; ///< first reference (0-based) covered
    std::uint64_t refs = 0;     ///< references covered
    std::uint64_t misses = 0;   ///< ref-granularity misses
    std::uint64_t compulsory = 0;
    std::uint64_t capacity = 0;
    std::uint64_t conflict = 0;

    double
    missRatio() const
    {
        return refs == 0 ? 0.0 : static_cast<double>(misses) /
                                     static_cast<double>(refs);
    }
};

/**
 * The 3C classifier sink.
 *
 * Attach to one cache (its event stream must come from a single
 * cache: the shadow replays that cache's fills).  Memory: one hash
 * entry per distinct line ever filled plus the shadow, an LruStack of
 * one set bounded at the cache's line count — bounded by trace
 * footprint, independent of trace length, so streamed out-of-core
 * runs classify in bounded memory.
 */
class MissClassifier : public CacheProbe
{
  public:
    /**
     * @param capacity_lines shadow capacity — the instrumented
     * cache's total line count.
     * @param interval_refs per-interval breakdown granularity in
     * references; 0 disables interval tracking.
     */
    explicit MissClassifier(std::uint64_t capacity_lines,
                            std::uint64_t interval_refs = 0);

    /** Convenience: capacity from @p config.lineCount(). */
    explicit MissClassifier(const CacheConfig &config,
                            std::uint64_t interval_refs = 0);

    void onEvent(const CacheEvent &event) override;

    /**
     * Close the trailing partial interval.  @p total_refs is the
     * reference count of the run when known (pads trailing miss-free
     * intervals); 0 trusts the last event's refIndex.
     */
    void finalize(std::uint64_t total_refs = 0);

    const ClassifiedTotals &totals() const { return totals_; }

    /** Per-interval breakdowns (empty when interval_refs was 0). */
    const std::vector<ClassifiedInterval> &intervals() const
    {
        return intervals_;
    }

    /** References observed (largest event refIndex seen). */
    std::uint64_t refsObserved() const { return maxRef_; }

    /** Shadow-resident line count (diagnostics/tests). */
    std::uint64_t shadowSize() const { return shadow_.size(); }

    /** Distinct lines ever filled (diagnostics/tests). */
    std::uint64_t distinctLines() const { return seen_.size(); }

    /**
     * Publish totals into @p registry as counters
     * classify.{misses,compulsory,capacity,conflict} (plus @p labels
     * in canonical key order).
     */
    void publish(obs::Registry &registry,
                 const std::vector<obs::Label> &labels = {}) const;

  private:
    /** Classify and count one ref-granularity miss. */
    void classifyMiss(const CacheEvent &event);

    /** Interval covering @p ref_index (1-based), growing as needed. */
    ClassifiedInterval &intervalFor(std::uint64_t ref_index);

    std::uint64_t intervalRefs_;

    std::unordered_set<Addr> seen_; ///< infinite shadow directory
    LruStack shadow_;               ///< fully associative LRU shadow

    std::uint64_t lastMissRef_ = 0; ///< ref already counted (1-based)
    std::uint64_t maxRef_ = 0;
    ClassifiedTotals totals_;
    std::vector<ClassifiedInterval> intervals_;
    bool finalized_ = false;
};

} // namespace cachelab

#endif // CACHELAB_OBS_CLASSIFY_HH
