/**
 * @file
 * Miss-ratio timelines: miss ratio as a function of position in the
 * trace.
 *
 * Two of the paper's methodological cautions need this view:
 *
 *  - §1.1/§3.2: a trace "is only a very small sample of a real
 *    workload", and for large caches the cold-start transient
 *    dominates short traces ("it makes little sense to estimate miss
 *    ratios for caches over 32K with this data") — visible as a miss
 *    ratio that is still falling when the trace ends;
 *
 *  - §3.3-3.5: after each task-switch purge the cache re-warms; the
 *    per-interval view shows the cold-start spike and the steady
 *    state the purge interval allows.
 *
 * The primary driver is streaming (TraceSource) so out-of-core runs
 * get timelines in O(batch) memory; the materialized overload is a
 * thin wrapper.  For *why* each interval missed, attach a
 * MissClassifier (obs/classify) with the same interval length to the
 * cache.
 */

#ifndef CACHELAB_SIM_TIMELINE_HH
#define CACHELAB_SIM_TIMELINE_HH

#include <cstdint>
#include <vector>

#include "cache/organization.hh"
#include "trace/source.hh"
#include "trace/trace.hh"

namespace cachelab
{

/** One bucket of a miss-ratio timeline. */
struct TimelineBucket
{
    std::uint64_t startRef = 0; ///< first reference index of the bucket
    std::uint64_t refs = 0;
    std::uint64_t misses = 0;

    double
    missRatio() const
    {
        return refs ? static_cast<double>(misses) /
                static_cast<double>(refs)
                    : 0.0;
    }
};

/**
 * Stream @p source through @p cache, recording per-bucket miss counts
 * in O(batch) memory.  Consumes the source from its current position
 * (reset() first for a full pass).
 *
 * @param bucket_refs references per bucket.
 * @param purge_interval purge every N refs (0 = never).
 * @param batch_refs refs per nextBatch() pull (0 = default); results
 * never depend on it.
 * @return one bucket per bucket_refs references (last may be short).
 */
std::vector<TimelineBucket> missRatioTimeline(
    TraceSource &source, Cache &cache, std::uint64_t bucket_refs,
    std::uint64_t purge_interval = 0, std::uint64_t batch_refs = 0);

/** Materialized wrapper over the streaming driver. */
std::vector<TimelineBucket> missRatioTimeline(
    const Trace &trace, Cache &cache, std::uint64_t bucket_refs,
    std::uint64_t purge_interval = 0);

/**
 * Cumulative miss ratio after each bucket — the "what would I have
 * concluded from a shorter trace?" view of §3.2.
 */
std::vector<double> cumulativeMissRatio(
    const std::vector<TimelineBucket> &buckets);

} // namespace cachelab

#endif // CACHELAB_SIM_TIMELINE_HH
