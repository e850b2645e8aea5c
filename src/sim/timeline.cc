/**
 * @file
 * Implementation of miss-ratio timelines.
 */

#include "sim/timeline.hh"

#include <span>

#include "util/logging.hh"

namespace cachelab
{

std::vector<TimelineBucket>
missRatioTimeline(TraceSource &source, Cache &cache,
                  std::uint64_t bucket_refs, std::uint64_t purge_interval,
                  std::uint64_t batch_refs)
{
    CACHELAB_ASSERT(bucket_refs > 0, "bucket size must be positive");
    std::vector<TimelineBucket> buckets;
    TimelineBucket current;
    std::vector<MemoryRef> buffer(
        batch_refs != 0 ? batch_refs : TraceSource::kDefaultBatchRefs);
    std::uint64_t since_purge = 0;
    std::uint64_t index = 0;

    while (const std::size_t got = source.nextBatch(buffer)) {
        for (const MemoryRef &ref :
             std::span<const MemoryRef>(buffer.data(), got)) {
            if (purge_interval && since_purge == purge_interval) {
                cache.purge();
                since_purge = 0;
            }
            const bool hit = cache.access(ref);
            ++since_purge;
            ++index;
            ++current.refs;
            current.misses += hit ? 0 : 1;
            if (current.refs == bucket_refs) {
                buckets.push_back(current);
                current = TimelineBucket{};
                current.startRef = index;
            }
        }
    }
    if (current.refs > 0)
        buckets.push_back(current);
    return buckets;
}

std::vector<TimelineBucket>
missRatioTimeline(const Trace &trace, Cache &cache,
                  std::uint64_t bucket_refs, std::uint64_t purge_interval)
{
    MemorySource source(trace.refs(), std::string(trace.name()));
    return missRatioTimeline(source, cache, bucket_refs, purge_interval);
}

std::vector<double>
cumulativeMissRatio(const std::vector<TimelineBucket> &buckets)
{
    std::vector<double> out;
    out.reserve(buckets.size());
    std::uint64_t refs = 0;
    std::uint64_t misses = 0;
    for (const TimelineBucket &b : buckets) {
        refs += b.refs;
        misses += b.misses;
        out.push_back(refs ? static_cast<double>(misses) /
                          static_cast<double>(refs)
                           : 0.0);
    }
    return out;
}

} // namespace cachelab
