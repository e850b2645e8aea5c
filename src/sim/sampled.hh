/**
 * @file
 * Sampled simulation driver: runTrace() over a sampling plan.
 *
 * runSampled() feeds a trace through a cache (or any CacheSystem
 * organization) measuring only the intervals the sampler selected,
 * with the configured warming policy between them, and reports
 * estimated statistics with CLT confidence intervals
 * (SampledRunResult).  Guarantees:
 *
 *  - fraction = 1.0 with functional warming reproduces an unsampled
 *    runTrace() bitwise (the intervals tile the trace and the summed
 *    counters are exact);
 *  - with targetRelativeError > 0 the run stops adding intervals as
 *    soon as the miss-ratio confidence interval is tight enough
 *    (sequential sampling).
 *
 * sweepUnifiedSampled() fans a sampled run out over the size axis on
 * the shared thread pool, mirroring sweepUnified().
 */

#ifndef CACHELAB_SIM_SAMPLED_HH
#define CACHELAB_SIM_SAMPLED_HH

#include <cstdint>
#include <vector>

#include "cache/cache.hh"
#include "cache/config.hh"
#include "cache/organization.hh"
#include "sample/sampled_run.hh"
#include "sim/run.hh"
#include "trace/trace.hh"

namespace cachelab
{

namespace ckpt
{
class LivePointStore;
}

/**
 * Run @p trace through @p cache, measuring only the sampled
 * intervals.
 *
 * RunConfig::purgeInterval is honoured only under functional warming
 * (a skipping policy cannot replay the purge schedule faithfully;
 * runSampled() asserts).  RunConfig::warmupRefs must be 0 — warm-up
 * is the warming policy's job here.
 */
SampledRunResult runSampled(const Trace &trace, Cache &cache,
                            const SampleConfig &sample,
                            const RunConfig &run = {});

/** Overload for composite organizations (split, hierarchy, ...). */
SampledRunResult runSampled(const Trace &trace, CacheSystem &system,
                            const SampleConfig &sample,
                            const RunConfig &run = {});

/**
 * Streamed sampled run: one pass over @p source in O(batch) memory,
 * bit-identical to the materialized runSampled() over the same
 * reference sequence (the interval plan depends only on the length).
 *
 * The sampling plan needs the total reference count.  When the source
 * does not know its length, a counting pass runs first and the source
 * is reset() for the measured pass.  The source must be positioned at
 * its beginning.
 */
SampledRunResult runSampled(TraceSource &source, Cache &cache,
                            const SampleConfig &sample,
                            const RunConfig &run = {});

/** Streamed sampled run over a composite organization. */
SampledRunResult runSampled(TraceSource &source, CacheSystem &system,
                            const SampleConfig &sample,
                            const RunConfig &run = {});

/** One point of a sampled size sweep. */
struct SampledSweepPoint
{
    std::uint64_t cacheBytes = 0;
    SampledRunResult result;
};

/**
 * Sweep a unified cache over @p sizes with a sampled run per size,
 * fanned out over the thread pool per RunConfig::jobs (each point
 * owns its cache, so points are data-race-free by construction).
 */
std::vector<SampledSweepPoint> sweepUnifiedSampled(
    const Trace &trace, const std::vector<std::uint64_t> &sizes,
    const CacheConfig &base, const SampleConfig &sample,
    const RunConfig &run = {});

/** One point of a sampled split-cache sweep. */
struct SplitSampledSweepPoint
{
    std::uint64_t cacheBytes = 0; ///< per-side capacity
    SampledRunResult icache;
    SampledRunResult dcache;
};

/**
 * Sampled variant of sweepSplit(): the instruction and data streams
 * are separated once (the split organization routes them to
 * independent caches) and each side is sampled over its own stream.
 * Task-switch purging is not supported here — the purge schedule is
 * defined on the combined stream and cannot be replayed faithfully on
 * the per-side streams (asserts purgeInterval == 0).
 */
std::vector<SplitSampledSweepPoint> sweepSplitSampled(
    const Trace &trace, const std::vector<std::uint64_t> &sizes,
    const CacheConfig &base, const SampleConfig &sample,
    const RunConfig &run = {});

/**
 * Out-of-core sweepUnifiedSampled(): chunk-synchronous over the size
 * axis — every batch read from @p source feeds one incremental
 * sampled engine per size, so the whole sweep is one input pass (plus
 * a counting pass when the length is unknown) and the per-size
 * results are bit-identical to the materialized sampled sweep.
 */
std::vector<SampledSweepPoint> sweepUnifiedSampled(
    TraceSource &source, const std::vector<std::uint64_t> &sizes,
    const CacheConfig &base, const SampleConfig &sample,
    const RunConfig &run = {});

/**
 * Out-of-core sweepSplitSampled(): a counting pass (kind tallies for
 * the per-side sampling plans) followed by one streamed pass that
 * partitions each batch into its I and D sub-streams and feeds the
 * per-size engines of both sides, until both sides' plans are done.
 * reset() support is required.
 */
std::vector<SplitSampledSweepPoint> sweepSplitSampled(
    TraceSource &source, const std::vector<std::uint64_t> &sizes,
    const CacheConfig &base, const SampleConfig &sample,
    const RunConfig &run = {});

/**
 * Checkpoint-warming sweepUnifiedSampled(): every size restores the
 * functionally-warmed state at each interval start from @p store
 * instead of replaying the gaps, so the sweep costs O(decode +
 * configs x sample) while staying bitwise identical to functional
 * warming.  @p sample must carry WarmingPolicy::Checkpoint, and the
 * store must have been written with the same trace, plan and purge
 * schedule (checked up front by key hash, and again streamwise by the
 * full-trace content hash — skipped only when the sequential stopping
 * rule ends every size's run before the stream does).
 */
std::vector<SampledSweepPoint> sweepUnifiedSampled(
    TraceSource &source, const std::vector<std::uint64_t> &sizes,
    const CacheConfig &base, const SampleConfig &sample,
    const RunConfig &run, const ckpt::LivePointStore &store);

/**
 * Checkpoint-warming sweepSplitSampled(): like the store-backed
 * unified sweep, with each side restoring from its own channel
 * ("icache"/"dcache") of @p store.
 */
std::vector<SplitSampledSweepPoint> sweepSplitSampled(
    TraceSource &source, const std::vector<std::uint64_t> &sizes,
    const CacheConfig &base, const SampleConfig &sample,
    const RunConfig &run, const ckpt::LivePointStore &store);

} // namespace cachelab

#endif // CACHELAB_SIM_SAMPLED_HH
