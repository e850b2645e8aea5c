/**
 * @file
 * Simulation drivers: feed a trace through a cache organization,
 * optionally purging at a fixed task-switch interval.
 *
 * Drivers come in two flavours sharing one hot loop (sim/drive.hh):
 * materialized (const Trace&) and streaming (TraceSource&).  The
 * streaming overloads consume the source from its current position in
 * O(batch) memory and produce CacheStats bit-identical to running the
 * materialized trace.
 */

#ifndef CACHELAB_SIM_RUN_HH
#define CACHELAB_SIM_RUN_HH

#include <cstdint>

#include "cache/organization.hh"
#include "trace/source.hh"
#include "trace/trace.hh"

namespace cachelab
{

/** Options for one simulation run. */
struct RunConfig
{
    /**
     * Purge the cache every this many references, simulating task
     * switches on a machine whose cache is flushed on a switch
     * (paper sections 3.3-3.5).  0 disables purging (Table 1 setup:
     * "no task switch purges").
     */
    std::uint64_t purgeInterval = 0;

    /**
     * References to run before statistics begin (cold-start warm-up).
     * The paper's runs are cold-start (a trace *is* the program's
     * start), so the default is 0.
     *
     * Warm-up rule (uniform across drivers): a whole-run warm-up must
     * leave at least one measured reference, i.e. warmupRefs must be
     * strictly less than the number of references driven — otherwise
     * the run would silently measure nothing, and the driver raises a
     * fatal error instead.  Materialized runs check up front;
     * streaming runs check when the stream drains.  Per-interval
     * warm-up in sampled runs follows a different rule — see
     * SampleConfig::warmupRefs (clamped, never fatal).
     */
    std::uint64_t warmupRefs = 0;

    /**
     * Concurrency of the sweep/experiment layers driving this run:
     * 0 = the shared pool's width (CACHELAB_JOBS or hardware
     * concurrency), 1 = force serial, k = a pool of exactly k jobs.
     * A single runTrace() call is always sequential — the knob
     * controls how many independent runs execute at once.
     */
    unsigned jobs = 0;

    /**
     * Batch size (references) the streaming drivers read per
     * nextBatch() call, and the span size runTrace() cuts a
     * materialized trace into; 0 = kDefaultBatchRefs.  Progress is
     * credited once per span.  Results never depend on it — it only
     * trades buffer memory against call overhead (and lets tests
     * exercise chunk boundaries, e.g. batchRefs = 1).
     */
    std::size_t batchRefs = 0;

    /** @return batchRefs resolved against the default. */
    std::size_t
    resolvedBatchRefs() const
    {
        return batchRefs != 0
            ? batchRefs
            : static_cast<std::size_t>(TraceSource::kDefaultBatchRefs);
    }

    /**
     * Probe supplier for engines that construct caches internally
     * (the sweep engines); nullptr runs uninstrumented.  The factory
     * is consulted serially, once per cache, before any simulation
     * starts; events then flow from that cache's driving thread only.
     * Engines that cannot emit events — the single-pass Mattson
     * analyzer and the sampled estimators — reject a non-null factory
     * with a fatal diagnostic rather than silently dropping events.
     * runTrace() ignores this field: its callers hold the cache and
     * attach probes directly via setProbe().
     */
    CacheProbeFactory *probeFactory = nullptr;
};

/**
 * Run @p trace through @p system.
 *
 * @return the combined statistics accumulated during the measured
 * portion of the run (after warm-up).
 */
CacheStats runTrace(const Trace &trace, CacheSystem &system,
                    const RunConfig &config = {});

/** Convenience overload for a bare cache. */
CacheStats runTrace(const Trace &trace, Cache &cache,
                    const RunConfig &config = {});

/**
 * Run a streamed @p source through @p system in O(batch) memory.
 * Consumes the source from its current position (reset() first for a
 * full pass); statistics are bit-identical to the materialized run
 * over the same reference sequence.
 */
CacheStats runTrace(TraceSource &source, CacheSystem &system,
                    const RunConfig &config = {});

/** Streaming overload for a bare cache. */
CacheStats runTrace(TraceSource &source, Cache &cache,
                    const RunConfig &config = {});

} // namespace cachelab

#endif // CACHELAB_SIM_RUN_HH
