/**
 * @file
 * Implementation of the simulation drivers.
 */

#include "sim/run.hh"

#include <algorithm>

#include "sim/drive.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace cachelab
{

namespace detail
{

void
driveFinish(const DriveState &state, const RunConfig &config)
{
    // Length-dependent config rules, checked here so streaming runs
    // (length unknown up front) enforce the same contract as
    // materialized ones: a warm-up that consumed every reference
    // measured nothing, and a purge interval longer than the run
    // never fired.
    if (config.warmupRefs != 0 && config.warmupRefs >= state.seen)
        fatal("warmupRefs (", config.warmupRefs,
              ") must leave at least one measured reference; the run "
              "had only ", state.seen);
    CACHELAB_ASSERT(config.purgeInterval == 0 ||
                        config.purgeInterval <= state.seen,
                    "purgeInterval (", config.purgeInterval,
                    ") exceeds run length (", state.seen,
                    "); no purge would ever fire");

    obs::Registry &registry = obs::Registry::global();
    registry.counter("sim.runs").add(1);
    registry.counter("sim.refs").add(state.seen);
}

BatchExecutor::BatchExecutor(const RunConfig &run) : jobs_(run.jobs) {}

BatchExecutor::~BatchExecutor()
{
    // The local pool dies with this executor; keep its utilization
    // visible in the pool.* gauges (the manifest's thread_pool section
    // records the process-wide shared pool).
    if (local_)
        obs::publishThreadPool(obs::Registry::global(), *local_);
}

void
BatchExecutor::parallelFor(std::size_t n,
                           const std::function<void(std::size_t)> &fn)
{
    if (jobs_ == 1 || ThreadPool::onWorkerThread()) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    if (jobs_ == 0) {
        ThreadPool::shared().parallelFor(n, fn);
        return;
    }
    if (!local_)
        local_ = std::make_unique<ThreadPool>(jobs_);
    local_->parallelFor(n, fn);
}

void
checkWarmup(const RunConfig &run, const Trace &trace)
{
    if (run.warmupRefs != 0 && run.warmupRefs >= trace.size())
        fatal("warmupRefs (", run.warmupRefs,
              ") must leave at least one measured reference; trace '",
              trace.name(), "' has ", trace.size());
}

CacheConfig
configAt(const CacheConfig &base, std::uint64_t size)
{
    CacheConfig config = base;
    config.sizeBytes = size;
    config.validate();
    return config;
}

void
validateSizes(const CacheConfig &base, const std::vector<std::uint64_t> &sizes)
{
    for (std::uint64_t size : sizes)
        configAt(base, size);
}

} // namespace detail

namespace
{

/**
 * Materialized path: the trace is fed as zero-copy spans of
 * resolvedBatchRefs(), the same cut a streamed run makes, so progress
 * ticks at the same rate either way.
 */
template <typename System, typename StatsFn>
CacheStats
driveTrace(const Trace &trace, System &system, const RunConfig &config,
           StatsFn &&stats_of)
{
    // Check up front — the materialized length is known, so there is
    // no reason to burn a full run before reporting a bad config.
    detail::checkWarmup(config, trace);
    CACHELAB_ASSERT(config.purgeInterval == 0 ||
                        config.purgeInterval <= trace.size(),
                    "purgeInterval (", config.purgeInterval,
                    ") exceeds trace length (", trace.size(),
                    "); no purge would ever fire");

    detail::DriveState state(config);
    const detail::DriveObs ob;
    const std::span<const MemoryRef> refs = trace.refs();
    const std::size_t step = config.resolvedBatchRefs();
    for (std::size_t at = 0; at < refs.size(); at += step)
        detail::driveSpan(refs.subspan(at, std::min(step, refs.size() - at)),
                          system, config, state, ob);
    detail::driveFinish(state, config);
    return stats_of(system);
}

/** Streaming path: one streamed pass, no fan-out. */
template <typename System, typename StatsFn>
CacheStats
driveSource(TraceSource &source, System &system, const RunConfig &config,
            StatsFn &&stats_of)
{
    detail::DriveState state(config);
    const detail::DriveObs ob;
    detail::streamPass(
        source, config,
        [&](std::span<const MemoryRef> batch, detail::BatchExecutor &) {
            detail::driveSpan(batch, system, config, state, ob);
            return true;
        });
    detail::driveFinish(state, config);
    return stats_of(system);
}

} // namespace

CacheStats
runTrace(const Trace &trace, CacheSystem &system, const RunConfig &config)
{
    return driveTrace(trace, system, config,
                      [](CacheSystem &s) { return s.combinedStats(); });
}

CacheStats
runTrace(const Trace &trace, Cache &cache, const RunConfig &config)
{
    return driveTrace(trace, cache, config,
                      [](Cache &c) { return c.stats(); });
}

CacheStats
runTrace(TraceSource &source, CacheSystem &system, const RunConfig &config)
{
    return driveSource(source, system, config,
                       [](CacheSystem &s) { return s.combinedStats(); });
}

CacheStats
runTrace(TraceSource &source, Cache &cache, const RunConfig &config)
{
    return driveSource(source, cache, config,
                       [](Cache &c) { return c.stats(); });
}

} // namespace cachelab
