/**
 * @file
 * Internal span-based simulation driver shared by runTrace(), the
 * sweep engines, the sampled driver and the coalesced serve engine.
 *
 * The hot loop lives here exactly once: driveSpan() advances one
 * System over a span of references, carrying {purge phase, warm-up
 * progress, reference count} across calls in a DriveState.  Feeding
 * consecutive spans yields the identical access/purge/resetStats
 * sequence however the stream is cut, which is what makes streamed
 * and materialized runs bit-identical.
 *
 * The streamed read loop lives here exactly once too: streamPass()
 * owns the batch buffer and the BatchExecutor, and every streamed
 * driver — runTrace(), runSampled(), the per-size and sampled sweeps
 * and serve::runCoalesced() — is one callback on it.
 */

#ifndef CACHELAB_SIM_DRIVE_HH
#define CACHELAB_SIM_DRIVE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "cache/config.hh"
#include "obs/metrics.hh"
#include "obs/progress.hh"
#include "obs/trace_event.hh"
#include "sim/run.hh"
#include "trace/memory_ref.hh"
#include "trace/source.hh"

namespace cachelab
{

class ThreadPool;

namespace detail
{

/** Driver state carried across driveSpan() calls (one per System). */
struct DriveState
{
    std::uint64_t sincePurge = 0;
    std::uint64_t seen = 0;      ///< references applied so far
    bool counting = false;       ///< past warm-up, stats are live

    explicit DriveState(const RunConfig &config)
        : counting(config.warmupRefs == 0)
    {}
};

/**
 * Observability handles sampled once per run (not per span): with
 * everything off the per-span cost is one well-predicted branch, and
 * the simulated result is identical either way.
 */
struct DriveObs
{
    obs::ProgressMeter *progress;
    obs::TraceRecorder *recorder;
    bool reportProgress;
    bool recordPurges;

    DriveObs()
        : progress(&obs::ProgressMeter::global()),
          recorder(&obs::TraceRecorder::global()),
          reportProgress(progress->enabled()),
          recordPurges(recorder->enabled())
    {}
};

/**
 * Apply @p refs to @p system under @p config, continuing from
 * @p state, and credit the span to the progress meter.  Thread-safe
 * across distinct (system, state) pairs.  Kept out of line, as the
 * two-loop version was: a build that inlined it into the coalesced
 * serve engine read 8% slower on perfbench kv_served (4-vCPU Xeon).
 */
template <typename System>
[[gnu::noinline]] void
driveSpan(std::span<const MemoryRef> refs, System &system,
          const RunConfig &config, DriveState &state, const DriveObs &ob)
{
    // Locals restore the register allocation of the historical
    // single-loop driver; members would reload every iteration.
    std::uint64_t since_purge = state.sincePurge;
    std::uint64_t seen = state.seen;
    bool counting = state.counting;

    for (const MemoryRef &ref : refs) {
        if (config.purgeInterval != 0 &&
            since_purge == config.purgeInterval) {
            system.purge();
            if (ob.recordPurges)
                ob.recorder->instant("purge", "sim");
            since_purge = 0;
        }
        system.access(ref);
        ++since_purge;
        ++seen;
        if (!counting && seen == config.warmupRefs) {
            system.resetStats();
            counting = true;
        }
    }

    state.sincePurge = since_purge;
    state.seen = seen;
    state.counting = counting;
    if (ob.reportProgress)
        ob.progress->advance(refs.size());
}

/**
 * Close out one driven run: bump the sim.* counters, and enforce the
 * length-dependent config rules that a streaming run can only check
 * once the stream has drained (see RunConfig::warmupRefs).
 */
void driveFinish(const DriveState &state, const RunConfig &config);

/**
 * Fan-out under the RunConfig::jobs rule: serial when jobs = 1 or
 * when already on a pool worker (a sweep reached from inside a pool
 * task runs its points serially rather than deadlocking the
 * fixed-size pool), the shared pool when jobs = 0, else a local pool
 * of exactly jobs workers.  The local pool is built at the first
 * parallelFor() and held until the executor dies, so a streamed pass
 * builds it once, not once per batch.
 */
class BatchExecutor
{
  public:
    explicit BatchExecutor(const RunConfig &run);
    ~BatchExecutor();
    BatchExecutor(const BatchExecutor &) = delete;
    BatchExecutor &operator=(const BatchExecutor &) = delete;

    /** Run fn(0) .. fn(n-1) under the rule above. */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &fn);

  private:
    unsigned jobs_;
    std::unique_ptr<ThreadPool> local_;
};

/**
 * The one streamed pass: read @p source from its current position in
 * batches of run.resolvedBatchRefs() and hand each batch, with one
 * BatchExecutor for the whole pass, to on_batch(batch, exec) on the
 * calling thread.  The pass ends when the source drains or on_batch
 * returns false.
 */
template <typename OnBatch>
void
streamPass(TraceSource &source, const RunConfig &run, OnBatch &&on_batch)
{
    BatchExecutor exec(run);
    std::vector<MemoryRef> buffer(run.resolvedBatchRefs());
    while (const std::size_t got = source.nextBatch(buffer)) {
        if (!on_batch(std::span<const MemoryRef>(buffer.data(), got), exec))
            break;
    }
}

/**
 * fatal() unless @p run's whole-run warm-up leaves at least one of
 * @p trace's references measured.  A resident trace's length is
 * known, so drivers check once, before any reference is driven or
 * any size fans out.
 */
void checkWarmup(const RunConfig &run, const Trace &trace);

/** @return @p base with sizeBytes = @p size, validated. */
CacheConfig configAt(const CacheConfig &base, std::uint64_t size);

/** configAt() every size, so a bad size fails before any input is read. */
void validateSizes(const CacheConfig &base,
                   const std::vector<std::uint64_t> &sizes);

} // namespace detail
} // namespace cachelab

#endif // CACHELAB_SIM_DRIVE_HH
