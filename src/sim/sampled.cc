/**
 * @file
 * Implementation of the sampled simulation driver.
 *
 * One incremental engine serves every entry point: SampledEngine is a
 * chunk-fed state machine over the sampling plan, and the materialized
 * runSampled() is literally the engine fed the whole trace as a single
 * span — so the streamed and materialized paths cannot diverge.  The
 * engine is also the one implementation of every warming policy:
 *
 *  - Cold warming skips to the interval and purges.  The engine fires
 *    that purge when the cursor crosses interval.begin; no access
 *    happens between skip-start and the crossing, so the system sees
 *    the same operations as a purge at skip start.
 *  - FixedWarmup replays the last warmupRefs references before the
 *    interval (clamped at the trace start), keeping the stale state
 *    of earlier intervals; Functional replays everything, honouring
 *    the purge schedule, whose carry (references since the last
 *    purge) survives across intervals.
 *  - Checkpoint replays nothing: the store-backed sweeps restore the
 *    functionally warmed state at each interval start instead.
 */

#include "sim/sampled.hh"

#include <algorithm>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/live_points.hh"
#include "obs/metrics.hh"
#include "obs/profile.hh"
#include "obs/trace_event.hh"
#include "sample/sampler.hh"
#include "sim/drive.hh"
#include "stats/summary.hh"
#include "trace/transforms.hh"
#include "util/logging.hh"

namespace cachelab
{

namespace
{

/** Per-interval metric accumulators (full-length intervals only). */
struct IntervalSummaries
{
    Summary missRatio;
    Summary instructionMissRatio;
    Summary dataMissRatio;
    Summary trafficPerRef;

    void
    add(const CacheStats &s)
    {
        missRatio.add(s.missRatio());
        if (s.accesses[static_cast<std::size_t>(AccessKind::IFetch)] != 0)
            instructionMissRatio.add(s.missRatio(AccessKind::IFetch));
        if (s.accesses[static_cast<std::size_t>(AccessKind::Read)] +
                s.accesses[static_cast<std::size_t>(AccessKind::Write)] !=
            0)
            dataMissRatio.add(s.dataMissRatio());
        if (s.totalAccesses() != 0)
            trafficPerRef.add(static_cast<double>(s.trafficBytes()) /
                              static_cast<double>(s.totalAccesses()));
    }
};

/**
 * Incremental sampled run over anything with the runTrace duck type:
 * construct with the total stream length, feed() the references in
 * any batching, finish() for the result.  Feeding the whole stream as
 * one span reproduces the classic materialized loop bit for bit.
 */
template <typename System>
class SampledEngine
{
  public:
    /**
     * Checkpoint-warming restorer: must leave the system in the exact
     * functionally-warmed state at the given plan interval's start and
     * set the purge-schedule carry (ckpt::LivePointGroup::restoreInto
     * wrapped over the right group is the canonical one).
     */
    using Restore =
        std::function<void(System &, std::size_t, std::uint64_t &)>;

    SampledEngine(std::uint64_t length, System &system,
                  const SampleConfig &sample, const RunConfig &run,
                  std::function<CacheStats(System &)> stats_of,
                  Restore restore = {})
        : system_(system), sample_(sample), statsOf_(std::move(stats_of)),
          restore_(std::move(restore)), purgeInterval_(run.purgeInterval),
          length_(length), recorder_(obs::TraceRecorder::global()),
          recordPurges_(recorder_.enabled())
    {
        sample_.validate();
        if (run.probeFactory != nullptr)
            fatal("the sampled engine cannot drive cache-event probes "
                  "(estimates are stitched from measured intervals, so the "
                  "event stream would have gaps); use the per-size engine "
                  "for instrumented runs");
        if (sample_.warming == WarmingPolicy::Checkpoint && !restore_)
            fatal("runSampled: checkpoint warming needs a live-point "
                  "store — use the sweep overloads taking a "
                  "ckpt::LivePointStore");
        CACHELAB_ASSERT(run.warmupRefs == 0,
                        "runSampled: warm-up is the warming policy's job; "
                        "RunConfig::warmupRefs must be 0");
        CACHELAB_ASSERT(purgeInterval_ == 0 ||
                            sample_.warming == WarmingPolicy::Functional ||
                            sample_.warming == WarmingPolicy::Checkpoint,
                        "runSampled: purgeInterval (", purgeInterval_,
                        ") requires functional (or checkpoint) warming — a "
                        "skipping policy cannot replay the purge schedule");
        CACHELAB_ASSERT(purgeInterval_ == 0 || purgeInterval_ <= length_,
                        "purgeInterval (", purgeInterval_,
                        ") exceeds trace length (", length_, ")");
        plan_ = selectIntervals(length_, sample_);
        result_.config = sample_;
        result_.traceRefs = length_;
        if (planIdx_ < plan_.size())
            enterInterval();
    }

    /** @return true while more references can still change the result. */
    bool
    active() const
    {
        return !stopped_ && planIdx_ < plan_.size();
    }

    /** @return true once the sequential stopping rule has fired. */
    bool
    stoppedEarly() const
    {
        return stopped_;
    }

    /**
     * Consume the next @p refs of the stream (cursor order).  Kept out
     * of line: inlined into the materialized driver, the loop measured
     * 2-6% slower on a resident sampled sweep at 4 jobs (4-vCPU Xeon).
     */
    [[gnu::noinline]] void
    feed(std::span<const MemoryRef> refs)
    {
        std::size_t i = 0;
        while (i < refs.size()) {
            if (!active()) {
                pos_ += refs.size() - i;
                return;
            }
            const SampleInterval &iv = plan_[planIdx_];
            if (!measuring_) {
                if (pos_ < warmStart_) { // skipped region: no access
                    const std::uint64_t take = std::min<std::uint64_t>(
                        refs.size() - i, warmStart_ - pos_);
                    i += take;
                    pos_ += take;
                } else if (pos_ < iv.begin) { // warming replay
                    applyRef(refs[i], false);
                    ++i;
                    ++pos_;
                }
                if (pos_ == iv.begin)
                    startMeasure(iv);
                continue;
            }
            applyRef(refs[i], recordPurges_);
            ++i;
            ++pos_;
            if (pos_ == iv.end)
                closeInterval(iv);
        }
    }

    /** Close out the run; the stream must have covered the plan. */
    SampledRunResult
    finish()
    {
        CACHELAB_ASSERT(!active(),
                        "sampled stream ended after ", pos_,
                        " references; the plan (declared length ", length_,
                        ") is not covered — the source under-delivered");
        obs::Registry &registry = obs::Registry::global();
        registry.counter("sample.runs").add(1);
        registry.counter("sample.intervals").add(result_.intervalsMeasured);
        registry.counter("sample.refs_processed").add(processed_);

        result_.processedRefs = processed_;
        result_.estimated = scaleStatsToTrace(result_.measured, length_,
                                              result_.measuredRefs);
        result_.missRatio =
            confidenceInterval(summaries_.missRatio, sample_.confidence);
        result_.instructionMissRatio =
            confidenceInterval(summaries_.instructionMissRatio,
                               sample_.confidence);
        result_.dataMissRatio =
            confidenceInterval(summaries_.dataMissRatio, sample_.confidence);
        result_.trafficPerRef =
            confidenceInterval(summaries_.trafficPerRef, sample_.confidence);
        return result_;
    }

  private:
    /** Apply one reference under the purge schedule. */
    void
    applyRef(const MemoryRef &ref, bool record_purge)
    {
        if (purgeInterval_ != 0 && sincePurge_ == purgeInterval_) {
            system_.purge();
            if (record_purge)
                recorder_.instant("purge", "sample");
            sincePurge_ = 0;
        }
        system_.access(ref);
        ++sincePurge_;
        ++processed_;
    }

    /** Pick where warming starts for plan_[planIdx_]. */
    void
    enterInterval()
    {
        const SampleInterval &iv = plan_[planIdx_];
        CACHELAB_ASSERT(pos_ <= iv.begin, "sampling cursor ", pos_,
                        " past interval start ", iv.begin);
        switch (sample_.warming) {
          case WarmingPolicy::Cold:
            warmStart_ = iv.begin;
            break;
          case WarmingPolicy::FixedWarmup:
            warmStart_ =
                std::max(pos_, iv.begin -
                                   std::min(iv.begin, sample_.warmupRefs));
            break;
          case WarmingPolicy::Functional:
            warmStart_ = pos_;
            break;
          case WarmingPolicy::Checkpoint:
            // Like Cold, nothing is replayed: the state comes from the
            // restorer when the cursor reaches the interval.
            warmStart_ = iv.begin;
            break;
        }
        warmProfile_.emplace("sample.warm");
        warmSpan_.emplace("warm", "sample");
    }

    /** The cursor crossed interval.begin: switch to measuring. */
    void
    startMeasure(const SampleInterval &iv)
    {
        warmProfile_.reset();
        warmSpan_.reset();
        // Cold warming's purge fires here, at the position where the
        // skip ends — identical system state to purging at skip start,
        // since the skipped region touches nothing.
        if (sample_.warming == WarmingPolicy::Cold)
            system_.purge();
        else if (sample_.warming == WarmingPolicy::Checkpoint)
            // Restore *before* resetStats and before the first measured
            // reference's purge-due check, mirroring where functional
            // warming leaves the system at interval start.
            restore_(system_, planIdx_, sincePurge_);
        system_.resetStats();
        measureProfile_.emplace("sample.measure");
        measureSpan_.emplace(
            "interval", "sample",
            std::vector<obs::TraceArg>{
                {"begin", std::to_string(iv.begin)},
                {"end", std::to_string(iv.end)}});
        measuring_ = true;
    }

    /** The cursor crossed interval.end: collect and advance the plan. */
    void
    closeInterval(const SampleInterval &iv)
    {
        const CacheStats interval_stats = statsOf_(system_);
        result_.measured += interval_stats;
        result_.measuredRefs += iv.length();
        ++result_.intervalsMeasured;
        if (iv.length() == sample_.unitRefs)
            summaries_.add(interval_stats);
        measureProfile_.reset();
        measureSpan_.reset();
        measuring_ = false;
        ++planIdx_;

        if (sample_.targetRelativeError > 0.0 &&
            summaries_.missRatio.count() >= sample_.minIntervals &&
            confidenceInterval(summaries_.missRatio, sample_.confidence)
                .meetsRelativeError(sample_.targetRelativeError)) {
            result_.stoppedEarly = true;
            stopped_ = true;
            return;
        }
        if (planIdx_ < plan_.size())
            enterInterval();
    }

    System &system_;
    SampleConfig sample_;
    std::function<CacheStats(System &)> statsOf_;
    Restore restore_;
    std::uint64_t purgeInterval_;
    std::uint64_t length_;
    obs::TraceRecorder &recorder_;
    bool recordPurges_;

    std::vector<SampleInterval> plan_;
    std::size_t planIdx_ = 0;
    std::uint64_t pos_ = 0;        ///< absolute index of the next ref fed
    std::uint64_t warmStart_ = 0;  ///< warming begins here (abs index)
    std::uint64_t sincePurge_ = 0; ///< carried across intervals
    std::uint64_t processed_ = 0;  ///< references applied to the system
    bool measuring_ = false;
    bool stopped_ = false;

    SampledRunResult result_;
    IntervalSummaries summaries_;
    std::optional<obs::ProfileScope> warmProfile_, measureProfile_;
    std::optional<obs::TraceSpan> warmSpan_, measureSpan_;
};

/** Shared sampled driver over anything with the runTrace duck type. */
template <typename System, typename StatsFn>
SampledRunResult
driveSampled(const Trace &trace, System &system, const SampleConfig &sample,
             const RunConfig &run, StatsFn &&stats_of)
{
    SampledEngine<System> engine(trace.size(), system, sample, run,
                                 std::forward<StatsFn>(stats_of));
    engine.feed(trace.refs());
    return engine.finish();
}

/**
 * @return the total reference count of @p source, counting with a
 * decode-only pass (then reset()) when the source has no length hint.
 */
std::uint64_t
sourceLength(TraceSource &source)
{
    if (source.lengthKnown())
        return source.knownLength();
    const std::uint64_t total = source.skip(TraceSource::kUnknownLength);
    source.reset();
    return total;
}

/** Streamed sampled driver: the engine fed in batches. */
template <typename System, typename StatsFn>
SampledRunResult
driveSampledSource(TraceSource &source, System &system,
                   const SampleConfig &sample, const RunConfig &run,
                   StatsFn &&stats_of)
{
    SampledEngine<System> engine(sourceLength(source), system, sample, run,
                                 std::forward<StatsFn>(stats_of));
    // An early-stopped engine ignores further input; stop decoding.
    detail::streamPass(
        source, run,
        [&](std::span<const MemoryRef> batch, detail::BatchExecutor &) {
            engine.feed(batch);
            return engine.active();
        });
    return engine.finish();
}

} // namespace

SampledRunResult
runSampled(const Trace &trace, Cache &cache, const SampleConfig &sample,
           const RunConfig &run)
{
    return driveSampled(trace, cache, sample, run,
                        [](Cache &c) { return c.stats(); });
}

SampledRunResult
runSampled(const Trace &trace, CacheSystem &system,
           const SampleConfig &sample, const RunConfig &run)
{
    return driveSampled(trace, system, sample, run,
                        [](CacheSystem &s) { return s.combinedStats(); });
}

SampledRunResult
runSampled(TraceSource &source, Cache &cache, const SampleConfig &sample,
           const RunConfig &run)
{
    return driveSampledSource(source, cache, sample, run,
                              [](Cache &c) { return c.stats(); });
}

SampledRunResult
runSampled(TraceSource &source, CacheSystem &system,
           const SampleConfig &sample, const RunConfig &run)
{
    return driveSampledSource(source, system, sample, run,
                              [](CacheSystem &s) {
                                  return s.combinedStats();
                              });
}

std::vector<SampledSweepPoint>
sweepUnifiedSampled(const Trace &trace,
                    const std::vector<std::uint64_t> &sizes,
                    const CacheConfig &base, const SampleConfig &sample,
                    const RunConfig &run)
{
    std::vector<SampledSweepPoint> out(sizes.size());
    detail::BatchExecutor(run).parallelFor(sizes.size(), [&](std::size_t i) {
        Cache cache(detail::configAt(base, sizes[i]));
        out[i] = {sizes[i], runSampled(trace, cache, sample, run)};
    });
    return out;
}

std::vector<SplitSampledSweepPoint>
sweepSplitSampled(const Trace &trace, const std::vector<std::uint64_t> &sizes,
                  const CacheConfig &base, const SampleConfig &sample,
                  const RunConfig &run)
{
    CACHELAB_ASSERT(run.purgeInterval == 0,
                    "sampled split sweep: purge schedule is defined on the "
                    "combined stream; run unsampled or purge-free");
    const Trace istream = filter(
        trace, [](const MemoryRef &r) { return r.kind == AccessKind::IFetch; },
        trace.name() + ".I");
    const Trace dstream = filter(
        trace, [](const MemoryRef &r) { return isData(r.kind); },
        trace.name() + ".D");

    std::vector<SplitSampledSweepPoint> out(sizes.size());
    detail::BatchExecutor(run).parallelFor(sizes.size(), [&](std::size_t i) {
        const CacheConfig config = detail::configAt(base, sizes[i]);
        Cache icache(config), dcache(config);
        out[i] = {sizes[i], runSampled(istream, icache, sample, run),
                  runSampled(dstream, dcache, sample, run)};
    });
    return out;
}

namespace
{

/** One streamed sampled run: a cache and the engine driving it. */
struct SampledLane
{
    Cache cache;
    SampledEngine<Cache> engine;

    SampledLane(const CacheConfig &config, std::uint64_t length,
                const SampleConfig &sample, const RunConfig &run,
                SampledEngine<Cache>::Restore restore)
        : cache(config),
          engine(length, cache, sample, run,
                 [](Cache &c) { return c.stats(); }, std::move(restore))
    {}
};

/** @return the lane side a split sweep routes @p ref to (0 = I, 1 = D). */
std::size_t
sideOf(const MemoryRef &ref)
{
    return isData(ref.kind) ? 1 : 0;
}

/**
 * The streamed sampled sweep of both organizations, plain or
 * store-backed.  A unified sweep runs one lane per size over the
 * whole stream; a split sweep runs an I lane and a D lane per size,
 * each over its side's subsequence (order preserved, so it equals the
 * filtered per-side trace).  One decode feeds every lane the exact
 * stream a dedicated sampled run would see.
 *
 * Reading stops once no engine is active.  With a @p store the rest of
 * the stream is still hashed (not fed) and checked against the
 * store's content hash, unless every engine stopped on the sequential
 * rule — the one run allowed to end before the stream does.
 *
 * @return one result per lane: sizes.size() unified (or I) results,
 * then, for a split sweep, as many D results.
 */
std::vector<SampledRunResult>
sweepSampledStream(TraceSource &source, const std::vector<std::uint64_t> &sizes,
                   const CacheConfig &base, const SampleConfig &sample,
                   const RunConfig &run, const ckpt::LivePointStore *store,
                   bool split)
{
    detail::validateSizes(base, sizes);
    if (store != nullptr && sample.warming != WarmingPolicy::Checkpoint)
        fatal(split ? "sweepSplitSampled" : "sweepUnifiedSampled",
              "(store): a live-point store implies checkpoint warming; got ",
              toString(sample.warming));
    CACHELAB_ASSERT(!split || run.purgeInterval == 0,
                    "sampled split sweep: purge schedule is defined on the "
                    "combined stream; run unsampled or purge-free");

    // Stream length per side.  The split plans need each side's
    // length, which only a counting pass over the kinds can reveal.
    std::uint64_t lengths[2] = {0, 0};
    if (split) {
        source.forEachBatch(
            [&](std::span<const MemoryRef> batch) {
                for (const MemoryRef &ref : batch)
                    ++lengths[sideOf(ref)];
            },
            run.resolvedBatchRefs());
        source.reset();
    } else {
        lengths[0] = sourceLength(source);
    }
    if (store != nullptr)
        store->checkCompatible(
            split ? ckpt::splitLivePointKey(source.name(),
                                            lengths[0] + lengths[1],
                                            lengths[0], lengths[1], sample)
                  : ckpt::unifiedLivePointKey(source.name(), lengths[0],
                                              sample, run.purgeInterval));

    const char *const roles[2] = {split ? "icache" : "unified", "dcache"};
    std::vector<std::unique_ptr<SampledLane>> lanes;
    for (std::size_t side = 0; side < (split ? 2 : 1); ++side) {
        for (std::uint64_t size : sizes) {
            const CacheConfig config = detail::configAt(base, size);
            SampledEngine<Cache>::Restore restore;
            if (store != nullptr) {
                // Refuse an ineligible size here, once, not on every
                // worker's first restore after the fan-out.
                ckpt::requireLivePointEligible(config);
                const ckpt::LivePointGroup &group = store->group(
                    roles[side], config.lineBytes, config.setCount(),
                    config.effectiveAssociativity());
                restore = [&group](Cache &c, std::size_t idx,
                                   std::uint64_t &since_purge) {
                    group.restoreInto(c, idx, since_purge);
                };
            }
            lanes.push_back(std::make_unique<SampledLane>(
                config, lengths[side], sample, run, std::move(restore)));
        }
    }
    const auto all_stopped = [&] {
        return std::all_of(lanes.begin(), lanes.end(), [](const auto &lane) {
            return lane->engine.stoppedEarly();
        });
    };

    std::vector<MemoryRef> side_refs[2];
    std::span<const MemoryRef> spans[2];
    std::uint64_t content_hash = ckpt::kContentHashSeed;
    bool feeding = true;
    detail::streamPass(
        source, run,
        [&](std::span<const MemoryRef> batch, detail::BatchExecutor &exec) {
            // The content hash runs over every reference, fed or not:
            // about 2.3 ns/ref on a 4-vCPU Xeon host (one multiply on
            // its dependent chain), under a tenth of a store-backed
            // sweep.
            if (store != nullptr)
                content_hash = ckpt::hashRefs(content_hash, batch);
            if (!feeding)
                return true; // hashing the tail for the content check
            spans[0] = batch;
            if (split) {
                side_refs[0].clear();
                side_refs[1].clear();
                for (const MemoryRef &ref : batch)
                    side_refs[sideOf(ref)].push_back(ref);
                spans[0] = side_refs[0];
                spans[1] = side_refs[1];
            }
            exec.parallelFor(lanes.size(), [&](std::size_t k) {
                lanes[k]->engine.feed(spans[k / sizes.size()]);
            });
            feeding = std::any_of(lanes.begin(), lanes.end(),
                                  [](const auto &lane) {
                                      return lane->engine.active();
                                  });
            return feeding || (store != nullptr && !all_stopped());
        });

    std::vector<SampledRunResult> results;
    results.reserve(lanes.size());
    for (const auto &lane : lanes)
        results.push_back(lane->engine.finish());
    if (store != nullptr && !all_stopped() &&
        content_hash != store->contentHash())
        fatal("live points: trace content hash ", content_hash,
              " does not match the store's ", store->contentHash(),
              " — same name and length, different references; the store "
              "'", store->directory(), "' was written from another trace");
    return results;
}

std::vector<SampledSweepPoint>
unifiedPoints(const std::vector<std::uint64_t> &sizes,
              std::vector<SampledRunResult> results)
{
    std::vector<SampledSweepPoint> out(sizes.size());
    for (std::size_t i = 0; i < sizes.size(); ++i)
        out[i] = {sizes[i], std::move(results[i])};
    return out;
}

std::vector<SplitSampledSweepPoint>
splitPoints(const std::vector<std::uint64_t> &sizes,
            std::vector<SampledRunResult> results)
{
    std::vector<SplitSampledSweepPoint> out(sizes.size());
    for (std::size_t i = 0; i < sizes.size(); ++i)
        out[i] = {sizes[i], std::move(results[i]),
                  std::move(results[sizes.size() + i])};
    return out;
}

} // namespace

std::vector<SampledSweepPoint>
sweepUnifiedSampled(TraceSource &source,
                    const std::vector<std::uint64_t> &sizes,
                    const CacheConfig &base, const SampleConfig &sample,
                    const RunConfig &run)
{
    return unifiedPoints(sizes, sweepSampledStream(source, sizes, base,
                                                   sample, run, nullptr,
                                                   false));
}

std::vector<SplitSampledSweepPoint>
sweepSplitSampled(TraceSource &source, const std::vector<std::uint64_t> &sizes,
                  const CacheConfig &base, const SampleConfig &sample,
                  const RunConfig &run)
{
    return splitPoints(sizes, sweepSampledStream(source, sizes, base, sample,
                                                 run, nullptr, true));
}

std::vector<SampledSweepPoint>
sweepUnifiedSampled(TraceSource &source,
                    const std::vector<std::uint64_t> &sizes,
                    const CacheConfig &base, const SampleConfig &sample,
                    const RunConfig &run, const ckpt::LivePointStore &store)
{
    return unifiedPoints(sizes, sweepSampledStream(source, sizes, base,
                                                   sample, run, &store,
                                                   false));
}

std::vector<SplitSampledSweepPoint>
sweepSplitSampled(TraceSource &source, const std::vector<std::uint64_t> &sizes,
                  const CacheConfig &base, const SampleConfig &sample,
                  const RunConfig &run, const ckpt::LivePointStore &store)
{
    return splitPoints(sizes, sweepSampledStream(source, sizes, base, sample,
                                                 run, &store, true));
}

} // namespace cachelab
