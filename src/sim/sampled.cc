/**
 * @file
 * Implementation of the sampled simulation driver.
 *
 * One incremental engine serves every entry point: SampledEngine is a
 * chunk-fed state machine over the sampling plan, and the materialized
 * runSampled() is literally the engine fed the whole trace as a single
 * span — so the streamed and materialized paths cannot diverge.  The
 * engine replicates the reference semantics of warmToInterval()
 * (sample/warming.hh) operation for operation:
 *
 *  - Cold warming skips to the interval and purges.  The engine fires
 *    that purge when the cursor crosses interval.begin; no access
 *    happens between skip-start and the crossing, so the system sees
 *    the identical operation sequence.
 *  - FixedWarmup replays the last warmupRefs references before the
 *    interval; Functional replays everything, honouring the purge
 *    schedule.  since_purge survives across intervals exactly as the
 *    materialized cursor loop carries it.
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
#include "sim/sweep.hh"
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

    /** Consume the next @p refs of the stream (cursor order). */
    void
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
    std::vector<MemoryRef> buffer(run.resolvedBatchRefs());
    std::size_t got;
    // An early-stopped engine ignores further input; stop decoding.
    while (engine.active() && (got = source.nextBatch(buffer)) != 0)
        engine.feed(std::span<const MemoryRef>(buffer.data(), got));
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
    detail::sweepParallelFor(sizes.size(), run, [&](std::size_t i) {
        CacheConfig config = base;
        config.sizeBytes = sizes[i];
        config.validate();
        Cache cache(config);
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
    detail::sweepParallelFor(sizes.size(), run, [&](std::size_t i) {
        CacheConfig config = base;
        config.sizeBytes = sizes[i];
        config.validate();
        Cache icache(config), dcache(config);
        out[i] = {sizes[i], runSampled(istream, icache, sample, run),
                  runSampled(dstream, dcache, sample, run)};
    });
    return out;
}

std::vector<SampledSweepPoint>
sweepUnifiedSampled(TraceSource &source,
                    const std::vector<std::uint64_t> &sizes,
                    const CacheConfig &base, const SampleConfig &sample,
                    const RunConfig &run)
{
    const std::uint64_t length = sourceLength(source);
    std::vector<std::unique_ptr<Cache>> caches;
    std::vector<std::unique_ptr<SampledEngine<Cache>>> engines;
    caches.reserve(sizes.size());
    engines.reserve(sizes.size());
    for (std::uint64_t size : sizes) {
        CacheConfig config = base;
        config.sizeBytes = size;
        config.validate();
        caches.push_back(std::make_unique<Cache>(config));
        engines.push_back(std::make_unique<SampledEngine<Cache>>(
            length, *caches.back(), sample, run,
            [](Cache &c) { return c.stats(); }));
    }

    // Chunk-synchronous: one decode of the input feeds every size's
    // engine, each of which sees the exact stream a dedicated sampled
    // run would.
    detail::BatchExecutor exec(run);
    std::vector<MemoryRef> buffer(run.resolvedBatchRefs());
    std::size_t got;
    while ((got = source.nextBatch(buffer)) != 0) {
        const std::span<const MemoryRef> batch(buffer.data(), got);
        exec.parallelFor(sizes.size(),
                         [&](std::size_t i) { engines[i]->feed(batch); });
        bool any_active = false;
        for (const auto &engine : engines)
            any_active = any_active || engine->active();
        if (!any_active)
            break; // every size stopped early; stop decoding
    }

    std::vector<SampledSweepPoint> out(sizes.size());
    for (std::size_t i = 0; i < sizes.size(); ++i)
        out[i] = {sizes[i], engines[i]->finish()};
    return out;
}

std::vector<SplitSampledSweepPoint>
sweepSplitSampled(TraceSource &source, const std::vector<std::uint64_t> &sizes,
                  const CacheConfig &base, const SampleConfig &sample,
                  const RunConfig &run)
{
    CACHELAB_ASSERT(run.purgeInterval == 0,
                    "sampled split sweep: purge schedule is defined on the "
                    "combined stream; run unsampled or purge-free");
    // Counting pass: the per-side sampling plans need each side's
    // stream length, which only a full decode can reveal.
    std::uint64_t ilen = 0, dlen = 0;
    source.forEachBatch(
        [&](std::span<const MemoryRef> batch) {
            for (const MemoryRef &ref : batch) {
                if (ref.kind == AccessKind::IFetch)
                    ++ilen;
                else if (isData(ref.kind))
                    ++dlen;
            }
        },
        run.resolvedBatchRefs());
    source.reset();

    std::vector<std::unique_ptr<Cache>> icaches, dcaches;
    std::vector<std::unique_ptr<SampledEngine<Cache>>> iengines, dengines;
    icaches.reserve(sizes.size());
    dcaches.reserve(sizes.size());
    iengines.reserve(sizes.size());
    dengines.reserve(sizes.size());
    for (std::uint64_t size : sizes) {
        CacheConfig config = base;
        config.sizeBytes = size;
        config.validate();
        icaches.push_back(std::make_unique<Cache>(config));
        dcaches.push_back(std::make_unique<Cache>(config));
        iengines.push_back(std::make_unique<SampledEngine<Cache>>(
            ilen, *icaches.back(), sample, run,
            [](Cache &c) { return c.stats(); }));
        dengines.push_back(std::make_unique<SampledEngine<Cache>>(
            dlen, *dcaches.back(), sample, run,
            [](Cache &c) { return c.stats(); }));
    }

    // Measured pass: partition each batch into its I and D
    // subsequences (order preserved, so the concatenation equals the
    // filtered per-side trace) and feed both sides' engines.
    detail::BatchExecutor exec(run);
    std::vector<MemoryRef> buffer(run.resolvedBatchRefs());
    std::vector<MemoryRef> ibuf, dbuf;
    ibuf.reserve(buffer.size());
    dbuf.reserve(buffer.size());
    std::size_t got;
    while ((got = source.nextBatch(buffer)) != 0) {
        ibuf.clear();
        dbuf.clear();
        for (std::size_t k = 0; k < got; ++k) {
            if (buffer[k].kind == AccessKind::IFetch)
                ibuf.push_back(buffer[k]);
            else if (isData(buffer[k].kind))
                dbuf.push_back(buffer[k]);
        }
        const std::span<const MemoryRef> ispan(ibuf.data(), ibuf.size());
        const std::span<const MemoryRef> dspan(dbuf.data(), dbuf.size());
        exec.parallelFor(sizes.size(), [&](std::size_t i) {
            iengines[i]->feed(ispan);
            dengines[i]->feed(dspan);
        });
    }

    std::vector<SplitSampledSweepPoint> out(sizes.size());
    for (std::size_t i = 0; i < sizes.size(); ++i)
        out[i] = {sizes[i], iengines[i]->finish(), dengines[i]->finish()};
    return out;
}

namespace
{

/** Fatal unless the fully-consumed stream matches the store's trace. */
void
verifyStoreContent(const ckpt::LivePointStore &store, std::uint64_t consumed,
                   std::uint64_t expected, std::uint64_t content_hash)
{
    if (consumed != expected)
        return; // early stop: the tail was never decoded, skip the check
    if (content_hash != store.contentHash())
        fatal("live points: trace content hash ", content_hash,
              " does not match the store's ", store.contentHash(),
              " — same name and length, different references; the store "
              "'", store.directory(), "' was written from another trace");
}

} // namespace

std::vector<SampledSweepPoint>
sweepUnifiedSampled(TraceSource &source,
                    const std::vector<std::uint64_t> &sizes,
                    const CacheConfig &base, const SampleConfig &sample,
                    const RunConfig &run, const ckpt::LivePointStore &store)
{
    if (sample.warming != WarmingPolicy::Checkpoint)
        fatal("sweepUnifiedSampled(store): a live-point store implies "
              "checkpoint warming; got ", toString(sample.warming));
    const std::uint64_t length = sourceLength(source);
    store.checkCompatible(ckpt::unifiedLivePointKey(
        source.name(), length, sample, run.purgeInterval));

    std::vector<std::unique_ptr<Cache>> caches;
    std::vector<std::unique_ptr<SampledEngine<Cache>>> engines;
    caches.reserve(sizes.size());
    engines.reserve(sizes.size());
    for (std::uint64_t size : sizes) {
        CacheConfig config = base;
        config.sizeBytes = size;
        config.validate();
        const ckpt::LivePointGroup &group =
            store.group("unified", config.lineBytes, config.setCount(),
                        config.effectiveAssociativity());
        caches.push_back(std::make_unique<Cache>(config));
        engines.push_back(std::make_unique<SampledEngine<Cache>>(
            length, *caches.back(), sample, run,
            [](Cache &c) { return c.stats(); },
            [&group](Cache &c, std::size_t idx, std::uint64_t &sp) {
                group.restoreInto(c, idx, sp);
            }));
    }

    // Chunk-synchronous over the size axis, exactly like the
    // functional-warming streamed sweep — but the engines skip every
    // gap in O(1), so decode and the content hash dominate.  The hash
    // is not free: hashRefs is byte-wise FNV-1a over 24 bytes a
    // reference, 33-36 ns/ref on a 4-vCPU Xeon host, about 40% of the
    // sweep.  A word-wise hash changes every store's content hash, so
    // it needs store version 2.
    detail::BatchExecutor exec(run);
    std::vector<MemoryRef> buffer(run.resolvedBatchRefs());
    std::uint64_t consumed = 0;
    std::uint64_t content_hash = ckpt::kFnvOffset;
    std::size_t got;
    while ((got = source.nextBatch(buffer)) != 0) {
        const std::span<const MemoryRef> batch(buffer.data(), got);
        content_hash = ckpt::hashRefs(content_hash, batch);
        consumed += got;
        exec.parallelFor(sizes.size(),
                         [&](std::size_t i) { engines[i]->feed(batch); });
        bool any_active = false;
        for (const auto &engine : engines)
            any_active = any_active || engine->active();
        if (!any_active)
            break; // every size stopped early; stop decoding
    }
    verifyStoreContent(store, consumed, length, content_hash);

    std::vector<SampledSweepPoint> out(sizes.size());
    for (std::size_t i = 0; i < sizes.size(); ++i)
        out[i] = {sizes[i], engines[i]->finish()};
    return out;
}

std::vector<SplitSampledSweepPoint>
sweepSplitSampled(TraceSource &source, const std::vector<std::uint64_t> &sizes,
                  const CacheConfig &base, const SampleConfig &sample,
                  const RunConfig &run, const ckpt::LivePointStore &store)
{
    if (sample.warming != WarmingPolicy::Checkpoint)
        fatal("sweepSplitSampled(store): a live-point store implies "
              "checkpoint warming; got ", toString(sample.warming));
    CACHELAB_ASSERT(run.purgeInterval == 0,
                    "sampled split sweep: purge schedule is defined on the "
                    "combined stream; run unsampled or purge-free");
    std::uint64_t ilen = 0, dlen = 0;
    source.forEachBatch(
        [&](std::span<const MemoryRef> batch) {
            for (const MemoryRef &ref : batch) {
                if (ref.kind == AccessKind::IFetch)
                    ++ilen;
                else
                    ++dlen;
            }
        },
        run.resolvedBatchRefs());
    source.reset();
    const std::uint64_t length = ilen + dlen;
    store.checkCompatible(ckpt::splitLivePointKey(source.name(), length,
                                                  ilen, dlen, sample));

    std::vector<std::unique_ptr<Cache>> icaches, dcaches;
    std::vector<std::unique_ptr<SampledEngine<Cache>>> iengines, dengines;
    icaches.reserve(sizes.size());
    dcaches.reserve(sizes.size());
    iengines.reserve(sizes.size());
    dengines.reserve(sizes.size());
    for (std::uint64_t size : sizes) {
        CacheConfig config = base;
        config.sizeBytes = size;
        config.validate();
        const ckpt::LivePointGroup &igroup =
            store.group("icache", config.lineBytes, config.setCount(),
                        config.effectiveAssociativity());
        const ckpt::LivePointGroup &dgroup =
            store.group("dcache", config.lineBytes, config.setCount(),
                        config.effectiveAssociativity());
        icaches.push_back(std::make_unique<Cache>(config));
        dcaches.push_back(std::make_unique<Cache>(config));
        iengines.push_back(std::make_unique<SampledEngine<Cache>>(
            ilen, *icaches.back(), sample, run,
            [](Cache &c) { return c.stats(); },
            [&igroup](Cache &c, std::size_t idx, std::uint64_t &sp) {
                igroup.restoreInto(c, idx, sp);
            }));
        dengines.push_back(std::make_unique<SampledEngine<Cache>>(
            dlen, *dcaches.back(), sample, run,
            [](Cache &c) { return c.stats(); },
            [&dgroup](Cache &c, std::size_t idx, std::uint64_t &sp) {
                dgroup.restoreInto(c, idx, sp);
            }));
    }

    detail::BatchExecutor exec(run);
    std::vector<MemoryRef> buffer(run.resolvedBatchRefs());
    std::vector<MemoryRef> ibuf, dbuf;
    ibuf.reserve(buffer.size());
    dbuf.reserve(buffer.size());
    std::uint64_t consumed = 0;
    std::uint64_t content_hash = ckpt::kFnvOffset;
    std::size_t got;
    while ((got = source.nextBatch(buffer)) != 0) {
        const std::span<const MemoryRef> batch(buffer.data(), got);
        content_hash = ckpt::hashRefs(content_hash, batch);
        consumed += got;
        ibuf.clear();
        dbuf.clear();
        for (const MemoryRef &ref : batch) {
            if (ref.kind == AccessKind::IFetch)
                ibuf.push_back(ref);
            else
                dbuf.push_back(ref);
        }
        const std::span<const MemoryRef> ispan(ibuf.data(), ibuf.size());
        const std::span<const MemoryRef> dspan(dbuf.data(), dbuf.size());
        exec.parallelFor(sizes.size(), [&](std::size_t i) {
            iengines[i]->feed(ispan);
            dengines[i]->feed(dspan);
        });
    }
    verifyStoreContent(store, consumed, length, content_hash);

    std::vector<SplitSampledSweepPoint> out(sizes.size());
    for (std::size_t i = 0; i < sizes.size(); ++i)
        out[i] = {sizes[i], iengines[i]->finish(), dengines[i]->finish()};
    return out;
}

} // namespace cachelab
