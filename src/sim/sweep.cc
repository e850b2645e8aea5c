/**
 * @file
 * Implementation of the sweep engine.
 */

#include "sim/sweep.hh"

#include <cstring>
#include <memory>

#include "cache/organization.hh"
#include "cache/stack_analysis.hh"
#include "sim/drive.hh"
#include "obs/metrics.hh"
#include "obs/profile.hh"
#include "obs/progress.hh"
#include "obs/trace_event.hh"
#include "sim/sampled.hh"
#include "util/format.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace cachelab
{

namespace detail
{

void
sweepParallelFor(std::size_t n, const RunConfig &run,
                 const std::function<void(std::size_t)> &fn)
{
    // A sweep reached from inside a pool task (e.g. a bench fanning
    // out per-trace work) runs its size axis serially rather than
    // deadlocking the fixed-size pool.
    if (run.jobs == 1 || ThreadPool::onWorkerThread()) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    if (run.jobs == 0) {
        ThreadPool::shared().parallelFor(n, fn);
        return;
    }
    ThreadPool pool(run.jobs);
    pool.parallelFor(n, fn);
    // The pool dies with this sweep; keep its utilization visible in
    // the pool.* gauges (the manifest's thread_pool section records
    // the process-wide shared pool).
    obs::publishThreadPool(obs::Registry::global(), pool);
}

BatchExecutor::BatchExecutor(const RunConfig &run)
{
    if (run.jobs == 1 || ThreadPool::onWorkerThread())
        return; // serial
    if (run.jobs == 0) {
        pool_ = &ThreadPool::shared();
        return;
    }
    local_ = std::make_unique<ThreadPool>(run.jobs);
    pool_ = local_.get();
}

BatchExecutor::~BatchExecutor()
{
    if (local_)
        obs::publishThreadPool(obs::Registry::global(), *local_);
}

void
BatchExecutor::parallelFor(std::size_t n,
                           const std::function<void(std::size_t)> &fn)
{
    if (pool_ != nullptr) {
        pool_->parallelFor(n, fn);
        return;
    }
    for (std::size_t i = 0; i < n; ++i)
        fn(i);
}

} // namespace detail

namespace
{

/** Run fn(i) for i in [0, n), parallel when the run config allows. */
template <typename Fn>
void
sweepFor(std::size_t n, const RunConfig &run, Fn &&fn)
{
    detail::sweepParallelFor(n, run, fn);
}

/** @return @p base with sizeBytes = @p size, validated. */
CacheConfig
configAt(const CacheConfig &base, std::uint64_t size)
{
    CacheConfig config = base;
    config.sizeBytes = size;
    config.validate();
    return config;
}

/** configAt() every size, so a bad size fails before any input is read. */
void
validateSizes(const CacheConfig &base, const std::vector<std::uint64_t> &sizes)
{
    for (std::uint64_t size : sizes)
        configAt(base, size);
}

bool
statsEqual(const CacheStats &a, const CacheStats &b)
{
    return std::memcmp(&a, &b, sizeof(CacheStats)) == 0;
}

/**
 * Consult the probe factory serially for every size point, so factory
 * implementations need no locking even when the runs fan out.
 * @return one probe (possibly nullptr) per size, or an empty vector
 * when the run is uninstrumented.
 */
std::vector<CacheProbe *>
probesForSizes(const std::vector<std::uint64_t> &sizes,
               const CacheConfig &base, const RunConfig &run,
               std::string_view role)
{
    std::vector<CacheProbe *> probes;
    if (run.probeFactory == nullptr)
        return probes;
    probes.reserve(sizes.size());
    for (std::uint64_t size : sizes)
        probes.push_back(
            run.probeFactory->probeFor(configAt(base, size), role));
    return probes;
}

/** fatal() naming the engine that cannot drive a probe factory. */
void
rejectProbes(const RunConfig &run, const char *engine)
{
    if (run.probeFactory != nullptr)
        fatal("the ", engine, " engine cannot drive cache-event probes; "
              "use the per-size engine (--engine per-size) for "
              "instrumented sweeps");
}

[[noreturn]] void
reportMismatch(const char *what, std::uint64_t size, const CacheStats &per_size,
               const CacheStats &single_pass)
{
    panic("sweep verify: ", what, " mismatch at ", size, " bytes\n",
          "  per-size:    ", per_size.summarize(), "\n",
          "  single-pass: ", single_pass.summarize());
}

std::vector<SweepPoint>
sweepUnifiedPerSize(const Trace &trace, const std::vector<std::uint64_t> &sizes,
                    const CacheConfig &base, const RunConfig &run)
{
    obs::Registry::global().counter("sweep.points").add(sizes.size());
    const auto probes = probesForSizes(sizes, base, run, "unified");
    std::vector<SweepPoint> out(sizes.size());
    sweepFor(sizes.size(), run, [&](std::size_t i) {
        obs::ProfileScope profile("sweep.point");
        obs::TraceSpan span("sweep_point", "sweep",
                            {{"bytes", formatSize(sizes[i])},
                             {"trace", trace.name()}});
        Cache cache(configAt(base, sizes[i]));
        if (!probes.empty())
            cache.setProbe(probes[i]);
        out[i] = {sizes[i], runTrace(trace, cache, run)};
    });
    return out;
}

std::vector<SplitSweepPoint>
sweepSplitPerSize(const Trace &trace, const std::vector<std::uint64_t> &sizes,
                  const CacheConfig &base, const RunConfig &run)
{
    obs::Registry::global().counter("sweep.points").add(sizes.size());
    const auto iprobes = probesForSizes(sizes, base, run, "icache");
    const auto dprobes = probesForSizes(sizes, base, run, "dcache");
    std::vector<SplitSweepPoint> out(sizes.size());
    sweepFor(sizes.size(), run, [&](std::size_t i) {
        obs::ProfileScope profile("sweep.point");
        obs::TraceSpan span("sweep_point", "sweep",
                            {{"bytes", formatSize(sizes[i])},
                             {"trace", trace.name()},
                             {"organization", "split"}});
        const CacheConfig config = configAt(base, sizes[i]);
        SplitCache split(config, config);
        if (!iprobes.empty())
            split.setProbes(iprobes[i], dprobes[i]);
        runTrace(trace, split, run);
        out[i] = {sizes[i], split.icache().stats(), split.dcache().stats()};
    });
    return out;
}

std::vector<SweepPoint>
sweepUnifiedPerSizeStream(TraceSource &source,
                          const std::vector<std::uint64_t> &sizes,
                          const CacheConfig &base, const RunConfig &run)
{
    obs::Registry::global().counter("sweep.points").add(sizes.size());
    obs::ProfileScope profile("sweep.stream");
    obs::TraceSpan span("sweep_stream", "sweep",
                        {{"trace", source.name()}});

    const auto probes = probesForSizes(sizes, base, run, "unified");
    std::vector<std::unique_ptr<Cache>> caches;
    caches.reserve(sizes.size());
    for (std::size_t i = 0; i < sizes.size(); ++i) {
        caches.push_back(std::make_unique<Cache>(configAt(base, sizes[i])));
        if (!probes.empty())
            caches.back()->setProbe(probes[i]);
    }
    std::vector<detail::DriveState> states(sizes.size(),
                                           detail::DriveState(run));
    const detail::DriveObs ob;

    // One input pass: each batch fans out over the size axis.  Every
    // cache sees the exact reference sequence a dedicated full run
    // would feed it, so the results are bitwise those of the
    // materialized per-size sweep.
    detail::BatchExecutor exec(run);
    std::vector<MemoryRef> buffer(run.resolvedBatchRefs());
    std::size_t got;
    while ((got = source.nextBatch(buffer)) != 0) {
        const std::span<const MemoryRef> batch(buffer.data(), got);
        exec.parallelFor(sizes.size(), [&](std::size_t i) {
            detail::driveSpan(batch, *caches[i], run, states[i], ob);
        });
    }

    std::vector<SweepPoint> out(sizes.size());
    for (std::size_t i = 0; i < sizes.size(); ++i) {
        detail::driveFinish(states[i], run, ob);
        out[i] = {sizes[i], caches[i]->stats()};
    }
    return out;
}

std::vector<SweepPoint>
sweepUnifiedSinglePass(TraceSource &source,
                       const std::vector<std::uint64_t> &sizes,
                       const CacheConfig &base, const RunConfig &run)
{
    CACHELAB_ASSERT(sweepSinglePassEligible(base, run),
                    "single-pass sweep requires the Table 1 shape");
    rejectProbes(run, "single-pass Mattson");
    validateSizes(base, sizes);
    obs::Registry::global().counter("sweep.points").add(sizes.size());
    obs::ProfileScope profile("sweep.single_pass");
    obs::TraceSpan span("single_pass", "sweep",
                        {{"trace", source.name()}});
    StackAnalyzer analyzer(base.lineBytes);
    std::uint64_t total = 0;
    source.forEachBatch(
        [&](std::span<const MemoryRef> batch) {
            analyzer.accessAll(batch);
            total += batch.size();
        },
        run.resolvedBatchRefs());
    obs::Registry::global().counter("sim.refs").add(total);
    if (obs::ProgressMeter::global().enabled())
        obs::ProgressMeter::global().advance(total);
    std::vector<SweepPoint> out;
    out.reserve(sizes.size());
    for (std::uint64_t size : sizes)
        out.push_back({size, analyzer.table1StatsFor(size)});
    return out;
}

std::vector<SplitSweepPoint>
sweepSplitPerSizeStream(TraceSource &source,
                        const std::vector<std::uint64_t> &sizes,
                        const CacheConfig &base, const RunConfig &run)
{
    obs::Registry::global().counter("sweep.points").add(sizes.size());
    obs::ProfileScope profile("sweep.stream");
    obs::TraceSpan span("sweep_stream", "sweep",
                        {{"trace", source.name()},
                         {"organization", "split"}});

    const auto iprobes = probesForSizes(sizes, base, run, "icache");
    const auto dprobes = probesForSizes(sizes, base, run, "dcache");
    std::vector<std::unique_ptr<SplitCache>> splits;
    splits.reserve(sizes.size());
    for (std::size_t i = 0; i < sizes.size(); ++i) {
        const CacheConfig config = configAt(base, sizes[i]);
        splits.push_back(std::make_unique<SplitCache>(config, config));
        if (!iprobes.empty())
            splits.back()->setProbes(iprobes[i], dprobes[i]);
    }
    std::vector<detail::DriveState> states(sizes.size(),
                                           detail::DriveState(run));
    const detail::DriveObs ob;

    detail::BatchExecutor exec(run);
    std::vector<MemoryRef> buffer(run.resolvedBatchRefs());
    std::size_t got;
    while ((got = source.nextBatch(buffer)) != 0) {
        const std::span<const MemoryRef> batch(buffer.data(), got);
        exec.parallelFor(sizes.size(), [&](std::size_t i) {
            detail::driveSpan(batch, *splits[i], run, states[i], ob);
        });
    }

    std::vector<SplitSweepPoint> out(sizes.size());
    for (std::size_t i = 0; i < sizes.size(); ++i) {
        detail::driveFinish(states[i], run, ob);
        out[i] = {sizes[i], splits[i]->icache().stats(),
                  splits[i]->dcache().stats()};
    }
    return out;
}

std::vector<SplitSweepPoint>
sweepSplitSinglePass(TraceSource &source,
                     const std::vector<std::uint64_t> &sizes,
                     const CacheConfig &base, const RunConfig &run)
{
    CACHELAB_ASSERT(sweepSinglePassEligible(base, run),
                    "single-pass sweep requires the Table 1 shape");
    rejectProbes(run, "single-pass Mattson");
    validateSizes(base, sizes);
    obs::Registry::global().counter("sweep.points").add(sizes.size());
    obs::ProfileScope profile("sweep.single_pass");
    obs::TraceSpan span("single_pass", "sweep",
                        {{"trace", source.name()},
                         {"organization", "split"}});
    // The split organization routes ifetches and data to independent
    // caches, so each side is its own fully associative LRU stream.
    StackAnalyzer istream(base.lineBytes), dstream(base.lineBytes);
    std::uint64_t total = 0;
    source.forEachBatch(
        [&](std::span<const MemoryRef> batch) {
            for (const MemoryRef &ref : batch) {
                if (ref.kind == AccessKind::IFetch)
                    istream.access(ref);
                else
                    dstream.access(ref);
            }
            total += batch.size();
        },
        run.resolvedBatchRefs());
    obs::Registry::global().counter("sim.refs").add(total);
    if (obs::ProgressMeter::global().enabled())
        obs::ProgressMeter::global().advance(total);
    std::vector<SplitSweepPoint> out;
    out.reserve(sizes.size());
    for (std::uint64_t size : sizes)
        out.push_back({size, istream.table1StatsFor(size),
                       dstream.table1StatsFor(size)});
    return out;
}

} // namespace

std::vector<std::uint64_t>
powersOfTwo(std::uint64_t lo, std::uint64_t hi)
{
    CACHELAB_ASSERT(lo > 0 && lo <= hi, "bad power-of-two range");
    std::vector<std::uint64_t> out;
    for (std::uint64_t v = lo; v <= hi; v <<= 1)
        out.push_back(v);
    return out;
}

const std::vector<std::uint64_t> &
paperCacheSizes()
{
    static const std::vector<std::uint64_t> sizes = powersOfTwo(32, 65536);
    return sizes;
}

bool
sweepSinglePassEligible(const CacheConfig &base, const RunConfig &run)
{
    return base.associativity == 0 &&
        base.replacement.toString() == "lru" && base.admission.empty() &&
        base.fetchPolicy == FetchPolicy::Demand &&
        base.writePolicy == WritePolicy::CopyBack &&
        base.writeMiss == WriteMissPolicy::FetchOnWrite &&
        run.purgeInterval == 0 && run.warmupRefs == 0;
}

std::vector<SweepPoint>
sweepUnified(const Trace &trace, const std::vector<std::uint64_t> &sizes,
             const CacheConfig &base, const RunConfig &run,
             SweepEngine engine)
{
    // The single-pass engine reads sources; this one views the trace.
    MemorySource source(trace.refs(), trace.name());
    switch (engine) {
      case SweepEngine::Auto:
        // Probes force the per-size path: only real caches emit events.
        return sweepSinglePassEligible(base, run) &&
                run.probeFactory == nullptr
            ? sweepUnifiedSinglePass(source, sizes, base, run)
            : sweepUnifiedPerSize(trace, sizes, base, run);
      case SweepEngine::PerSize:
        return sweepUnifiedPerSize(trace, sizes, base, run);
      case SweepEngine::SinglePass:
        return sweepUnifiedSinglePass(source, sizes, base, run);
      case SweepEngine::Verify: {
        rejectProbes(run, "verify");
        const auto per_size = sweepUnifiedPerSize(trace, sizes, base, run);
        const auto fast = sweepUnifiedSinglePass(source, sizes, base, run);
        for (std::size_t i = 0; i < sizes.size(); ++i) {
            if (!statsEqual(per_size[i].stats, fast[i].stats))
                reportMismatch("unified", sizes[i], per_size[i].stats,
                               fast[i].stats);
        }
        return per_size;
      }
      case SweepEngine::Sampled: {
        rejectProbes(run, "sampled");
        const auto sampled =
            sweepUnifiedSampled(trace, sizes, base, SampleConfig{}, run);
        std::vector<SweepPoint> out;
        out.reserve(sampled.size());
        for (const SampledSweepPoint &pt : sampled)
            out.push_back({pt.cacheBytes, pt.result.estimated});
        return out;
      }
    }
    panic("unreachable sweep engine");
}

std::vector<SplitSweepPoint>
sweepSplit(const Trace &trace, const std::vector<std::uint64_t> &sizes,
           const CacheConfig &base, const RunConfig &run, SweepEngine engine)
{
    MemorySource source(trace.refs(), trace.name());
    switch (engine) {
      case SweepEngine::Auto:
        return sweepSinglePassEligible(base, run) &&
                run.probeFactory == nullptr
            ? sweepSplitSinglePass(source, sizes, base, run)
            : sweepSplitPerSize(trace, sizes, base, run);
      case SweepEngine::PerSize:
        return sweepSplitPerSize(trace, sizes, base, run);
      case SweepEngine::SinglePass:
        return sweepSplitSinglePass(source, sizes, base, run);
      case SweepEngine::Verify: {
        rejectProbes(run, "verify");
        const auto per_size = sweepSplitPerSize(trace, sizes, base, run);
        const auto fast = sweepSplitSinglePass(source, sizes, base, run);
        for (std::size_t i = 0; i < sizes.size(); ++i) {
            if (!statsEqual(per_size[i].icache, fast[i].icache))
                reportMismatch("split icache", sizes[i], per_size[i].icache,
                               fast[i].icache);
            if (!statsEqual(per_size[i].dcache, fast[i].dcache))
                reportMismatch("split dcache", sizes[i], per_size[i].dcache,
                               fast[i].dcache);
        }
        return per_size;
      }
      case SweepEngine::Sampled: {
        rejectProbes(run, "sampled");
        const auto sampled =
            sweepSplitSampled(trace, sizes, base, SampleConfig{}, run);
        std::vector<SplitSweepPoint> out;
        out.reserve(sampled.size());
        for (const SplitSampledSweepPoint &pt : sampled)
            out.push_back({pt.cacheBytes, pt.icache.estimated,
                           pt.dcache.estimated});
        return out;
      }
    }
    panic("unreachable sweep engine");
}

std::vector<SweepPoint>
sweepUnified(TraceSource &source, const std::vector<std::uint64_t> &sizes,
             const CacheConfig &base, const RunConfig &run,
             SweepEngine engine)
{
    switch (engine) {
      case SweepEngine::Auto:
        return sweepSinglePassEligible(base, run) &&
                run.probeFactory == nullptr
            ? sweepUnifiedSinglePass(source, sizes, base, run)
            : sweepUnifiedPerSizeStream(source, sizes, base, run);
      case SweepEngine::PerSize:
        return sweepUnifiedPerSizeStream(source, sizes, base, run);
      case SweepEngine::SinglePass:
        return sweepUnifiedSinglePass(source, sizes, base, run);
      case SweepEngine::Verify: {
        rejectProbes(run, "verify");
        const auto per_size =
            sweepUnifiedPerSizeStream(source, sizes, base, run);
        source.reset();
        const auto fast =
            sweepUnifiedSinglePass(source, sizes, base, run);
        for (std::size_t i = 0; i < sizes.size(); ++i) {
            if (!statsEqual(per_size[i].stats, fast[i].stats))
                reportMismatch("unified", sizes[i], per_size[i].stats,
                               fast[i].stats);
        }
        return per_size;
      }
      case SweepEngine::Sampled: {
        rejectProbes(run, "sampled");
        const auto sampled =
            sweepUnifiedSampled(source, sizes, base, SampleConfig{}, run);
        std::vector<SweepPoint> out;
        out.reserve(sampled.size());
        for (const SampledSweepPoint &pt : sampled)
            out.push_back({pt.cacheBytes, pt.result.estimated});
        return out;
      }
    }
    panic("unreachable sweep engine");
}

std::vector<SplitSweepPoint>
sweepSplit(TraceSource &source, const std::vector<std::uint64_t> &sizes,
           const CacheConfig &base, const RunConfig &run, SweepEngine engine)
{
    switch (engine) {
      case SweepEngine::Auto:
        return sweepSinglePassEligible(base, run) &&
                run.probeFactory == nullptr
            ? sweepSplitSinglePass(source, sizes, base, run)
            : sweepSplitPerSizeStream(source, sizes, base, run);
      case SweepEngine::PerSize:
        return sweepSplitPerSizeStream(source, sizes, base, run);
      case SweepEngine::SinglePass:
        return sweepSplitSinglePass(source, sizes, base, run);
      case SweepEngine::Verify: {
        rejectProbes(run, "verify");
        const auto per_size =
            sweepSplitPerSizeStream(source, sizes, base, run);
        source.reset();
        const auto fast =
            sweepSplitSinglePass(source, sizes, base, run);
        for (std::size_t i = 0; i < sizes.size(); ++i) {
            if (!statsEqual(per_size[i].icache, fast[i].icache))
                reportMismatch("split icache", sizes[i], per_size[i].icache,
                               fast[i].icache);
            if (!statsEqual(per_size[i].dcache, fast[i].dcache))
                reportMismatch("split dcache", sizes[i], per_size[i].dcache,
                               fast[i].dcache);
        }
        return per_size;
      }
      case SweepEngine::Sampled: {
        rejectProbes(run, "sampled");
        const auto sampled =
            sweepSplitSampled(source, sizes, base, SampleConfig{}, run);
        std::vector<SplitSweepPoint> out;
        out.reserve(sampled.size());
        for (const SplitSampledSweepPoint &pt : sampled)
            out.push_back({pt.cacheBytes, pt.icache.estimated,
                           pt.dcache.estimated});
        return out;
      }
    }
    panic("unreachable sweep engine");
}

} // namespace cachelab
