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
#include "util/format.hh"
#include "util/logging.hh"

namespace cachelab
{

namespace
{

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
            run.probeFactory->probeFor(detail::configAt(base, size), role));
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

/**
 * fatal() unless (@p base, @p run) is the single-pass engine's shape;
 * SinglePass and Verify call it before they read any input.
 */
void
requireSinglePassEligible(const CacheConfig &base, const RunConfig &run)
{
    if (!sweepSinglePassEligible(base, run))
        fatal("the single-pass engine needs the Table 1 shape (fully "
              "associative LRU, demand fetch, copy-back with "
              "fetch-on-write, no purging, no warm-up), not ",
              base.describe(), "; use the per-size engine (--engine "
              "per-size)");
}

[[noreturn]] void
reportMismatch(const char *what, std::uint64_t size, const CacheStats &per_size,
               const CacheStats &single_pass)
{
    panic("sweep verify: ", what, " mismatch at ", size, " bytes\n",
          "  per-size:    ", per_size.summarize(), "\n",
          "  single-pass: ", single_pass.summarize());
}

// Resident traces keep the point-major per-size engines: one whole
// run per size, fanned out over the size axis.  Fanning batches of a
// resident trace out instead measured 8-25% slower at jobs > 1
// (DESIGN.md §4e).

std::vector<SweepPoint>
sweepUnifiedPerSize(const Trace &trace, const std::vector<std::uint64_t> &sizes,
                    const CacheConfig &base, const RunConfig &run)
{
    detail::checkWarmup(run, trace);
    obs::Registry::global().counter("sweep.points").add(sizes.size());
    const auto probes = probesForSizes(sizes, base, run, "unified");
    std::vector<SweepPoint> out(sizes.size());
    detail::BatchExecutor(run).parallelFor(sizes.size(), [&](std::size_t i) {
        obs::ProfileScope profile("sweep.point");
        obs::TraceSpan span("sweep_point", "sweep",
                            {{"bytes", formatSize(sizes[i])},
                             {"trace", trace.name()}});
        Cache cache(detail::configAt(base, sizes[i]));
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
    detail::checkWarmup(run, trace);
    obs::Registry::global().counter("sweep.points").add(sizes.size());
    const auto iprobes = probesForSizes(sizes, base, run, "icache");
    const auto dprobes = probesForSizes(sizes, base, run, "dcache");
    std::vector<SplitSweepPoint> out(sizes.size());
    detail::BatchExecutor(run).parallelFor(sizes.size(), [&](std::size_t i) {
        obs::ProfileScope profile("sweep.point");
        obs::TraceSpan span("sweep_point", "sweep",
                            {{"bytes", formatSize(sizes[i])},
                             {"trace", trace.name()},
                             {"organization", "split"}});
        const CacheConfig config = detail::configAt(base, sizes[i]);
        SplitCache split(config, config);
        if (!iprobes.empty())
            split.setProbes(iprobes[i], dprobes[i]);
        runTrace(trace, split, run);
        out[i] = {sizes[i], split.icache().stats(), split.dcache().stats()};
    });
    return out;
}

/**
 * The streamed per-size engine: one input pass whose every batch fans
 * out over @p systems.  Each system sees the exact reference sequence
 * a dedicated full run would feed it, so the results are bitwise
 * those of the point-major engines.
 */
template <typename System>
void
driveStreamed(TraceSource &source, const RunConfig &run,
              std::vector<std::unique_ptr<System>> &systems)
{
    std::vector<detail::DriveState> states(systems.size(),
                                           detail::DriveState(run));
    const detail::DriveObs ob;
    detail::streamPass(
        source, run,
        [&](std::span<const MemoryRef> batch, detail::BatchExecutor &exec) {
            exec.parallelFor(systems.size(), [&](std::size_t i) {
                detail::driveSpan(batch, *systems[i], run, states[i], ob);
            });
            return true;
        });
    for (const detail::DriveState &state : states)
        detail::driveFinish(state, run);
}

std::vector<SweepPoint>
sweepUnifiedPerSize(TraceSource &source,
                    const std::vector<std::uint64_t> &sizes,
                    const CacheConfig &base, const RunConfig &run)
{
    obs::Registry::global().counter("sweep.points").add(sizes.size());
    obs::ProfileScope profile("sweep.stream");
    obs::TraceSpan span("sweep_stream", "sweep",
                        {{"trace", source.name()}});
    const auto probes = probesForSizes(sizes, base, run, "unified");
    std::vector<std::unique_ptr<Cache>> caches;
    for (std::size_t i = 0; i < sizes.size(); ++i) {
        caches.push_back(
            std::make_unique<Cache>(detail::configAt(base, sizes[i])));
        if (!probes.empty())
            caches.back()->setProbe(probes[i]);
    }
    driveStreamed(source, run, caches);
    std::vector<SweepPoint> out(sizes.size());
    for (std::size_t i = 0; i < sizes.size(); ++i)
        out[i] = {sizes[i], caches[i]->stats()};
    return out;
}

std::vector<SplitSweepPoint>
sweepSplitPerSize(TraceSource &source, const std::vector<std::uint64_t> &sizes,
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
    for (std::size_t i = 0; i < sizes.size(); ++i) {
        const CacheConfig config = detail::configAt(base, sizes[i]);
        splits.push_back(std::make_unique<SplitCache>(config, config));
        if (!iprobes.empty())
            splits.back()->setProbes(iprobes[i], dprobes[i]);
    }
    driveStreamed(source, run, splits);
    std::vector<SplitSweepPoint> out(sizes.size());
    for (std::size_t i = 0; i < sizes.size(); ++i)
        out[i] = {sizes[i], splits[i]->icache().stats(),
                  splits[i]->dcache().stats()};
    return out;
}

std::vector<SweepPoint>
sweepUnifiedSinglePass(TraceSource &source,
                       const std::vector<std::uint64_t> &sizes,
                       const CacheConfig &base, const RunConfig &run)
{
    requireSinglePassEligible(base, run);
    rejectProbes(run, "single-pass Mattson");
    detail::validateSizes(base, sizes);
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
sweepSplitSinglePass(TraceSource &source,
                     const std::vector<std::uint64_t> &sizes,
                     const CacheConfig &base, const RunConfig &run)
{
    requireSinglePassEligible(base, run);
    rejectProbes(run, "single-pass Mattson");
    detail::validateSizes(base, sizes);
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

/**
 * The unified engine switch over either input: @p input picks the
 * per-size engine (point-major for a resident trace, streamed for a
 * source); @p source is what the single-pass engine reads (@p input
 * itself, or a view of the resident trace).
 */
template <typename Input>
std::vector<SweepPoint>
sweepUnifiedOver(Input &input, TraceSource &source,
                 const std::vector<std::uint64_t> &sizes,
                 const CacheConfig &base, const RunConfig &run,
                 SweepEngine engine)
{
    switch (engine) {
      case SweepEngine::Auto:
        // Probes force the per-size path: only real caches emit events.
        return sweepSinglePassEligible(base, run) &&
                run.probeFactory == nullptr
            ? sweepUnifiedSinglePass(source, sizes, base, run)
            : sweepUnifiedPerSize(input, sizes, base, run);
      case SweepEngine::PerSize:
        return sweepUnifiedPerSize(input, sizes, base, run);
      case SweepEngine::SinglePass:
        return sweepUnifiedSinglePass(source, sizes, base, run);
      case SweepEngine::Verify: {
        rejectProbes(run, "verify");
        requireSinglePassEligible(base, run);
        const auto per_size = sweepUnifiedPerSize(input, sizes, base, run);
        source.reset();
        const auto fast = sweepUnifiedSinglePass(source, sizes, base, run);
        for (std::size_t i = 0; i < sizes.size(); ++i) {
            if (!statsEqual(per_size[i].stats, fast[i].stats))
                reportMismatch("unified", sizes[i], per_size[i].stats,
                               fast[i].stats);
        }
        return per_size;
      }
    }
    panic("unreachable sweep engine");
}

/** The split engine switch; see sweepUnifiedOver(). */
template <typename Input>
std::vector<SplitSweepPoint>
sweepSplitOver(Input &input, TraceSource &source,
               const std::vector<std::uint64_t> &sizes,
               const CacheConfig &base, const RunConfig &run,
               SweepEngine engine)
{
    switch (engine) {
      case SweepEngine::Auto:
        return sweepSinglePassEligible(base, run) &&
                run.probeFactory == nullptr
            ? sweepSplitSinglePass(source, sizes, base, run)
            : sweepSplitPerSize(input, sizes, base, run);
      case SweepEngine::PerSize:
        return sweepSplitPerSize(input, sizes, base, run);
      case SweepEngine::SinglePass:
        return sweepSplitSinglePass(source, sizes, base, run);
      case SweepEngine::Verify: {
        rejectProbes(run, "verify");
        requireSinglePassEligible(base, run);
        const auto per_size = sweepSplitPerSize(input, sizes, base, run);
        source.reset();
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
    }
    panic("unreachable sweep engine");
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
    MemorySource view(trace.refs(), trace.name());
    return sweepUnifiedOver(trace, view, sizes, base, run, engine);
}

std::vector<SplitSweepPoint>
sweepSplit(const Trace &trace, const std::vector<std::uint64_t> &sizes,
           const CacheConfig &base, const RunConfig &run, SweepEngine engine)
{
    MemorySource view(trace.refs(), trace.name());
    return sweepSplitOver(trace, view, sizes, base, run, engine);
}

std::vector<SweepPoint>
sweepUnified(TraceSource &source, const std::vector<std::uint64_t> &sizes,
             const CacheConfig &base, const RunConfig &run,
             SweepEngine engine)
{
    return sweepUnifiedOver(source, source, sizes, base, run, engine);
}

std::vector<SplitSweepPoint>
sweepSplit(TraceSource &source, const std::vector<std::uint64_t> &sizes,
           const CacheConfig &base, const RunConfig &run, SweepEngine engine)
{
    return sweepSplitOver(source, source, sizes, base, run, engine);
}

} // namespace cachelab
