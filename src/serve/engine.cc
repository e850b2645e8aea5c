/**
 * @file
 * Implementation of the coalesced experiment engine.
 */

#include "serve/engine.hh"

#include <chrono>
#include <memory>

#include "cache/cache.hh"
#include "obs/metrics.hh"
#include "sim/drive.hh"
#include "sim/timing.hh"
#include "util/logging.hh"

namespace cachelab::serve
{

namespace
{

/** One simulated point: a (spec, size) pair with its private state. */
struct PassPoint
{
    std::unique_ptr<Cache> cache;
    detail::DriveState state;
    RunConfig run;
    std::size_t specIndex;
    std::uint64_t sizeBytes;

    PassPoint(const CacheConfig &config, const RunConfig &run_config,
              std::size_t spec, std::uint64_t size)
        : cache(std::make_unique<Cache>(config)),
          state(run_config),
          run(run_config),
          specIndex(spec),
          sizeBytes(size)
    {}
};

RunConfig
runConfigFor(const ExperimentSpec &spec)
{
    RunConfig run;
    run.purgeInterval = spec.purgeInterval;
    run.warmupRefs = spec.warmupRefs;
    return run;
}

} // namespace

std::vector<ExperimentResult>
runCoalesced(TraceSource &source, std::span<const ExperimentSpec> specs,
             const EngineOptions &options)
{
    CACHELAB_ASSERT(!specs.empty(), "runCoalesced needs specs");
    for (const ExperimentSpec &spec : specs)
        CACHELAB_ASSERT(spec.batchKey() == specs.front().batchKey(),
                        "coalesced specs must share an input");

    const auto start = std::chrono::steady_clock::now();

    // Flatten the union of every spec's size axis.  Each point owns
    // its cache, carried driver state, and its spec's run schedule, so
    // heterogeneous purge/warm-up settings coexist in one pass.
    std::vector<PassPoint> points;
    for (std::size_t s = 0; s < specs.size(); ++s) {
        const ExperimentSpec &spec = specs[s];
        const RunConfig run = runConfigFor(spec);
        // Specs are pre-validated; configAt() checks again anyway.
        for (std::uint64_t size : spec.sizes)
            points.emplace_back(detail::configAt(spec.base, size), run, s,
                                size);
    }

    RunConfig fan;
    fan.jobs = options.jobs;
    fan.batchRefs = options.batchRefs;
    const detail::DriveObs ob;
    const std::uint64_t known = source.knownLength();
    std::uint64_t total = 0;
    detail::streamPass(
        source, fan,
        [&](std::span<const MemoryRef> batch, detail::BatchExecutor &exec) {
            exec.parallelFor(points.size(), [&](std::size_t i) {
                PassPoint &point = points[i];
                detail::driveSpan(batch, *point.cache, point.run,
                                  point.state, ob);
            });
            total += batch.size();
            if (options.progress)
                options.progress(total, known);
            return true;
        });

    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();

    std::vector<ExperimentResult> results(specs.size());
    for (ExperimentResult &result : results) {
        result.refsProcessed = total;
        result.wallSeconds = wall;
        result.coalescedGroup = specs.size();
    }
    for (PassPoint &point : points) {
        detail::driveFinish(point.state, point.run);
        results[point.specIndex].points.push_back(
            SweepPoint{point.sizeBytes, point.cache->stats()});
    }
    obs::Registry::global().counter("serve.engine.passes").add();
    obs::Registry::global()
        .counter("serve.engine.points")
        .add(points.size());
    return results;
}

ExperimentResult
runExperiment(const ExperimentSpec &spec, const EngineOptions &options)
{
    std::string error;
    std::unique_ptr<TraceSource> source = spec.input.open(&error);
    if (source == nullptr) {
        ExperimentResult failed;
        failed.error = error;
        return failed;
    }
    std::vector<ExperimentResult> results =
        runCoalesced(*source, std::span<const ExperimentSpec>(&spec, 1),
                     options);
    return std::move(results.front());
}

obs::RunManifest
buildExperimentManifest(
    const ExperimentSpec &spec, const ExperimentResult &result,
    const std::string &tool, const std::string &argv,
    const std::vector<std::pair<std::string, std::string>> &extra_config)
{
    obs::RunManifest manifest;
    manifest.tool = tool;
    manifest.argv = argv;
    manifest.traceName = spec.input.displayName();
    manifest.traceRefs = result.refsProcessed;
    manifest.seed =
        spec.input.kind == InputSpec::Kind::Kv ? spec.input.kv.seed : 0;
    manifest.wallSeconds = result.wallSeconds;
    manifest.refsProcessed = result.refsProcessed;

    CacheConfig described = spec.base;
    described.sizeBytes = spec.sizes.front();
    manifest.config = {
        {"spec_id", spec.id},
        {"input_kind",
         spec.input.kind == InputSpec::Kind::File      ? "file"
         : spec.input.kind == InputSpec::Kind::Profile ? "profile"
                                                       : "kv"},
        {"input", spec.input.displayName()},
        {"base_config", described.describe()},
        {"purge_interval", std::to_string(spec.purgeInterval)},
        {"warmup_refs", std::to_string(spec.warmupRefs)},
        {"sizes", std::to_string(spec.sizes.size())},
        {"coalesced_group", std::to_string(result.coalescedGroup)},
    };
    manifest.config.insert(manifest.config.end(), extra_config.begin(),
                           extra_config.end());

    manifest.replacement = spec.base.replacement;
    manifest.admission = spec.base.admission;
    applyTimingConfig(manifest, spec.timing);

    const std::string name = spec.id.empty() ? "sweep" : spec.id;
    for (const SweepPoint &point : result.points) {
        obs::ManifestResult entry{name, point.cacheBytes, point.stats,
                                  {}};
        if (spec.timing.enabled())
            applyTimingResult(entry,
                              computeTiming(spec.timing, point.stats,
                                            spec.base.lineBytes));
        manifest.results.push_back(std::move(entry));
    }

    // The phase profile is process-lifetime state — meaningless as
    // per-request provenance on a long-running server.
    manifest.includeProfile = false;
    return manifest;
}

} // namespace cachelab::serve
