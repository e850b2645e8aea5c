/**
 * @file
 * Implementation of run-manifest serialization.
 */

#include "obs/manifest.hh"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#include <unistd.h>
#endif

#include "obs/metrics.hh"
#include "obs/perf_counters.hh"
#include "obs/profile.hh"
#include "util/json_writer.hh"
#include "util/thread_pool.hh"

#ifndef CACHELAB_GIT_DESCRIBE
#define CACHELAB_GIT_DESCRIBE "unknown"
#endif
#ifndef CACHELAB_GIT_SHA
#define CACHELAB_GIT_SHA "unknown"
#endif
#ifndef CACHELAB_BUILD_TYPE
#define CACHELAB_BUILD_TYPE "unknown"
#endif

namespace cachelab::obs
{

namespace
{

constexpr int kSchemaVersion = 3;

/** Emit one PolicySpec as the structured {"name", "params"} object. */
void
writePolicyJson(JsonWriter &w, const PolicySpec &spec)
{
    w.beginObject();
    w.member("name", spec.name);
    w.key("params").beginObject();
    for (const auto &[key, value] : spec.params)
        w.member(key, value);
    w.endObject();
    w.member("canonical", spec.toString());
    w.endObject();
}

void
writeResultTimingJson(JsonWriter &w, const ManifestTiming &timing)
{
    w.beginObject();
    w.member("amat", timing.amat);
    w.member("total_cycles", timing.totalCycles);
    w.member("bus_cycles", timing.busCycles);
    w.member("traffic_limited_refs_per_cycle",
             timing.trafficLimitedRefsPerCycle);
    w.endObject();
}

void
writeBuildJson(JsonWriter &w, const BuildInfo &build)
{
    w.beginObject();
    w.member("git", build.gitDescribe);
    w.member("git_sha", build.gitSha);
    w.member("compiler", build.compiler);
    w.member("build_type", build.buildType);
    w.endObject();
}

void
writePoolJson(JsonWriter &w, const ThreadPool &pool)
{
    const ThreadPool::Utilization u = pool.utilization();
    w.beginObject();
    w.member("jobs", static_cast<std::uint64_t>(pool.jobCount()));
    w.member("batches", u.batches);
    w.member("queue_high_water", u.queueHighWater);
    w.member("tasks_total", u.totalTasks());
    w.member("busy_ns_total", u.totalBusyNs());
    w.key("slots").beginArray();
    for (std::size_t i = 0; i < u.slots.size(); ++i) {
        w.beginObject();
        w.member("slot", static_cast<std::uint64_t>(i));
        w.member("tasks", u.slots[i].tasks);
        w.member("busy_ns", u.slots[i].busyNs);
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

/**
 * @return this process's peak resident set in bytes (0 when the
 * platform can't say).  Sampled at manifest-write time, so it covers
 * the whole run — the number the out-of-core CI smoke asserts on.
 */
std::uint64_t
peakRssBytes()
{
#if defined(__unix__) || defined(__APPLE__)
    struct rusage usage{};
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0;
#if defined(__APPLE__)
    return static_cast<std::uint64_t>(usage.ru_maxrss); // already bytes
#else
    return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024; // KiB
#endif
#else
    return 0;
#endif
}

/** Whole-process getrusage accounting for the manifest (satellite of
 *  peak_rss_bytes: CPU split + scheduler pressure). */
struct ResourceUsage
{
    double userCpuSeconds = 0.0;
    double systemCpuSeconds = 0.0;
    std::uint64_t voluntaryCtxSwitches = 0;
    std::uint64_t involuntaryCtxSwitches = 0;
    bool available = false;
};

ResourceUsage
resourceUsage()
{
    ResourceUsage r;
#if defined(__unix__) || defined(__APPLE__)
    struct rusage usage{};
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return r;
    auto seconds = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    r.userCpuSeconds = seconds(usage.ru_utime);
    r.systemCpuSeconds = seconds(usage.ru_stime);
    r.voluntaryCtxSwitches = static_cast<std::uint64_t>(usage.ru_nvcsw);
    r.involuntaryCtxSwitches =
        static_cast<std::uint64_t>(usage.ru_nivcsw);
    r.available = true;
#endif
    return r;
}

} // namespace

BuildInfo
buildInfo()
{
    return {CACHELAB_GIT_DESCRIBE, CACHELAB_GIT_SHA, __VERSION__,
            CACHELAB_BUILD_TYPE};
}

std::string
hostName()
{
#if defined(__unix__) || defined(__APPLE__)
    char name[256] = {};
    if (gethostname(name, sizeof(name) - 1) == 0 && name[0] != '\0')
        return name;
#endif
    return "unknown";
}

std::string
joinArgv(int argc, const char *const *argv)
{
    std::string joined;
    for (int i = 0; i < argc; ++i) {
        if (i > 0)
            joined += ' ';
        joined += argv[i];
    }
    return joined;
}

void
writeCacheStatsJson(JsonWriter &w, const CacheStats &stats)
{
    w.beginObject();
    w.key("counters").beginObject();
    w.key("accesses").beginArray();
    for (const std::uint64_t a : stats.accesses)
        w.value(a);
    w.endArray();
    w.key("misses").beginArray();
    for (const std::uint64_t m : stats.misses)
        w.value(m);
    w.endArray();
    w.member("demand_fetches", stats.demandFetches);
    w.member("prefetch_fetches", stats.prefetchFetches);
    w.member("bytes_from_memory", stats.bytesFromMemory);
    w.member("bytes_to_memory", stats.bytesToMemory);
    w.member("replacement_pushes", stats.replacementPushes);
    w.member("dirty_replacement_pushes", stats.dirtyReplacementPushes);
    w.member("purge_pushes", stats.purgePushes);
    w.member("dirty_purge_pushes", stats.dirtyPurgePushes);
    w.member("write_throughs", stats.writeThroughs);
    w.member("purges", stats.purges);
    w.endObject();
    w.key("derived").beginObject();
    w.member("total_accesses", stats.totalAccesses());
    w.member("total_misses", stats.totalMisses());
    w.member("miss_ratio", stats.missRatio());
    w.member("instruction_miss_ratio",
             stats.missRatio(AccessKind::IFetch));
    w.member("data_miss_ratio", stats.dataMissRatio());
    w.member("traffic_bytes", stats.trafficBytes());
    w.member("total_pushes", stats.totalPushes());
    w.member("dirty_pushes", stats.dirtyPushes());
    w.member("fraction_pushes_dirty", stats.fractionPushesDirty());
    w.endObject();
    w.endObject();
}

void
writeConfidenceJson(JsonWriter &w, const ConfidenceInterval &ci)
{
    w.beginObject();
    w.member("mean", ci.mean);
    w.member("std_error", ci.stdError);
    w.member("half_width", ci.halfWidth);
    w.member("low", ci.low);
    w.member("high", ci.high);
    w.member("confidence", ci.confidence);
    w.member("samples", ci.samples);
    w.endObject();
}

void
writeSampledResultJson(JsonWriter &w, const SampledRunResult &r)
{
    w.beginObject();
    w.member("plan", r.config.describe());
    w.member("trace_refs", r.traceRefs);
    w.member("measured_refs", r.measuredRefs);
    w.member("processed_refs", r.processedRefs);
    w.member("intervals_measured", r.intervalsMeasured);
    w.member("stopped_early", r.stoppedEarly);
    w.member("measured_fraction", r.measuredFraction());
    w.member("processed_fraction", r.processedFraction());
    w.member("speedup_estimate", r.speedupEstimate());
    w.key("estimated");
    writeCacheStatsJson(w, r.estimated);
    w.key("confidence_intervals").beginObject();
    w.key("miss_ratio");
    writeConfidenceJson(w, r.missRatio);
    w.key("instruction_miss_ratio");
    writeConfidenceJson(w, r.instructionMissRatio);
    w.key("data_miss_ratio");
    writeConfidenceJson(w, r.dataMissRatio);
    w.key("traffic_per_ref");
    writeConfidenceJson(w, r.trafficPerRef);
    w.endObject();
    w.endObject();
}

void
writeManifest(std::ostream &os, const RunManifest &manifest)
{
    writeManifest(os, manifest, 2);
    os << '\n';
}

void
writeManifest(std::ostream &os, const RunManifest &manifest, int indent)
{
    JsonWriter w(os, indent);
    w.beginObject();
    w.member("schema", "cachelab.run_manifest");
    w.member("schema_version", kSchemaVersion);
    w.member("tool", manifest.tool);
    w.key("build");
    writeBuildJson(w, buildInfo());
    w.key("provenance").beginObject();
    w.member("git_sha", buildInfo().gitSha);
    w.member("hostname", hostName());
    w.member("argv", manifest.argv);
    w.endObject();
    w.key("input").beginObject();
    w.member("trace", manifest.traceName);
    w.member("refs", manifest.traceRefs);
    w.endObject();
    w.member("seed", manifest.seed);
    w.key("config").beginObject();
    for (const auto &[key, value] : manifest.config)
        w.member(key, value);
    w.endObject();
    if (!manifest.replacement.empty()) {
        w.key("policy");
        writePolicyJson(w, manifest.replacement);
        if (!manifest.admission.empty()) {
            w.key("admission");
            writePolicyJson(w, manifest.admission);
        }
    }
    if (manifest.timingConfigured) {
        w.key("timing").beginObject();
        w.member("hit_cycles", manifest.timingHitCycles);
        w.member("memory_cycles", manifest.timingMemoryCycles);
        w.member("width_bytes", manifest.timingWidthBytes);
        w.endObject();
    }

    w.key("execution").beginObject();
    w.member("wall_seconds", manifest.wallSeconds);
    w.member("refs_processed", manifest.refsProcessed);
    w.member("refs_per_second",
             manifest.wallSeconds > 0.0
                 ? static_cast<double>(manifest.refsProcessed) /
                     manifest.wallSeconds
                 : 0.0);
    w.member("peak_rss_bytes", peakRssBytes());
    const ResourceUsage ru = resourceUsage();
    w.member("user_cpu_seconds", ru.userCpuSeconds);
    w.member("system_cpu_seconds", ru.systemCpuSeconds);
    w.member("voluntary_ctx_switches", ru.voluntaryCtxSwitches);
    w.member("involuntary_ctx_switches", ru.involuntaryCtxSwitches);
    w.key("thread_pool");
    writePoolJson(w, manifest.pool ? *manifest.pool
                                   : ThreadPool::shared());
    w.endObject();

    if (perfEnabled()) {
        w.key("perf");
        writePerfJson(w, perfTotals());
    }

    if (manifest.includeProfile) {
        w.key("phases");
        writeProfileJson(w, profileReport());
    }
    if (manifest.includeMetrics) {
        w.key("metrics");
        Registry::global().snapshot().writeJson(w);
    }

    w.key("results").beginArray();
    for (const ManifestResult &result : manifest.results) {
        w.beginObject();
        w.member("name", result.name);
        w.member("cache_bytes", result.cacheBytes);
        w.key("stats");
        writeCacheStatsJson(w, result.stats);
        if (result.timing.configured) {
            w.key("timing");
            writeResultTimingJson(w, result.timing);
        }
        w.endObject();
    }
    w.endArray();

    if (!manifest.sampledResults.empty()) {
        w.key("sampled_results").beginArray();
        for (const ManifestSampledResult &result :
             manifest.sampledResults) {
            w.beginObject();
            w.member("name", result.name);
            w.member("cache_bytes", result.cacheBytes);
            w.key("sampled");
            writeSampledResultJson(w, result.result);
            w.endObject();
        }
        w.endArray();
    }
    w.endObject();
}

} // namespace cachelab::obs
