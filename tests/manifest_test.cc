/**
 * @file
 * Run-manifest tests: a tiny simulation's manifest must carry the
 * schema header, the build block, and CacheStats counters bitwise
 * equal (exact uint64 round-trip) to the run's statistics, with
 * sampled results carrying their confidence intervals.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "cache/cache.hh"
#include "obs/manifest.hh"
#include "sim/run.hh"
#include "sim/sampled.hh"
#include "util/json_writer.hh"
#include "workload/profiles.hh"

namespace cachelab
{
namespace
{

Trace
tinyTrace()
{
    return generateTrace(*findTraceProfile("VSPICE"), 5000);
}

CacheConfig
tinyConfig()
{
    CacheConfig cfg;
    cfg.sizeBytes = 1024;
    cfg.lineBytes = 16;
    cfg.associativity = 0;
    cfg.validate();
    return cfg;
}

/** @return @p stats serialized compactly by writeCacheStatsJson. */
std::string
statsJson(const CacheStats &stats)
{
    std::ostringstream os;
    {
        JsonWriter w(os, JsonWriter::Compact);
        obs::writeCacheStatsJson(w, stats);
    }
    return os.str();
}

TEST(ManifestTest, CacheStatsCountersRoundTripExactly)
{
    const Trace trace = tinyTrace();
    Cache cache(tinyConfig());
    const CacheStats s = runTrace(trace, cache, RunConfig{});
    ASSERT_GT(s.totalAccesses(), 0u);

    const std::string json = statsJson(s);
    auto expect_counter = [&](const std::string &name, std::uint64_t v) {
        const std::string needle =
            "\"" + name + "\":" + std::to_string(v);
        EXPECT_NE(json.find(needle), std::string::npos)
            << "missing " << needle << " in " << json;
    };
    expect_counter("demand_fetches", s.demandFetches);
    expect_counter("prefetch_fetches", s.prefetchFetches);
    expect_counter("bytes_from_memory", s.bytesFromMemory);
    expect_counter("bytes_to_memory", s.bytesToMemory);
    expect_counter("replacement_pushes", s.replacementPushes);
    expect_counter("dirty_replacement_pushes", s.dirtyReplacementPushes);
    expect_counter("purge_pushes", s.purgePushes);
    expect_counter("dirty_purge_pushes", s.dirtyPurgePushes);
    expect_counter("write_throughs", s.writeThroughs);
    expect_counter("purges", s.purges);

    std::string accesses = "\"accesses\":[";
    std::string misses = "\"misses\":[";
    for (std::size_t k = 0; k < 3; ++k) {
        if (k) {
            accesses += ',';
            misses += ',';
        }
        accesses += std::to_string(s.accesses[k]);
        misses += std::to_string(s.misses[k]);
    }
    EXPECT_NE(json.find(accesses + "]"), std::string::npos) << json;
    EXPECT_NE(json.find(misses + "]"), std::string::npos) << json;
}

TEST(ManifestTest, ManifestCarriesSchemaBuildAndResults)
{
    const Trace trace = tinyTrace();
    Cache cache(tinyConfig());
    const CacheStats s = runTrace(trace, cache, RunConfig{});

    obs::RunManifest manifest;
    manifest.tool = "manifest_test";
    manifest.traceName = trace.name();
    manifest.traceRefs = trace.size();
    manifest.seed = 42;
    manifest.wallSeconds = 0.5;
    manifest.refsProcessed = trace.size();
    manifest.config = {{"mode", "single"}, {"cache", "1K/16B"}};
    manifest.results.push_back({"unified", 1024, s, {}});
    manifest.includeMetrics = false;
    manifest.includeProfile = false;

    std::ostringstream os;
    obs::writeManifest(os, manifest);
    const std::string out = os.str();

    EXPECT_NE(out.find("\"schema\": \"cachelab.run_manifest\""),
              std::string::npos);
    EXPECT_NE(out.find("\"schema_version\": 3"), std::string::npos);
    EXPECT_NE(out.find("\"tool\": \"manifest_test\""), std::string::npos);
    EXPECT_NE(out.find("\"git\": "), std::string::npos);
    EXPECT_NE(out.find("\"compiler\": "), std::string::npos);
    EXPECT_NE(out.find("\"trace\": \"VSPICE\""), std::string::npos);
    EXPECT_NE(out.find("\"refs\": " + std::to_string(trace.size())),
              std::string::npos);
    EXPECT_NE(out.find("\"seed\": 42"), std::string::npos);
    EXPECT_NE(out.find("\"mode\": \"single\""), std::string::npos);
    EXPECT_NE(out.find("\"refs_per_second\": " +
                           std::to_string(trace.size() * 2)),
              std::string::npos);
    EXPECT_NE(out.find("\"thread_pool\""), std::string::npos);
    // getrusage-backed resource accounting rides in every manifest
    // next to peak_rss_bytes.
    EXPECT_NE(out.find("\"peak_rss_bytes\": "), std::string::npos);
    EXPECT_NE(out.find("\"user_cpu_seconds\": "), std::string::npos);
    EXPECT_NE(out.find("\"system_cpu_seconds\": "), std::string::npos);
    EXPECT_NE(out.find("\"voluntary_ctx_switches\": "), std::string::npos);
    EXPECT_NE(out.find("\"involuntary_ctx_switches\": "),
              std::string::npos);
    // Perf counters were not requested: no "perf" section, keeping
    // flags-off manifests byte-identical to pre-perf builds.
    EXPECT_EQ(out.find("\"perf\""), std::string::npos);
    EXPECT_NE(out.find("\"name\": \"unified\""), std::string::npos);
    EXPECT_NE(out.find("\"cache_bytes\": 1024"), std::string::npos);
    EXPECT_NE(out.find("\"demand_fetches\": " +
                           std::to_string(s.demandFetches)),
              std::string::npos);
    // Suppressed sections stay out.
    EXPECT_EQ(out.find("\"metrics\""), std::string::npos);
    EXPECT_EQ(out.find("\"phases\""), std::string::npos);
    EXPECT_EQ(out.find("\"sampled_results\""), std::string::npos);
}

TEST(ManifestTest, SampledResultsCarryConfidenceIntervals)
{
    const Trace trace = tinyTrace();
    Cache cache(tinyConfig());
    SampleConfig sample;
    sample.unitRefs = 250;
    sample.fraction = 0.2;
    const SampledRunResult r =
        runSampled(trace, cache, sample, RunConfig{});

    obs::RunManifest manifest;
    manifest.tool = "manifest_test";
    manifest.traceName = trace.name();
    manifest.traceRefs = trace.size();
    manifest.includeMetrics = false;
    manifest.includeProfile = false;
    manifest.sampledResults.push_back({"unified", 1024, r});

    std::ostringstream os;
    obs::writeManifest(os, manifest);
    const std::string out = os.str();

    EXPECT_NE(out.find("\"sampled_results\""), std::string::npos);
    EXPECT_NE(out.find("\"plan\": "), std::string::npos);
    EXPECT_NE(out.find("\"intervals_measured\": " +
                           std::to_string(r.intervalsMeasured)),
              std::string::npos);
    EXPECT_NE(out.find("\"confidence_intervals\""), std::string::npos);
    EXPECT_NE(out.find("\"miss_ratio\""), std::string::npos);
    EXPECT_NE(out.find("\"half_width\""), std::string::npos);
    EXPECT_NE(out.find("\"estimated\""), std::string::npos);
}

TEST(ManifestTest, BuildInfoIsPopulated)
{
    const obs::BuildInfo build = obs::buildInfo();
    EXPECT_FALSE(build.gitDescribe.empty());
    EXPECT_FALSE(build.compiler.empty());
    EXPECT_FALSE(build.buildType.empty());
}

} // namespace
} // namespace cachelab
