/**
 * @file
 * Run manifests: one schema-versioned JSON document per invocation.
 *
 * A manifest is the machine-readable record of everything a run was
 * and did — the resolved configuration, the build that produced the
 * binary, the seed, per-phase wall clock, thread-pool utilization,
 * throughput, the metrics-registry snapshot, and the run's exact
 * CacheStats counters (uint64, bitwise-faithful) with sampled
 * confidence intervals when applicable.  `cachelab_sim --metrics-json`
 * and the bench binaries emit it; scripts consume it instead of
 * scraping tables.
 *
 * Schema: the top-level object carries
 *   "schema": "cachelab.run_manifest", "schema_version": 3
 * and consumers must ignore unknown keys, so the version only bumps on
 * incompatible changes.  Key order is fixed (JsonWriter preserves
 * insertion order), making manifests diffable.
 *
 * Version history:
 *   1 — original layout; the replacement policy appears only inside
 *       the config section's flat describe() string.
 *   2 — adds the structured "policy" object ({"name", "params"}, plus
 *       "admission" when an admission filter is configured) and, when
 *       a timing model is configured, a "timing" config object and
 *       per-result "timing" blocks (AMAT, bus cycles, traffic-limited
 *       throughput).  Readers of v1 manifests still work: every v1
 *       key is unchanged.
 *   3 — the "metrics" section writes every histogram under
 *       "histograms" as {count, mean, max, p50, p90, p99,
 *       log2_buckets} (v2 wrote {total, mean, log2_buckets} there and
 *       the latency series under a separate "latencies" object), and
 *       the "timing" config object drops "l2_hit_cycles", a latency
 *       no result used.
 */

#ifndef CACHELAB_OBS_MANIFEST_HH
#define CACHELAB_OBS_MANIFEST_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "cache/policy.hh"
#include "cache/stats.hh"
#include "sample/sampled_run.hh"

namespace cachelab
{

class JsonWriter;
class ThreadPool;

namespace obs
{

/** Compile-time build identification baked in by CMake. */
struct BuildInfo
{
    std::string gitDescribe; ///< `git describe --always --dirty`
    std::string gitSha;      ///< `git rev-parse HEAD` (full 40 chars)
    std::string compiler;    ///< __VERSION__
    std::string buildType;   ///< CMAKE_BUILD_TYPE
};

/** @return this binary's build identification. */
BuildInfo buildInfo();

/** @return this machine's hostname ("unknown" when unavailable). */
std::string hostName();

/**
 * Timing quantities attached to one result when a timing model is
 * configured (mirrors sim/timing TimingResult; kept as plain doubles
 * here because obs sits below sim in the link order).
 */
struct ManifestTiming
{
    bool configured = false; ///< false = emit nothing (legacy output)
    double amat = 0;
    double totalCycles = 0;
    double busCycles = 0;
    double trafficLimitedRefsPerCycle = 0;
};

/** One simulated result attached to a manifest. */
struct ManifestResult
{
    std::string name;             ///< e.g. "unified", "icache", "sweep"
    std::uint64_t cacheBytes = 0; ///< capacity of this result's cache
    CacheStats stats;
    ManifestTiming timing;        ///< emitted only when configured
};

/** One sampled result (estimate + confidence intervals). */
struct ManifestSampledResult
{
    std::string name;
    std::uint64_t cacheBytes = 0;
    SampledRunResult result;
};

/** Everything writeManifest() serializes. */
struct RunManifest
{
    std::string tool;      ///< binary name, e.g. "cachelab_sim"
    std::string argv;      ///< full command line of the invocation
    std::string traceName; ///< input trace / profile
    std::uint64_t traceRefs = 0;
    std::uint64_t seed = 0;
    double wallSeconds = 0.0; ///< whole-invocation wall clock
    std::uint64_t refsProcessed = 0; ///< simulated refs (all engines)

    /** Resolved configuration, in presentation order. */
    std::vector<std::pair<std::string, std::string>> config;

    /**
     * Structured replacement-policy identity, emitted as the schema-2
     * "policy" object.  An empty name means the producing tool has no
     * single cache policy (keeps older call sites emitting nothing).
     */
    PolicySpec replacement{"", {}};

    /** Admission filter identity; empty = none configured. */
    PolicySpec admission{"", {}};

    /**
     * Timing-model parameters ("timing" config object); emitted — like
     * the per-result blocks — only when a model was configured.
     */
    bool timingConfigured = false;
    double timingHitCycles = 0;
    double timingMemoryCycles = 0;
    double timingWidthBytes = 0;

    std::vector<ManifestResult> results;
    std::vector<ManifestSampledResult> sampledResults;

    /** Include the global metrics-registry snapshot (default on). */
    bool includeMetrics = true;

    /** Include the phase-profile report (default on). */
    bool includeProfile = true;

    /** Pool whose utilization to record; nullptr = shared pool. */
    const ThreadPool *pool = nullptr;
};

/** Serialize @p manifest to @p os as the schema-versioned document. */
void writeManifest(std::ostream &os, const RunManifest &manifest);

/**
 * writeManifest() with the JsonWriter indent chosen by the caller —
 * JsonWriter::Compact produces a single line, which is what the serve
 * protocol needs to embed a manifest in a newline-delimited stream.
 */
void writeManifest(std::ostream &os, const RunManifest &manifest,
                   int indent);

/** @return argc/argv joined with single spaces (manifest provenance). */
std::string joinArgv(int argc, const char *const *argv);

/**
 * Emit every CacheStats counter (exact uint64) plus the derived
 * ratios the paper's tables use.  Shared by the manifest and any
 * bench that reports full statistics.
 */
void writeCacheStatsJson(JsonWriter &w, const CacheStats &stats);

/** Emit one confidence interval as an object. */
void writeConfidenceJson(JsonWriter &w, const ConfidenceInterval &ci);

/** Emit a SampledRunResult: plan, fractions, estimate, intervals. */
void writeSampledResultJson(JsonWriter &w, const SampledRunResult &r);

} // namespace obs
} // namespace cachelab

#endif // CACHELAB_OBS_MANIFEST_HH
