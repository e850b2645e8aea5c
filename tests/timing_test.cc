/**
 * @file
 * Tests for the timing model (sim/timing): AMAT algebra, degenerate
 * configurations, spec parsing, and the manifest bridge.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "obs/manifest.hh"
#include "sim/timing.hh"

namespace cachelab
{
namespace
{

/** Stats with @p accesses reads, @p misses of them missing. */
CacheStats
statsWith(std::uint64_t accesses, std::uint64_t misses,
          std::uint64_t bytes_from = 0, std::uint64_t bytes_to = 0)
{
    CacheStats s;
    s.accesses[static_cast<int>(AccessKind::Read)] = accesses;
    s.misses[static_cast<int>(AccessKind::Read)] = misses;
    s.demandFetches = misses;
    s.bytesFromMemory = bytes_from;
    s.bytesToMemory = bytes_to;
    return s;
}

TEST(TimingConfig, DefaultIsNotConfigured)
{
    const TimingConfig config;
    EXPECT_FALSE(config.enabled());
    EXPECT_EQ(config.describe(), "hit=1,mem=100,width=8");
}

TEST(TimingConfig, ParseSubsetKeepsDefaults)
{
    TimingConfig config;
    ASSERT_FALSE(parseTimingConfig("mem=200,width=16", config));
    EXPECT_TRUE(config.enabled());
    EXPECT_EQ(config.hitCycles, 1.0);
    EXPECT_EQ(config.memoryCycles, 200.0);
    EXPECT_EQ(config.widthBytes, 16.0);

    // The empty spec enables the model with all defaults.
    TimingConfig defaults;
    ASSERT_FALSE(parseTimingConfig("", defaults));
    EXPECT_TRUE(defaults.enabled());
    EXPECT_EQ(defaults.hitCycles, 1.0);
}

TEST(TimingConfig, ParseErrors)
{
    TimingConfig config;
    const auto unknown = parseTimingConfig("l3=5", config);
    ASSERT_TRUE(unknown.has_value());
    EXPECT_NE(unknown->find("(valid: hit, mem, width)"), std::string::npos)
        << *unknown;
    // The L2 hit latency went with the two-level model that read it.
    const auto retired = parseTimingConfig("l2hit=5", config);
    ASSERT_TRUE(retired.has_value());
    EXPECT_NE(retired->find("unknown timing parameter \"l2hit\""),
              std::string::npos)
        << *retired;
    EXPECT_TRUE(parseTimingConfig("hit", config).has_value());
    EXPECT_TRUE(parseTimingConfig("hit=fast", config).has_value());
    EXPECT_TRUE(parseTimingConfig("hit=-1", config).has_value());
}

TEST(Timing, SingleLevelAmatAlgebra)
{
    TimingConfig config;
    config.configured = true;
    config.hitCycles = 2.0;
    config.memoryCycles = 100.0;
    config.widthBytes = 8.0;

    // 1000 accesses, 100 misses, 64-byte lines:
    //   penalty = 100 + 64/8 = 108 cycles
    //   AMAT    = 2 + 0.1 * 108 = 12.8
    const CacheStats stats = statsWith(1000, 100, 100 * 64);
    const TimingResult r = computeTiming(config, stats, 64);
    EXPECT_DOUBLE_EQ(r.amat, 12.8);
    EXPECT_DOUBLE_EQ(r.totalCycles, 2.0 * 1000 + 108.0 * 100);
    // Bus: 6400 traffic bytes / 8 bytes-per-cycle.
    EXPECT_DOUBLE_EQ(r.busCycles, 800.0);
    EXPECT_DOUBLE_EQ(r.trafficLimitedRefsPerCycle, 1000.0 / 800.0);
    ASSERT_EQ(r.levels.size(), 2u);
    EXPECT_EQ(r.levels[0].level, "l1");
    EXPECT_EQ(r.levels[1].level, "memory");
}

TEST(Timing, ZeroLatencyDegeneratesToMissCounting)
{
    // With all latencies zero and an infinite-width interface the
    // model must collapse to pure miss counting: AMAT = 0 whatever
    // the miss ratio, and no traffic ceiling.
    TimingConfig config;
    config.configured = true;
    config.hitCycles = 0.0;
    config.memoryCycles = 0.0;
    config.widthBytes = 0.0;
    const TimingResult r =
        computeTiming(config, statsWith(5000, 1234, 1234 * 16), 16);
    EXPECT_DOUBLE_EQ(r.amat, 0.0);
    EXPECT_DOUBLE_EQ(r.totalCycles, 0.0);
    EXPECT_DOUBLE_EQ(r.busCycles, 0.0);
    EXPECT_DOUBLE_EQ(r.trafficLimitedRefsPerCycle, 0.0);

    // With only the hit latency non-zero, AMAT is exactly it.
    config.hitCycles = 3.0;
    const TimingResult hit_only =
        computeTiming(config, statsWith(5000, 1234), 16);
    EXPECT_DOUBLE_EQ(hit_only.amat, 3.0);
}

TEST(Timing, PerfectCachePaysOnlyHits)
{
    TimingConfig config;
    config.configured = true;
    const TimingResult r = computeTiming(config, statsWith(1000, 0), 64);
    EXPECT_DOUBLE_EQ(r.amat, config.hitCycles);
    EXPECT_DOUBLE_EQ(r.busCycles, 0.0);
}

TEST(Timing, WidthZeroDisablesTransferTerm)
{
    TimingConfig config;
    config.configured = true;
    config.hitCycles = 1.0;
    config.memoryCycles = 50.0;
    config.widthBytes = 0.0;
    const TimingResult r =
        computeTiming(config, statsWith(100, 50, 50 * 64), 64);
    EXPECT_DOUBLE_EQ(r.amat, 1.0 + 0.5 * 50.0);
    EXPECT_DOUBLE_EQ(r.busCycles, 0.0);
}

TEST(Timing, EmptyRunIsAllZero)
{
    TimingConfig config;
    config.configured = true;
    const TimingResult r = computeTiming(config, CacheStats{}, 64);
    EXPECT_DOUBLE_EQ(r.amat, config.hitCycles);
    EXPECT_DOUBLE_EQ(r.totalCycles, 0.0);
    EXPECT_DOUBLE_EQ(r.trafficLimitedRefsPerCycle, 0.0);
}

TEST(Timing, ValidateRejectsNegatives)
{
    TimingConfig config;
    config.configured = true;
    config.memoryCycles = -1.0;
    EXPECT_DEATH(config.validate(), "non-negative");
}

TEST(TimingManifest, BridgeFillsManifestFields)
{
    TimingConfig config;
    ASSERT_FALSE(parseTimingConfig("hit=2,mem=100,width=8", config));

    obs::RunManifest manifest;
    manifest.tool = "timing_test";
    manifest.includeMetrics = false;
    manifest.includeProfile = false;
    applyTimingConfig(manifest, config);
    EXPECT_TRUE(manifest.timingConfigured);
    EXPECT_EQ(manifest.timingHitCycles, 2.0);

    obs::ManifestResult result{"unified", 4096,
                               statsWith(1000, 100, 100 * 64), {}};
    applyTimingResult(result,
                      computeTiming(config, result.stats, 64));
    EXPECT_TRUE(result.timing.configured);
    manifest.results.push_back(result);

    std::ostringstream os;
    obs::writeManifest(os, manifest);
    const std::string out = os.str();
    EXPECT_NE(out.find("\"timing\""), std::string::npos);
    EXPECT_NE(out.find("\"amat\""), std::string::npos);
    EXPECT_NE(out.find("\"traffic_limited_refs_per_cycle\""),
              std::string::npos);
}

TEST(TimingManifest, UnconfiguredStaysInvisible)
{
    // Flags-off output must remain byte-identical: a manifest built
    // without a timing config may not mention timing at all.
    obs::RunManifest manifest;
    manifest.tool = "timing_test";
    manifest.includeMetrics = false;
    manifest.includeProfile = false;
    applyTimingConfig(manifest, TimingConfig{});
    manifest.results.push_back(
        {"unified", 4096, statsWith(1000, 100), {}});

    std::ostringstream os;
    obs::writeManifest(os, manifest);
    const std::string out = os.str();
    EXPECT_EQ(out.find("\"timing\""), std::string::npos);
    EXPECT_EQ(out.find("\"amat\""), std::string::npos);
}

} // namespace
} // namespace cachelab
