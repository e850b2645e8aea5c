/**
 * @file
 * Unit tests for the sampled-simulation subsystem: interval
 * selection, what each warming policy replays, and the confidence
 * engine.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "cache/cache.hh"
#include "sample/confidence.hh"
#include "sample/sample_config.hh"
#include "sample/sampler.hh"
#include "sim/experiments.hh"
#include "sim/sampled.hh"
#include "stats/summary.hh"
#include "trace/trace.hh"

namespace cachelab
{
namespace
{

SampleConfig
systematicConfig(std::uint64_t unit, double fraction)
{
    SampleConfig cfg;
    cfg.unitRefs = unit;
    cfg.fraction = fraction;
    cfg.selection = IntervalSelection::Systematic;
    return cfg;
}

TEST(Sampler, SystematicSpacingAndFraction)
{
    const auto plan = selectIntervals(100000, systematicConfig(1000, 0.1));
    ASSERT_EQ(plan.size(), 10u);
    for (std::size_t i = 0; i < plan.size(); ++i) {
        EXPECT_EQ(plan[i].begin, i * 10000);
        EXPECT_EQ(plan[i].length(), 1000u);
    }
    EXPECT_EQ(plannedMeasuredRefs(plan), 10000u);
}

TEST(Sampler, FullFractionTilesTheTrace)
{
    // 10 full units plus a 500-ref partial tail: fraction 1.0 must
    // cover every reference exactly once (the bitwise-equivalence
    // guarantee rests on this).
    const auto plan = selectIntervals(10500, systematicConfig(1000, 1.0));
    ASSERT_EQ(plan.size(), 11u);
    std::uint64_t expected_begin = 0;
    for (const SampleInterval &interval : plan) {
        EXPECT_EQ(interval.begin, expected_begin);
        expected_begin = interval.end;
    }
    EXPECT_EQ(expected_begin, 10500u);
    EXPECT_EQ(plannedMeasuredRefs(plan), 10500u);
}

TEST(Sampler, RandomFullFractionAlsoTiles)
{
    SampleConfig cfg = systematicConfig(1000, 1.0);
    cfg.selection = IntervalSelection::Random;
    const auto plan = selectIntervals(10500, cfg);
    EXPECT_EQ(plannedMeasuredRefs(plan), 10500u);
}

TEST(Sampler, RandomIsSortedDisjointAndSeedDeterministic)
{
    SampleConfig cfg = systematicConfig(500, 0.2);
    cfg.selection = IntervalSelection::Random;
    cfg.seed = 42;
    const auto plan = selectIntervals(250000, cfg);
    ASSERT_FALSE(plan.empty());
    for (std::size_t i = 1; i < plan.size(); ++i)
        EXPECT_LE(plan[i - 1].end, plan[i].begin);
    // Within half a unit of the target fraction.
    EXPECT_NEAR(static_cast<double>(plannedMeasuredRefs(plan)) / 250000.0,
                0.2, 0.002);

    EXPECT_EQ(plan, selectIntervals(250000, cfg));
    cfg.seed = 43;
    EXPECT_NE(plan, selectIntervals(250000, cfg));
}

TEST(Sampler, EmptyTraceYieldsEmptyPlan)
{
    EXPECT_TRUE(selectIntervals(0, systematicConfig(1000, 0.5)).empty());
}

TEST(Sampler, TraceShorterThanOneUnit)
{
    const auto plan = selectIntervals(300, systematicConfig(1000, 0.1));
    ASSERT_EQ(plan.size(), 1u);
    EXPECT_EQ(plan[0], (SampleInterval{0, 300}));
}

TEST(SampleConfig, ValidateRejectsBadParameters)
{
    SampleConfig cfg;
    cfg.fraction = 0.0;
    EXPECT_DEATH({ cfg.validate(); }, "fraction");
    cfg = SampleConfig{};
    cfg.fraction = 1.5;
    EXPECT_DEATH({ cfg.validate(); }, "fraction");
    cfg = SampleConfig{};
    cfg.unitRefs = 0;
    EXPECT_DEATH({ cfg.validate(); }, "unitRefs");
    cfg = SampleConfig{};
    cfg.warming = WarmingPolicy::FixedWarmup;
    cfg.warmupRefs = 0;
    EXPECT_DEATH({ cfg.validate(); }, "warmupRefs");
    cfg = SampleConfig{};
    cfg.warming = WarmingPolicy::Functional;
    cfg.warmupRefs = 100;
    EXPECT_DEATH({ cfg.validate(); }, "warmupRefs");
}

TEST(SampleConfig, ZeroWarmupIsRejectedByValidation)
{
    SampleConfig config;
    config.warming = WarmingPolicy::FixedWarmup;
    config.warmupRefs = 0;
    EXPECT_DEATH({ config.validate(); }, "warmupRefs");
}

/** A trace that touches @p lines distinct lines once each. */
Trace
lineWalkTrace(std::uint64_t lines)
{
    Trace t("walk");
    for (std::uint64_t i = 0; i < lines; ++i)
        t.append(i * 16, 4, AccessKind::Read);
    return t;
}

/**
 * A random-selection plan over @p refs references whose only interval
 * is [@p begin, @p begin + @p unit).  The seed is searched, so the
 * plan does not depend on how the generator maps seeds to slots.
 */
SampleConfig
oneIntervalAt(std::uint64_t refs, std::uint64_t unit, std::uint64_t begin)
{
    SampleConfig cfg;
    cfg.unitRefs = unit;
    cfg.fraction = static_cast<double>(unit) / static_cast<double>(refs);
    cfg.selection = IntervalSelection::Random;
    for (cfg.seed = 0;; ++cfg.seed) {
        const std::vector<SampleInterval> plan = selectIntervals(refs, cfg);
        if (plan.size() == 1 && plan[0].begin == begin)
            return cfg;
    }
}

/** @return how many of lineWalkTrace's lines [lo, hi) @p cache holds. */
std::uint64_t
residentWalkLines(const Cache &cache, std::uint64_t lo, std::uint64_t hi)
{
    std::uint64_t n = 0;
    for (std::uint64_t i = lo; i < hi; ++i)
        n += cache.contains(i * 16) ? 1 : 0;
    return n;
}

TEST(Warming, ColdPurgesAndSkips)
{
    const Trace trace = lineWalkTrace(600);
    Cache cache(table1Config(65536));
    // Pre-warm with lines outside the walk so the purge is observable.
    for (std::uint64_t i = 1000; i < 1100; ++i)
        cache.access({i * 16, 4, AccessKind::Read});

    SampleConfig cfg = oneIntervalAt(600, 100, 500);
    cfg.warming = WarmingPolicy::Cold;
    const SampledRunResult r = runSampled(trace, cache, cfg);
    // Skipped, then purged: only the measured references were applied.
    EXPECT_EQ(r.processedRefs, 100u);
    EXPECT_EQ(r.measured.purges, 0u); // the purge precedes measurement
    EXPECT_EQ(cache.validLineCount(), 100u);
    EXPECT_EQ(residentWalkLines(cache, 500, 600), 100u);
}

TEST(Warming, FixedWarmupReplaysTail)
{
    const Trace trace = lineWalkTrace(600);
    Cache cache(table1Config(65536));
    SampleConfig cfg = oneIntervalAt(600, 100, 500);
    cfg.warming = WarmingPolicy::FixedWarmup;
    cfg.warmupRefs = 50;
    const SampledRunResult r = runSampled(trace, cache, cfg);
    // Exactly the warm-up tail plus the interval.
    EXPECT_EQ(r.processedRefs, 150u);
    // The warmed lines are the 50 immediately before the interval.
    EXPECT_EQ(cache.validLineCount(), 150u);
    EXPECT_TRUE(cache.contains(450 * 16));
    EXPECT_FALSE(cache.contains(449 * 16));
    EXPECT_EQ(residentWalkLines(cache, 450, 600), 150u);
}

TEST(Warming, FixedWarmupClampsWhenWarmupExceedsIntervalStart)
{
    const Trace trace = lineWalkTrace(600);
    Cache cache(table1Config(65536));
    SampleConfig cfg = oneIntervalAt(600, 100, 100);
    cfg.warming = WarmingPolicy::FixedWarmup;
    cfg.warmupRefs = 500; // more than the interval's begin
    const SampledRunResult r = runSampled(trace, cache, cfg);
    // Clamped to the trace start: the 100 references before the
    // interval, then the interval itself.
    EXPECT_EQ(r.processedRefs, 200u);
    EXPECT_EQ(cache.validLineCount(), 200u);
    EXPECT_EQ(residentWalkLines(cache, 0, 200), 200u);
}

TEST(Warming, FunctionalReplaysEverything)
{
    const Trace trace = lineWalkTrace(600);
    Cache cache(table1Config(65536));
    const SampledRunResult r =
        runSampled(trace, cache, oneIntervalAt(600, 100, 500));
    EXPECT_EQ(r.processedRefs, 600u);
    EXPECT_EQ(cache.validLineCount(), 600u);
}

TEST(Warming, FunctionalHonorsPurgeSchedule)
{
    // Intervals [0, 100) and [500, 600); a purge every 250 references.
    // The count since the last purge carries across intervals and
    // gaps, so purges fall before references 250 and 500 — the second
    // one inside the measured interval — and only 500..599 survive.
    const Trace trace = lineWalkTrace(1000);
    Cache cache(table1Config(65536));
    RunConfig run;
    run.purgeInterval = 250;
    const SampledRunResult r =
        runSampled(trace, cache, systematicConfig(100, 0.2), run);
    EXPECT_EQ(r.intervalsMeasured, 2u);
    EXPECT_EQ(r.processedRefs, 600u);
    EXPECT_EQ(r.measured.purges, 1u);
    EXPECT_EQ(cache.validLineCount(), 100u);
    EXPECT_EQ(residentWalkLines(cache, 500, 600), 100u);
}

TEST(Warming, CheckpointWithoutAStoreIsFatal)
{
    const Trace trace = lineWalkTrace(600);
    Cache cache(table1Config(1024));
    SampleConfig cfg = oneIntervalAt(600, 100, 100);
    cfg.warming = WarmingPolicy::Checkpoint;
    EXPECT_DEATH({ runSampled(trace, cache, cfg); },
                 "checkpoint warming needs a live-point store");
}

TEST(Confidence, ZScoreMatchesStandardNormal)
{
    EXPECT_NEAR(zScore(0.90), 1.6449, 1e-3);
    EXPECT_NEAR(zScore(0.95), 1.9600, 1e-3);
    EXPECT_NEAR(zScore(0.99), 2.5758, 1e-3);
    EXPECT_NEAR(zScore(0.6827), 1.0, 1e-3);
}

TEST(Confidence, IntervalMatchesHandComputation)
{
    Summary s;
    for (double x : {1.0, 2.0, 3.0, 4.0, 5.0})
        s.add(x);
    const ConfidenceInterval ci = confidenceInterval(s, 0.95);
    EXPECT_DOUBLE_EQ(ci.mean, 3.0);
    // Sample sd = sqrt(2.5); se = sd / sqrt(5) = sqrt(0.5).
    EXPECT_NEAR(ci.stdError, std::sqrt(0.5), 1e-12);
    EXPECT_NEAR(ci.halfWidth, 1.9600 * std::sqrt(0.5), 1e-3);
    EXPECT_NEAR(ci.low, 3.0 - ci.halfWidth, 1e-12);
    EXPECT_NEAR(ci.high, 3.0 + ci.halfWidth, 1e-12);
    EXPECT_TRUE(ci.contains(3.0));
    EXPECT_FALSE(ci.contains(5.0));
    EXPECT_NEAR(ci.relativeHalfWidth(), ci.halfWidth / 3.0, 1e-12);
}

TEST(Confidence, DegeneratesSafelyBelowTwoSamples)
{
    Summary s;
    ConfidenceInterval ci = confidenceInterval(s, 0.95);
    EXPECT_EQ(ci.samples, 0u);
    EXPECT_EQ(ci.halfWidth, 0.0);
    s.add(7.0);
    ci = confidenceInterval(s, 0.95);
    EXPECT_EQ(ci.samples, 1u);
    EXPECT_DOUBLE_EQ(ci.mean, 7.0);
    EXPECT_EQ(ci.halfWidth, 0.0);
}

TEST(Confidence, MeetsRelativeErrorThreshold)
{
    Summary s;
    for (double x : {0.10, 0.11, 0.09, 0.10, 0.10, 0.11, 0.09, 0.10})
        s.add(x);
    const ConfidenceInterval ci = confidenceInterval(s, 0.95);
    EXPECT_TRUE(ci.meetsRelativeError(0.10));
    EXPECT_FALSE(ci.meetsRelativeError(0.001));
}

TEST(Confidence, RecommendedSampleCountFollowsSmarts)
{
    Summary s;
    for (double x : {8.0, 10.0, 12.0}) // mean 10, sample sd 2 -> cv 0.2
        s.add(x);
    // n = (z * cv / target)^2 = (1.96 * 0.2 / 0.05)^2 ~= 61.5 -> 62.
    EXPECT_EQ(recommendedSampleCount(s, 0.05, 0.95), 62u);
    EXPECT_EQ(recommendedSampleCount(Summary{}, 0.05, 0.95), 0u);
}

} // namespace
} // namespace cachelab
