/**
 * @file
 * Tests for the Mattson stack-distance analyzer and Belady OPT
 * simulation, including cross-validation against the direct cache
 * simulator.
 */

#include <gtest/gtest.h>

#include "cache/belady.hh"
#include "cache/cache.hh"
#include "cache/stack_analysis.hh"
#include "sim/experiments.hh"
#include "sim/run.hh"
#include "sim/sweep.hh"
#include "workload/profiles.hh"

namespace cachelab
{
namespace
{

TEST(StackAnalyzer, ColdTouchesCounted)
{
    StackAnalyzer a(16);
    a.access({0x000, 4, AccessKind::Read});
    a.access({0x010, 4, AccessKind::Read});
    EXPECT_EQ(a.refCount(), 2u);
    EXPECT_EQ(a.distinctLineCount(), 2u);
    // Every size misses both cold touches.
    EXPECT_EQ(a.table1StatsFor(1 << 20).demandFetches, 2u);
}

TEST(StackAnalyzer, DistanceOfImmediateReuseIsOne)
{
    StackAnalyzer a(16);
    a.access({0x000, 4, AccessKind::Read});
    a.access({0x004, 4, AccessKind::Read}); // same line, distance 1
    // One line in the cache suffices to hit it.
    const CacheStats one_line = a.table1StatsFor(16);
    EXPECT_EQ(one_line.demandFetches, 1u); // just the cold fetch
    EXPECT_EQ(one_line.totalMisses(), 1u);
}

TEST(StackAnalyzer, DistanceCountsInterveningLines)
{
    StackAnalyzer a(16);
    a.access({0x000, 4, AccessKind::Read});
    a.access({0x010, 4, AccessKind::Read});
    a.access({0x020, 4, AccessKind::Read});
    a.access({0x000, 4, AccessKind::Read}); // distance 3
    // A 2-line cache misses the revisit; a 3-line one hits it.
    EXPECT_EQ(a.table1StatsFor(32).demandFetches, 4u);
    EXPECT_EQ(a.table1StatsFor(48).demandFetches, 3u);
}

class StackSeedSweep : public ::testing::TestWithParam<std::uint64_t>
{
};

INSTANTIATE_TEST_SUITE_P(Seeds, StackSeedSweep,
                         ::testing::Values(3, 7, 11, 19, 31));

TEST_P(StackSeedSweep, OnePassCurveMatchesDirectSimulation)
{
    // The whole point of the stack algorithm: one pass == N
    // simulations, exactly, for the Table 1 configuration.
    WorkloadParams params;
    params.machine = Machine::VAX;
    params.refCount = 40000;
    params.seed = GetParam();
    const Trace t = generateWorkload(params, "sweep");

    StackAnalyzer a(16);
    a.accessAll(t);
    for (std::uint64_t size : powersOfTwo(64, 16384)) {
        Cache cache(table1Config(size));
        const CacheStats s = runTrace(t, cache);
        EXPECT_NEAR(a.table1StatsFor(size).missRatio(), s.missRatio(), 1e-12)
            << "size " << size;
    }
}

TEST_P(StackSeedSweep, LineFetchCountMatchesDirectSimulation)
{
    WorkloadParams params;
    params.machine = Machine::IBM370;
    params.refCount = 30000;
    params.seed = GetParam() * 13;
    const Trace t = generateWorkload(params, "fetches");

    StackAnalyzer a(16);
    a.accessAll(t);
    for (std::uint64_t size : {512u, 4096u, 32768u}) {
        Cache cache(table1Config(size));
        const CacheStats s = runTrace(t, cache);
        EXPECT_EQ(a.table1StatsFor(size).demandFetches, s.demandFetches)
            << "size " << size;
    }
}

TEST(Belady, TrivialSequence)
{
    // Classic example: with 2 lines and the sequence A B C A, OPT
    // keeps A (evicting B, next used never) and hits the final A.
    Trace t("opt");
    t.append(0x000, 4, AccessKind::Read); // A
    t.append(0x010, 4, AccessKind::Read); // B
    t.append(0x020, 4, AccessKind::Read); // C -> evicts B
    t.append(0x000, 4, AccessKind::Read); // A hits
    const CacheStats s = simulateOptimal(t, 32, 16);
    EXPECT_EQ(s.totalMisses(), 3u);
    // LRU would evict A at C and miss all four.
    CacheConfig cfg = table1Config(32);
    Cache lru(cfg);
    EXPECT_EQ(runTrace(t, lru).totalMisses(), 4u);
}

TEST(Belady, TracksDirtyPushes)
{
    Trace t("dirty");
    t.append(0x000, 4, AccessKind::Write);
    t.append(0x010, 4, AccessKind::Read);
    t.append(0x020, 4, AccessKind::Read); // evicts one of the two
    const CacheStats s = simulateOptimal(t, 32, 16);
    EXPECT_EQ(s.replacementPushes, 1u);
    // Whichever was evicted, traffic accounting must balance.
    EXPECT_EQ(s.bytesFromMemory, 3u * 16u);
    EXPECT_LE(s.dirtyReplacementPushes, 1u);
}

class BeladySeedSweep : public ::testing::TestWithParam<std::uint64_t>
{
};

INSTANTIATE_TEST_SUITE_P(Seeds, BeladySeedSweep,
                         ::testing::Values(2, 5, 17, 23));

TEST_P(BeladySeedSweep, OptNeverMissesMoreThanLruFifoRandom)
{
    WorkloadParams params;
    params.machine = Machine::VAX;
    params.refCount = 30000;
    params.seed = GetParam() * 7;
    const Trace t = generateWorkload(params, "opt-bound");

    for (std::uint64_t size : {256u, 1024u, 4096u}) {
        const CacheStats opt = simulateOptimal(t, size, 16);
        for (const char *policy : {"lru", "fifo", "random"}) {
            CacheConfig cfg = table1Config(size);
            cfg.replacement = policySpec(policy);
            Cache cache(cfg);
            const CacheStats s = runTrace(t, cache);
            EXPECT_LE(opt.demandFetches, s.demandFetches)
                << policy << " @ " << size;
        }
    }
}

TEST_P(BeladySeedSweep, OptMonotoneInSize)
{
    WorkloadParams params;
    params.machine = Machine::Z8000;
    params.refCount = 25000;
    params.seed = GetParam() * 101;
    const Trace t = generateWorkload(params, "opt-mono");
    std::uint64_t prev = ~0ull;
    for (std::uint64_t size : powersOfTwo(64, 8192)) {
        const CacheStats s = simulateOptimal(t, size, 16);
        EXPECT_LE(s.demandFetches, prev);
        prev = s.demandFetches;
    }
}

} // namespace
} // namespace cachelab
