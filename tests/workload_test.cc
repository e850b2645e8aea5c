/**
 * @file
 * Unit tests for the synthetic workload model: mix control, branch
 * control, footprint bounds, recency pool behavior, and the generated
 * bytes of the benchmark's inputs pinned by content hash.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "cache/cache.hh"
#include "ckpt/live_points.hh"
#include "trace/analyzer.hh"
#include "workload/kv_model.hh"
#include "workload/profiles.hh"
#include "workload/program_model.hh"
#include "workload/recency.hh"

namespace cachelab
{
namespace
{

WorkloadParams
vaxParams(std::uint64_t refs = 60000)
{
    WorkloadParams p;
    p.machine = Machine::VAX;
    p.refCount = refs;
    p.seed = 42;
    return p;
}

TEST(RecencyPool, EmptyPoolAlwaysAsksForNewSite)
{
    RecencyPool<int> pool(8, 1.0);
    Rng rng(1);
    EXPECT_EQ(pool.sample(rng, 0.0), nullptr);
    EXPECT_TRUE(pool.empty());
}

TEST(RecencyPool, InsertPromotesToFront)
{
    RecencyPool<int> pool(8, 1.0);
    pool.insert(1);
    pool.insert(2);
    EXPECT_EQ(pool.mostRecent(), 2);
    EXPECT_EQ(pool.size(), 2u);
}

TEST(RecencyPool, CapacityEvictsLeastRecent)
{
    RecencyPool<int> pool(3, 1.0);
    for (int i = 0; i < 5; ++i)
        pool.insert(i);
    EXPECT_EQ(pool.size(), 3u);
    EXPECT_EQ(pool.mostRecent(), 4);
}

TEST(RecencyPool, SamplePromotesSampledSite)
{
    // Fill the pool so rank sampling cannot fall off the end, then
    // verify the sampled site is promoted to most-recent.
    RecencyPool<int> pool(4, 0.5);
    for (int i = 0; i < 4; ++i)
        pool.insert(i); // order: 3 2 1 0
    Rng rng(7);
    for (int i = 0; i < 200; ++i) {
        int *site = pool.sample(rng, 0.0);
        ASSERT_NE(site, nullptr);
        EXPECT_EQ(*site, pool.mostRecent());
    }
    EXPECT_EQ(pool.size(), 4u); // sampling never grows the pool
}

TEST(RecencyPool, SteepThetaFavorsMostRecent)
{
    RecencyPool<int> pool(2, 5.0); // capacity 2: no off-the-end ranks
    pool.insert(10);
    pool.insert(20); // order: 20, 10
    Rng rng(7);
    int first_sample_was_20 = 0;
    for (int i = 0; i < 50; ++i) {
        // Reset order each round (sampling promotes the winner).
        while (pool.mostRecent() != 20) {
            // promote 20 back to the front by sampling until found
            int *site = pool.sample(rng, 0.0);
            ASSERT_NE(site, nullptr);
        }
        int *site = pool.sample(rng, 0.0);
        ASSERT_NE(site, nullptr);
        first_sample_was_20 += *site == 20;
    }
    // With theta 5.0, rank 0 carries ~97% of the mass.
    EXPECT_GT(first_sample_was_20, 40);
}

TEST(RecencyPool, NewSiteProbabilityForcesNull)
{
    // Full pool: the only source of nulls is the new-site coin.
    RecencyPool<int> pool(8, 1.0);
    for (int i = 0; i < 8; ++i)
        pool.insert(i);
    Rng rng(3);
    int nulls = 0;
    for (int i = 0; i < 1000; ++i)
        nulls += pool.sample(rng, 0.5) == nullptr;
    EXPECT_GT(nulls, 400);
    EXPECT_LT(nulls, 600);
}

TEST(RecencyPool, RankBeyondOccupancyMeansNewSite)
{
    // A sparsely filled pool returns null when the sampled rank lands
    // beyond the current occupancy — that is how phase growth happens.
    RecencyPool<int> pool(64, 0.1); // nearly uniform over 64 ranks
    pool.insert(1);
    Rng rng(9);
    int nulls = 0;
    for (int i = 0; i < 1000; ++i)
        nulls += pool.sample(rng, 0.0) == nullptr;
    // Only ~1/64 of rank samples land on the single occupied slot.
    EXPECT_GT(nulls, 900);
}

TEST(WorkloadParams, ValidateRejectsBadFractions)
{
    WorkloadParams p = vaxParams();
    p.seqScanFraction = 0.7;
    p.stackFraction = 0.5; // sum > 1
    EXPECT_DEATH({ p.validate(); }, "");
}

TEST(WorkloadParams, ResolveDefaultsFromArchProfile)
{
    WorkloadParams p = vaxParams();
    EXPECT_DOUBLE_EQ(p.resolvedIfetchFraction(), 0.50);
    EXPECT_DOUBLE_EQ(p.resolvedBranchFraction(), 0.175);
    p.ifetchFraction = 0.6;
    p.branchFraction = 0.1;
    EXPECT_DOUBLE_EQ(p.resolvedIfetchFraction(), 0.6);
    EXPECT_DOUBLE_EQ(p.resolvedBranchFraction(), 0.1);
}

TEST(ProgramModel, GeneratesExactlyRequestedLength)
{
    const Trace t = generateWorkload(vaxParams(12345), "len");
    EXPECT_EQ(t.size(), 12345u);
}

TEST(ProgramModel, MixConvergesToTarget)
{
    const Trace t = generateWorkload(vaxParams(), "mix");
    EXPECT_NEAR(t.fractionKind(AccessKind::IFetch), 0.50, 0.02);
    // Reads ~2x writes within data refs.
    const double reads = t.fractionKind(AccessKind::Read);
    const double writes = t.fractionKind(AccessKind::Write);
    EXPECT_NEAR(reads / writes, 2.0, 0.25);
}

TEST(ProgramModel, MixOverrideRespected)
{
    WorkloadParams p = vaxParams();
    p.ifetchFraction = 0.7;
    const Trace t = generateWorkload(p, "mix70");
    EXPECT_NEAR(t.fractionKind(AccessKind::IFetch), 0.70, 0.02);
}

TEST(ProgramModel, BranchFractionConvergesToTarget)
{
    WorkloadParams p = vaxParams(250000);
    const Trace t = generateWorkload(p, "branch");
    const TraceCharacteristics c = analyzeTrace(t);
    EXPECT_NEAR(c.branchFraction, 0.175, 0.03);
}

TEST(ProgramModel, BranchOverrideRespected)
{
    WorkloadParams p = vaxParams(250000);
    p.branchFraction = 0.08;
    const Trace t = generateWorkload(p, "branch8");
    const TraceCharacteristics c = analyzeTrace(t);
    EXPECT_NEAR(c.branchFraction, 0.08, 0.02);
}

TEST(ProgramModel, CodeFootprintBoundedByRegion)
{
    WorkloadParams p = vaxParams(100000);
    p.codeBytes = 4096;
    const Trace t = generateWorkload(p, "bounded");
    const TraceCharacteristics c = analyzeTrace(t);
    // Instruction lines fit in the configured code region.
    EXPECT_LE(c.ilines * 16, p.codeBytes + 16);
    EXPECT_GT(c.ilines, 16u); // and the region is actually used
}

TEST(ProgramModel, AddressesStayInDesignatedRegions)
{
    const Trace t = generateWorkload(vaxParams(50000), "regions");
    for (const MemoryRef &ref : t) {
        if (ref.kind == AccessKind::IFetch) {
            ASSERT_GE(ref.addr, 0x10000u);
            ASSERT_LT(ref.addr, 0x10000u + (1u << 20));
        } else {
            ASSERT_GE(ref.addr, 0x400000u);
        }
    }
}

TEST(ProgramModel, ReferenceSizesMatchInterfaceGranules)
{
    const Trace t = generateWorkload(vaxParams(20000), "granule");
    for (const MemoryRef &ref : t)
        ASSERT_EQ(ref.size, 4u); // VAX: 4-byte instruction & data path
    WorkloadParams z = vaxParams(20000);
    z.machine = Machine::Z8000;
    const Trace tz = generateWorkload(z, "granule-z");
    for (const MemoryRef &ref : tz)
        ASSERT_EQ(ref.size, 2u);
}

TEST(ProgramModel, HigherReuseThetaLowersMissRatio)
{
    WorkloadParams cold = vaxParams(100000);
    cold.codeReuseTheta = 0.3;
    cold.dataReuseTheta = 0.3;
    WorkloadParams hot = cold;
    hot.codeReuseTheta = 1.5;
    hot.dataReuseTheta = 1.5;
    hot.seed = cold.seed;

    auto missAt1K = [](const Trace &t) {
        CacheConfig cfg;
        cfg.sizeBytes = 1024;
        Cache cache(cfg);
        for (const MemoryRef &ref : t)
            cache.access(ref);
        return cache.stats().missRatio();
    };
    const double cold_miss = missAt1K(generateWorkload(cold, "cold"));
    const double hot_miss = missAt1K(generateWorkload(hot, "hot"));
    EXPECT_LT(hot_miss, cold_miss);
}

TEST(ProgramModel, CdcWorkloadHasLongSequentialRuns)
{
    // Section 3.2: the CDC 6400's low branch frequency means long
    // sequential instruction runs.
    WorkloadParams cdc = vaxParams(150000);
    cdc.machine = Machine::CDC6400;
    WorkloadParams vax = vaxParams(150000);
    const TraceCharacteristics cc =
        analyzeTrace(generateWorkload(cdc, "cdc"));
    const TraceCharacteristics cv =
        analyzeTrace(generateWorkload(vax, "vax"));
    EXPECT_GT(cc.meanSequentialRunBytes, 2.0 * cv.meanSequentialRunBytes);
}

// --- generated bytes ------------------------------------------------
//
// A faster generator must emit the same references.  These hashes pin
// the benchmark's inputs at 250k references each.

TEST(GeneratedBytes, KvServedTraceIsPinned)
{
    KvWorkloadParams kv; // the kv_served workload's input
    kv.refCount = 250000;
    kv.keyCount = 1u << 21;
    kv.objectBytes = 64;
    kv.refBytes = 8;
    kv.zipfTheta = 0.9;
    kv.readRatio = 0.7;
    kv.scanFraction = 0.02;
    kv.meanScanObjects = 32.0;
    kv.driftRefs = 5000;
    kv.seed = 1;
    const Trace t = generateKvWorkload(kv, "kv");
    ASSERT_EQ(t.size(), kv.refCount);
    EXPECT_EQ(ckpt::hashRefs(ckpt::kContentHashSeed, t.refs()),
              0xd36cbc3952ebb688ULL);
}

TEST(GeneratedBytes, CpuProfilesArePinned)
{
    // The cpu_ckpt_fanout profiles, each at its own seed.
    const std::vector<std::pair<std::string, std::uint64_t>> pins = {
        {"VSPICE", 0xcedbc4c836e97842ULL},
        {"LISP1", 0xc222a2ca9b9b166bULL},
        {"MVS1", 0x22a253978e4ca986ULL},
        {"TWOD1", 0xee8033a85067602cULL},
    };
    for (const auto &[name, hash] : pins) {
        const Trace t = generateTraceExactly(*findTraceProfile(name), 250000);
        ASSERT_EQ(t.size(), 250000u) << name;
        EXPECT_EQ(ckpt::hashRefs(ckpt::kContentHashSeed, t.refs()), hash)
            << name;
    }
}

} // namespace
} // namespace cachelab
