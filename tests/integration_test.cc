/**
 * @file
 * Cross-module integration tests: whole-pipeline runs that exercise
 * workload generation -> simulation -> statistics together, checking
 * the qualitative results the paper reports.
 *
 * These use shortened traces (40k-120k refs) to stay fast; the bench
 * binaries run the full-length versions.
 */

#include <gtest/gtest.h>

#include <map>

#include "analytic/design_target.hh"
#include "cache/organization.hh"
#include "sim/experiments.hh"
#include "sim/run.hh"
#include "sim/sweep.hh"
#include "stats/summary.hh"
#include "trace/analyzer.hh"
#include "trace/io.hh"
#include "workload/profiles.hh"

namespace cachelab
{
namespace
{

constexpr std::uint64_t kShort = 120000;

double
groupMissRatio(TraceGroup group, std::uint64_t cache_bytes)
{
    Summary s;
    for (const TraceProfile *p : profilesInGroup(group)) {
        const Trace t = generateTrace(*p, kShort);
        Cache cache(table1Config(cache_bytes));
        s.add(runTrace(t, cache).missRatio());
    }
    return s.mean();
}

TEST(Integration, PaperMissRatioOrderingAt1K)
{
    // Figure 1 / section 3.1 ordering at 1K: M68000 best, then Z8000,
    // then VAX; Lisp worse than VAX but better than 370; MVS worst.
    std::map<TraceGroup, double> miss;
    for (TraceGroup g :
         {TraceGroup::M68000, TraceGroup::Z8000, TraceGroup::VAX,
          TraceGroup::VaxLisp, TraceGroup::IBM370})
        miss[g] = groupMissRatio(g, 1024);

    EXPECT_LT(miss[TraceGroup::M68000], miss[TraceGroup::Z8000]);
    EXPECT_LT(miss[TraceGroup::Z8000], miss[TraceGroup::VAX]);
    EXPECT_LT(miss[TraceGroup::VAX], miss[TraceGroup::VaxLisp]);
    EXPECT_LT(miss[TraceGroup::VaxLisp], miss[TraceGroup::IBM370]);
}

TEST(Integration, MvsTracesAreTheWorst)
{
    // "The worst performance (highest miss ratio) is observed for the
    // MVS1 and MVS2 traces" (section 3.1).
    const Trace mvs = generateTrace(*findTraceProfile("MVS1"), kShort);
    Cache mvs_cache(table1Config(4096));
    const double mvs_miss = runTrace(mvs, mvs_cache).missRatio();
    for (const char *other : {"FGO1", "VCCOM", "ZVI", "PLO", "TWOD1"}) {
        const Trace t = generateTrace(*findTraceProfile(other), kShort);
        Cache cache(table1Config(4096));
        EXPECT_GT(mvs_miss, runTrace(t, cache).missRatio()) << other;
    }
}

TEST(Integration, PrefetchCutsInstructionMissesAtLargeCaches)
{
    // Figure 6: for caches > 2K, instruction prefetch always cuts the
    // miss ratio, usually by more than 50%.
    const Trace t = generateTrace(*findTraceProfile("VSPICE"), kShort);
    RunConfig run;
    run.purgeInterval = kPurgeInterval;

    SplitCache demand(table1Config(8192), table1Config(8192));
    runTrace(t, demand, run);
    SplitCache prefetch(table1Config(8192, FetchPolicy::PrefetchAlways),
                        table1Config(8192, FetchPolicy::PrefetchAlways));
    runTrace(t, prefetch, run);

    const double demand_imiss =
        demand.icache().stats().missRatio(AccessKind::IFetch);
    const double prefetch_imiss =
        prefetch.icache().stats().missRatio(AccessKind::IFetch);
    EXPECT_LT(prefetch_imiss, demand_imiss * 0.6);
}

TEST(Integration, PrefetchIncreasesMemoryTraffic)
{
    // Table 4: prefetch always moves more memory traffic than demand
    // fetch; the ratio shrinks with cache size.
    const Trace t = generateTrace(*findTraceProfile("FGO1"), kShort);
    auto traffic = [&](std::uint64_t size, FetchPolicy fetch) {
        Cache cache(table1Config(size, fetch));
        RunConfig run;
        run.purgeInterval = kPurgeInterval;
        return static_cast<double>(
            runTrace(t, cache, run).trafficBytes());
    };
    const double ratio_small = traffic(256, FetchPolicy::PrefetchAlways) /
        traffic(256, FetchPolicy::Demand);
    const double ratio_large = traffic(16384, FetchPolicy::PrefetchAlways) /
        traffic(16384, FetchPolicy::Demand);
    EXPECT_GT(ratio_small, 1.0);
    EXPECT_GT(ratio_large, 1.0);
    EXPECT_LT(ratio_large, ratio_small);
}

TEST(Integration, DirtyPushFractionNearHalfOnAverage)
{
    // Table 3: mean ~0.47 with a wide range (0.22-0.80).  Check the
    // average over a sample of traces lands broadly near one half.
    Summary s;
    for (const char *name :
         {"VCCOM", "VSPICE", "VPUZZLE", "FGO1", "CCOMP1", "MVS1"}) {
        const Trace t = generateTrace(*findTraceProfile(name), kShort);
        s.add(fractionDataPushesDirty(t));
    }
    // Table 3's average is 0.47; with this six-trace sample the mean
    // should land broadly near the middle.
    EXPECT_GT(s.mean(), 0.30);
    EXPECT_LT(s.mean(), 0.65);
}

TEST(Integration, TaskSwitchPurgingRaisesMissRatio)
{
    // Table 1's no-purge setup is explicitly optimistic: "The full
    // associativity and the lack of task switching indicate that in a
    // real machine, performance would be lower."
    const Trace t = generateTrace(*findTraceProfile("WATEX"), kShort);
    Cache no_purge(table1Config(16384));
    Cache purged(table1Config(16384));
    RunConfig run;
    run.purgeInterval = kPurgeInterval;
    const double miss_no_purge = runTrace(t, no_purge).missRatio();
    const double miss_purged = runTrace(t, purged, run).missRatio();
    EXPECT_GT(miss_purged, miss_no_purge);
}

TEST(Integration, MultiprogrammingMixRunsEndToEnd)
{
    MultiprogramMix mix = paperMultiprogramMixes()[2]; // Z8000 assorted
    const Trace t = buildMixTrace(mix);
    const double f = fractionDataPushesDirty(t);
    EXPECT_GT(f, 0.05);
    EXPECT_LT(f, 0.95);
}

TEST(Integration, GeneratedTraceSurvivesIoRoundTrip)
{
    const Trace t = generateTrace(*findTraceProfile("ZOD"), 20000);
    std::stringstream ss;
    writeTrace(t, ss, TraceFormat::Binary);
    const Trace back = readTrace(ss.str(), TraceFormat::Binary, {});
    ASSERT_EQ(back.size(), t.size());
    Cache a(table1Config(1024)), b(table1Config(1024));
    EXPECT_DOUBLE_EQ(runTrace(t, a).missRatio(),
                     runTrace(back, b).missRatio());
}

TEST(Integration, DesignTargetsAreConservativeForMostTraces)
{
    // Table 5 aims at the ~85th percentile: most traces should do
    // better than the design target at a given size.
    const std::uint64_t size = 4096;
    const double target = designTargetMissRatio(size, CacheKind::Unified);
    int better = 0, total = 0;
    for (const TraceProfile &p : allTraceProfiles()) {
        const Trace t = generateTrace(p, 40000);
        Cache cache(table1Config(size));
        better += runTrace(t, cache).missRatio() < target;
        ++total;
    }
    EXPECT_GT(static_cast<double>(better) / total, 0.7);
}

TEST(Integration, SplitVersusUnifiedSameTotalCapacity)
{
    // A classic design question the library must answer: split 8K+8K
    // vs unified 16K.  With purging, both must produce sane, nonzero
    // miss ratios and the unified cache should not be wildly worse.
    const Trace t = generateTrace(*findTraceProfile("FCOMP1"), kShort);
    RunConfig run;
    run.purgeInterval = kPurgeInterval;
    UnifiedCache unified(table1Config(16384));
    SplitCache split(table1Config(8192), table1Config(8192));
    const double unified_miss = runTrace(t, unified, run).missRatio();
    const double split_miss = runTrace(t, split, run).missRatio();
    EXPECT_GT(unified_miss, 0.0);
    EXPECT_GT(split_miss, 0.0);
    EXPECT_LT(unified_miss, 0.5);
    EXPECT_LT(split_miss, 0.5);
}

} // namespace
} // namespace cachelab
