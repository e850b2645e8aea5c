/**
 * @file
 * Acceptance tests for the checkpoint subsystem (ISSUE 6):
 *
 *  - exact state snapshots: a cache restored midstream continues
 *    bitwise identically to one that never stopped, for every
 *    replacement/write policy and for the composite organizations;
 *  - state_io round-trips snapshots through streams and files;
 *  - live-point restores reproduce the functionally-warmed state of
 *    every associativity a store's groups serve, dirty bits included;
 *  - checkpoint-warming sampled sweeps are bitwise identical to
 *    functional-warming sweeps, unified and split, with and without a
 *    purge schedule;
 *  - incompatible stores and impostor traces are rejected loudly;
 *  - warmToInterval() edge cases around the checkpoint overload.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <vector>

#include "cache/cache.hh"
#include "cache/hierarchy.hh"
#include "cache/organization.hh"
#include "cache/sector_cache.hh"
#include "ckpt/live_points.hh"
#include "ckpt/state_io.hh"
#include "sample/warming.hh"
#include "sim/experiments.hh"
#include "sim/run.hh"
#include "sim/sampled.hh"
#include "workload/profiles.hh"

namespace cachelab
{
namespace
{

constexpr std::uint64_t kTestRefs = 120000;

Trace
testTrace(const char *profile_name = "ZGREP",
          std::uint64_t refs = kTestRefs)
{
    const TraceProfile *profile = findTraceProfile(profile_name);
    EXPECT_NE(profile, nullptr);
    return generateTrace(*profile, refs);
}

bool
statsBitwiseEqual(const CacheStats &a, const CacheStats &b)
{
    return std::memcmp(&a, &b, sizeof(CacheStats)) == 0;
}

/** Apply refs [begin, end) of @p trace to @p cache. */
void
applyRange(const Trace &trace, Cache &cache, std::uint64_t begin,
           std::uint64_t end)
{
    for (std::uint64_t i = begin; i < end; ++i)
        cache.access(trace[i]);
}

std::string
freshDir(const char *leaf)
{
    const std::filesystem::path dir =
        std::filesystem::path(testing::TempDir()) / leaf;
    std::filesystem::remove_all(dir);
    return dir.string();
}

/**
 * Behavioral fingerprint of a cache's state: per set, the resident
 * (lineAddr, dirty) pairs in recency order.  Way identity is
 * deliberately excluded — under LRU it never influences hits,
 * victims, or traffic, and live-point restores assign ways densely.
 */
std::vector<std::vector<std::pair<Addr, bool>>>
canonicalState(const Cache &cache)
{
    const CacheState state = cache.exportState();
    std::vector<std::vector<std::pair<Addr, bool>>> sets(state.sets);
    std::size_t cursor = 0;
    for (std::uint64_t s = 0; s < state.sets; ++s) {
        for (std::uint64_t k = 0; k < state.assoc; ++k) {
            const std::uint32_t way = state.recency[cursor++];
            const CacheState::Line &line = state.lines[way];
            if (line.valid)
                sets[s].push_back({line.lineAddr, line.dirty});
        }
    }
    return sets;
}

// ---------------------------------------------------------------- //
//  Exact snapshots: export/import mid-stream                        //
// ---------------------------------------------------------------- //

TEST(CacheState, MidstreamRestoreContinuesBitwise)
{
    const Trace trace = testTrace();
    const std::uint64_t half = trace.size() / 2;

    for (const char *repl : {"lru", "fifo", "random"}) {
        for (WritePolicy wp :
             {WritePolicy::CopyBack, WritePolicy::WriteThrough}) {
            for (std::uint32_t assoc : {1u, 2u, 0u}) {
                CacheConfig config;
                config.sizeBytes = 4096;
                config.associativity = assoc;
                config.replacement = policySpec(repl);
                config.writePolicy = wp;

                Cache reference(config);
                applyRange(trace, reference, 0, trace.size());

                Cache first(config);
                applyRange(trace, first, 0, half);
                Cache second(config);
                second.importState(first.exportState());
                applyRange(trace, second, half, trace.size());

                EXPECT_TRUE(statsBitwiseEqual(second.stats(),
                                              reference.stats()))
                    << repl << "/" << toString(wp) << "/assoc "
                    << assoc;
            }
        }
    }
}

TEST(CacheState, RoundtripPreservesEveryField)
{
    const Trace trace = testTrace();
    Cache cache(table1Config(2048));
    applyRange(trace, cache, 0, trace.size() / 3);

    const CacheState state = cache.exportState();
    Cache copy(table1Config(2048));
    copy.importState(state);
    const CacheState again = copy.exportState();

    EXPECT_EQ(state.lines, again.lines);
    EXPECT_EQ(state.recency, again.recency);
    EXPECT_EQ(state.rngState, again.rngState);
    EXPECT_EQ(state.clock, again.clock);
    EXPECT_TRUE(statsBitwiseEqual(state.stats, again.stats));
}

TEST(CacheState, ImportRejectsGeometryMismatch)
{
    Cache small(table1Config(1024));
    Cache large(table1Config(4096));
    const CacheState state = small.exportState();
    EXPECT_DEATH({ large.importState(state); }, "geometry");
}

TEST(CompositeState, SplitMidstreamRestoreContinuesBitwise)
{
    const Trace trace = testTrace("VSPICE");
    const std::uint64_t half = trace.size() / 2;
    const CacheConfig config = table1Config(2048);

    SplitCache reference(config, config);
    for (std::uint64_t i = 0; i < trace.size(); ++i)
        reference.access(trace[i]);

    SplitCache first(config, config);
    for (std::uint64_t i = 0; i < half; ++i)
        first.access(trace[i]);
    SplitCache second(config, config);
    second.importState(first.exportState());
    for (std::uint64_t i = half; i < trace.size(); ++i)
        second.access(trace[i]);

    EXPECT_TRUE(statsBitwiseEqual(second.icache().stats(),
                                  reference.icache().stats()));
    EXPECT_TRUE(statsBitwiseEqual(second.dcache().stats(),
                                  reference.dcache().stats()));
}

TEST(CompositeState, TwoLevelMidstreamRestoreContinuesBitwise)
{
    const Trace trace = testTrace("MVS1");
    const std::uint64_t half = trace.size() / 2;
    const CacheConfig l1 = table1Config(1024);
    const CacheConfig l2 = table1Config(8192);

    TwoLevelCache reference(l1, l2);
    for (std::uint64_t i = 0; i < trace.size(); ++i)
        reference.access(trace[i]);

    TwoLevelCache first(l1, l2);
    for (std::uint64_t i = 0; i < half; ++i)
        first.access(trace[i]);
    TwoLevelCache second(l1, l2);
    second.importState(first.exportState());
    for (std::uint64_t i = half; i < trace.size(); ++i)
        second.access(trace[i]);

    EXPECT_TRUE(statsBitwiseEqual(second.l1().stats(),
                                  reference.l1().stats()));
    EXPECT_TRUE(statsBitwiseEqual(second.l2().stats(),
                                  reference.l2().stats()));
    EXPECT_EQ(second.globalMissRatio(), reference.globalMissRatio());
}

TEST(CompositeState, SectorMidstreamRestoreContinuesBitwise)
{
    const Trace trace = testTrace("ZSORT");
    const std::uint64_t half = trace.size() / 2;
    SectorCacheConfig config;
    config.sizeBytes = 2048;

    SectorCache reference(config);
    for (std::uint64_t i = 0; i < trace.size(); ++i)
        reference.access(trace[i]);

    SectorCache first(config);
    for (std::uint64_t i = 0; i < half; ++i)
        first.access(trace[i]);
    SectorCache second(config);
    second.importState(first.exportState());
    for (std::uint64_t i = half; i < trace.size(); ++i)
        second.access(trace[i]);

    EXPECT_TRUE(statsBitwiseEqual(second.stats(), reference.stats()));
}

// ---------------------------------------------------------------- //
//  state_io: stream and file round-trips                            //
// ---------------------------------------------------------------- //

TEST(StateIo, StreamRoundtripsEveryRecordType)
{
    const Trace trace = testTrace();
    const std::uint64_t third = trace.size() / 3;
    const CacheConfig config = table1Config(2048);

    Cache cache(config);
    applyRange(trace, cache, 0, third);
    SplitCache split(config, config);
    TwoLevelCache two(table1Config(1024), table1Config(8192));
    SectorCacheConfig sector_config;
    sector_config.sizeBytes = 2048;
    SectorCache sector(sector_config);
    for (std::uint64_t i = 0; i < third; ++i) {
        split.access(trace[i]);
        two.access(trace[i]);
        sector.access(trace[i]);
    }

    std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
    ckpt::writeCacheState(ss, cache.exportState());
    ckpt::writeSplitCacheState(ss, split.exportState());
    ckpt::writeTwoLevelCacheState(ss, two.exportState());
    ckpt::writeSectorCacheState(ss, sector.exportState());

    Cache cache2(config);
    cache2.importState(ckpt::readCacheState(ss));
    SplitCache split2(config, config);
    split2.importState(ckpt::readSplitCacheState(ss));
    TwoLevelCache two2(table1Config(1024), table1Config(8192));
    two2.importState(ckpt::readTwoLevelCacheState(ss));
    SectorCacheConfig sector_config2 = sector_config;
    SectorCache sector2(sector_config2);
    sector2.importState(ckpt::readSectorCacheState(ss));

    for (std::uint64_t i = third; i < trace.size(); ++i) {
        cache.access(trace[i]);
        cache2.access(trace[i]);
        split.access(trace[i]);
        split2.access(trace[i]);
        two.access(trace[i]);
        two2.access(trace[i]);
        sector.access(trace[i]);
        sector2.access(trace[i]);
    }
    EXPECT_TRUE(statsBitwiseEqual(cache2.stats(), cache.stats()));
    EXPECT_TRUE(statsBitwiseEqual(split2.combinedStats(),
                                  split.combinedStats()));
    EXPECT_TRUE(statsBitwiseEqual(two2.l2().stats(), two.l2().stats()));
    EXPECT_TRUE(statsBitwiseEqual(sector2.stats(), sector.stats()));
}

TEST(StateIo, FileRoundtrip)
{
    const Trace trace = testTrace();
    Cache cache(table1Config(1024));
    applyRange(trace, cache, 0, trace.size() / 4);

    const std::string path =
        (std::filesystem::path(testing::TempDir()) / "state.cks").string();
    const CacheState state = cache.exportState();
    ckpt::saveCacheState(state, path);
    const CacheState loaded = ckpt::loadCacheState(path);
    EXPECT_EQ(state.lines, loaded.lines);
    EXPECT_EQ(state.recency, loaded.recency);
    EXPECT_EQ(state.rngState, loaded.rngState);
    EXPECT_EQ(state.clock, loaded.clock);
    EXPECT_TRUE(statsBitwiseEqual(state.stats, loaded.stats));
}

TEST(StateIo, RejectsWrongMagic)
{
    std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
    Cache cache(table1Config(1024));
    ckpt::writeCacheState(ss, cache.exportState());
    EXPECT_DEATH({ ckpt::readSplitCacheState(ss); }, "SplitCacheState");
}

// ---------------------------------------------------------------- //
//  Live points: restores match functional warming exactly           //
// ---------------------------------------------------------------- //

ckpt::LivePointWriteSpec
unifiedSpec(const std::vector<std::uint64_t> &sizes,
            const SampleConfig &sample, std::uint64_t purge_interval = 0,
            std::uint32_t associativity = 0)
{
    ckpt::LivePointWriteSpec spec;
    spec.sample = sample;
    spec.purgeInterval = purge_interval;
    spec.base = table1Config(sizes.front());
    spec.base.associativity = associativity;
    spec.sizes = sizes;
    return spec;
}

SampleConfig
sampleTenPercent(WarmingPolicy warming)
{
    SampleConfig sample;
    sample.unitRefs = 1000;
    sample.fraction = 0.10;
    sample.warming = warming;
    return sample;
}

TEST(LivePoints, RestoreReproducesFunctionallyWarmedState)
{
    Trace trace = testTrace("VSPICE");
    const SampleConfig sample = sampleTenPercent(WarmingPolicy::Checkpoint);
    const std::vector<std::uint64_t> sizes = {512, 1024, 2048, 4096};

    // One store, max associativity 0 (fully associative): its single
    // unified group must serve *every* size at this line size.
    const std::string dir = freshDir("lvpt-restore");
    const ckpt::LivePointWriteSummary summary =
        ckpt::writeLivePoints(trace, dir, unifiedSpec(sizes, sample));
    EXPECT_EQ(summary.groups, 1u);
    EXPECT_GT(summary.intervals, 0u);

    const ckpt::LivePointStore store = ckpt::LivePointStore::load(dir);
    EXPECT_EQ(store.keyHash(), summary.keyHash);
    EXPECT_EQ(store.contentHash(), summary.contentHash);

    const std::vector<SampleInterval> plan =
        selectIntervals(trace.size(), sample);
    for (std::uint64_t size : sizes) {
        const CacheConfig config = table1Config(size);
        const ckpt::LivePointGroup &group = store.group(
            "unified", config.lineBytes, config.setCount(),
            config.effectiveAssociativity());
        // Check a few interval starts spread over the plan.
        for (std::size_t idx : {std::size_t{0}, plan.size() / 2,
                                plan.size() - 1}) {
            Cache warmed(config);
            applyRange(trace, warmed, 0, plan[idx].begin);
            Cache restored(config);
            std::uint64_t since_purge = 0;
            group.restoreInto(restored, idx, since_purge);
            EXPECT_EQ(canonicalState(restored), canonicalState(warmed))
                << size << "B, interval " << idx;
            EXPECT_EQ(since_purge, plan[idx].begin);
        }
    }
}

TEST(LivePoints, RestoreRejectsIneligibleAndMismatchedCaches)
{
    Trace trace = testTrace();
    const SampleConfig sample = sampleTenPercent(WarmingPolicy::Checkpoint);
    const std::string dir = freshDir("lvpt-reject");
    ckpt::writeLivePoints(trace, dir, unifiedSpec({1024}, sample));
    const ckpt::LivePointStore store = ckpt::LivePointStore::load(dir);
    const CacheConfig config = table1Config(1024);
    const ckpt::LivePointGroup &group =
        store.group("unified", config.lineBytes, config.setCount(),
                    config.effectiveAssociativity());

    std::uint64_t since_purge = 0;
    CacheConfig fifo = config;
    fifo.replacement = policySpec("fifo");
    Cache fifo_cache(fifo);
    EXPECT_DEATH({ group.restoreInto(fifo_cache, 0, since_purge); },
                 "only LRU");

    CacheConfig wrong_line = config;
    wrong_line.lineBytes = 32;
    Cache wrong_line_cache(wrong_line);
    EXPECT_DEATH({ group.restoreInto(wrong_line_cache, 0, since_purge); },
                 "sets");

    // A set-associative 1024B cache needs a "s64"-style group the
    // fully-associative store does not carry.
    CacheConfig set_assoc = config;
    set_assoc.associativity = 2;
    EXPECT_DEATH({
        store.group("unified", set_assoc.lineBytes, set_assoc.setCount(),
                    set_assoc.effectiveAssociativity());
    }, "no unified group");
}

// ---------------------------------------------------------------- //
//  Checkpoint-warming sweeps: bitwise vs functional warming         //
// ---------------------------------------------------------------- //

void
expectSampledResultsIdentical(const SampledRunResult &ckpt_result,
                              const SampledRunResult &functional,
                              const std::string &label)
{
    EXPECT_TRUE(statsBitwiseEqual(ckpt_result.measured,
                                  functional.measured))
        << label;
    EXPECT_TRUE(statsBitwiseEqual(ckpt_result.estimated,
                                  functional.estimated))
        << label;
    EXPECT_EQ(ckpt_result.measuredRefs, functional.measuredRefs) << label;
    EXPECT_EQ(ckpt_result.intervalsMeasured, functional.intervalsMeasured)
        << label;
    EXPECT_EQ(ckpt_result.missRatio.mean, functional.missRatio.mean)
        << label;
    EXPECT_EQ(ckpt_result.missRatio.halfWidth,
              functional.missRatio.halfWidth)
        << label;
}

TEST(CheckpointSweep, UnifiedBitwiseAcrossAssociativities)
{
    Trace trace = testTrace("ZGREP");
    const std::vector<std::uint64_t> sizes = {1024, 2048, 4096, 8192};

    for (std::uint32_t associativity : {1u, 2u, 4u, 0u}) {
        CacheConfig base = table1Config(sizes.front());
        base.associativity = associativity;
        const SampleConfig functional =
            sampleTenPercent(WarmingPolicy::Functional);
        const SampleConfig checkpoint =
            sampleTenPercent(WarmingPolicy::Checkpoint);

        const std::string dir = freshDir("lvpt-sweep-unified");
        ckpt::LivePointWriteSpec spec =
            unifiedSpec(sizes, checkpoint, 0, associativity);
        trace.reset();
        ckpt::writeLivePoints(trace, dir, spec);
        const ckpt::LivePointStore store = ckpt::LivePointStore::load(dir);

        const std::vector<SampledSweepPoint> reference =
            sweepUnifiedSampled(trace, sizes, base, functional);
        trace.reset();
        const std::vector<SampledSweepPoint> restored =
            sweepUnifiedSampled(trace, sizes, base, checkpoint, RunConfig{},
                                store);

        ASSERT_EQ(restored.size(), reference.size());
        for (std::size_t i = 0; i < restored.size(); ++i) {
            EXPECT_EQ(restored[i].cacheBytes, reference[i].cacheBytes);
            expectSampledResultsIdentical(
                restored[i].result, reference[i].result,
                "assoc " + std::to_string(associativity) + ", size " +
                    std::to_string(sizes[i]));
        }
    }
}

TEST(CheckpointSweep, UnifiedBitwiseWithPurgeSchedule)
{
    Trace trace = testTrace("ZSORT");
    const std::vector<std::uint64_t> sizes = {1024, 4096};
    const CacheConfig base = table1Config(sizes.front());
    RunConfig run;
    run.purgeInterval = kPurgeInterval;

    const SampleConfig functional =
        sampleTenPercent(WarmingPolicy::Functional);
    const SampleConfig checkpoint =
        sampleTenPercent(WarmingPolicy::Checkpoint);

    const std::string dir = freshDir("lvpt-sweep-purge");
    ckpt::LivePointWriteSpec spec = unifiedSpec(sizes, checkpoint);
    spec.purgeInterval = run.purgeInterval;
    trace.reset();
    ckpt::writeLivePoints(trace, dir, spec);
    const ckpt::LivePointStore store = ckpt::LivePointStore::load(dir);

    const std::vector<SampledSweepPoint> reference =
        sweepUnifiedSampled(trace, sizes, base, functional, run);
    trace.reset();
    const std::vector<SampledSweepPoint> restored =
        sweepUnifiedSampled(trace, sizes, base, checkpoint, run, store);

    for (std::size_t i = 0; i < sizes.size(); ++i)
        expectSampledResultsIdentical(restored[i].result,
                                      reference[i].result,
                                      "purge, size " +
                                          std::to_string(sizes[i]));
}

TEST(CheckpointSweep, SplitBitwise)
{
    Trace trace = testTrace("VSPICE");
    const std::vector<std::uint64_t> sizes = {1024, 2048, 4096};
    const CacheConfig base = table1Config(sizes.front());

    const SampleConfig functional =
        sampleTenPercent(WarmingPolicy::Functional);
    const SampleConfig checkpoint =
        sampleTenPercent(WarmingPolicy::Checkpoint);

    const std::string dir = freshDir("lvpt-sweep-split");
    ckpt::LivePointWriteSpec spec = unifiedSpec(sizes, checkpoint);
    spec.split = true;
    trace.reset();
    ckpt::writeLivePoints(trace, dir, spec);
    const ckpt::LivePointStore store = ckpt::LivePointStore::load(dir);

    const std::vector<SplitSampledSweepPoint> reference =
        sweepSplitSampled(trace, sizes, base, functional);
    trace.reset();
    const std::vector<SplitSampledSweepPoint> restored =
        sweepSplitSampled(trace, sizes, base, checkpoint, RunConfig{},
                          store);

    ASSERT_EQ(restored.size(), reference.size());
    for (std::size_t i = 0; i < sizes.size(); ++i) {
        expectSampledResultsIdentical(restored[i].icache,
                                      reference[i].icache,
                                      "split I, size " +
                                          std::to_string(sizes[i]));
        expectSampledResultsIdentical(restored[i].dcache,
                                      reference[i].dcache,
                                      "split D, size " +
                                          std::to_string(sizes[i]));
    }
}

TEST(CheckpointSweep, EarlyStopSkipsTailVerification)
{
    Trace trace = testTrace("ZGREP");
    // Small cache: the per-interval miss ratio is large and stable, so
    // a loose 50% target trips the sequential stopping rule at
    // minIntervals, well before the 12-interval plan is exhausted.
    const std::vector<std::uint64_t> sizes = {256};
    const CacheConfig base = table1Config(sizes.front());

    SampleConfig checkpoint = sampleTenPercent(WarmingPolicy::Checkpoint);
    checkpoint.targetRelativeError = 0.5;

    const std::string dir = freshDir("lvpt-earlystop");
    SampleConfig plan_sample = checkpoint; // same plan parameters
    trace.reset();
    ckpt::writeLivePoints(trace, dir, unifiedSpec(sizes, plan_sample));
    const ckpt::LivePointStore store = ckpt::LivePointStore::load(dir);

    trace.reset();
    const std::vector<SampledSweepPoint> swept = sweepUnifiedSampled(
        trace, sizes, base, checkpoint, RunConfig{}, store);
    EXPECT_TRUE(swept[0].result.stoppedEarly);
}

// ---------------------------------------------------------------- //
//  Compatibility gating                                             //
// ---------------------------------------------------------------- //

TEST(LivePointStore, RejectsMismatchedPlanAndTrace)
{
    Trace trace = testTrace("ZGREP");
    const SampleConfig sample = sampleTenPercent(WarmingPolicy::Checkpoint);
    const std::vector<std::uint64_t> sizes = {1024};
    const CacheConfig base = table1Config(sizes.front());

    const std::string dir = freshDir("lvpt-compat");
    trace.reset();
    ckpt::writeLivePoints(trace, dir, unifiedSpec(sizes, sample));
    const ckpt::LivePointStore store = ckpt::LivePointStore::load(dir);

    // Different plan: unit length changed.
    SampleConfig other_unit = sample;
    other_unit.unitRefs = 2000;
    trace.reset();
    EXPECT_DEATH({
        sweepUnifiedSampled(trace, sizes, base, other_unit, RunConfig{},
                            store);
    }, "incompatible");

    // Different purge schedule.
    RunConfig purge_run;
    purge_run.purgeInterval = kPurgeInterval;
    trace.reset();
    EXPECT_DEATH({
        sweepUnifiedSampled(trace, sizes, base, sample, purge_run, store);
    }, "purge interval");

    // Different trace (name and length differ).
    Trace other = testTrace("VSPICE", kTestRefs / 2);
    EXPECT_DEATH({
        sweepUnifiedSampled(other, sizes, base, sample, RunConfig{},
                            store);
    }, "incompatible");

    // Impostor trace: same name and length, different references —
    // passes the key gate, dies on the content hash.  Serial jobs:
    // this death test actually runs the engines, and pool threads do
    // not survive the death-test fork.
    Trace impostor = testTrace("VSPICE", kTestRefs);
    Trace renamed(trace.name(),
                  std::vector<MemoryRef>(impostor.begin(), impostor.end()));
    RunConfig serial;
    serial.jobs = 1;
    EXPECT_DEATH({
        sweepUnifiedSampled(renamed, sizes, base, sample, serial, store);
    }, "content hash");
}

TEST(LivePointStore, ImpostorCaughtWhenThePlanEndsBeforeTheLastBatch)
{
    // With 4096-reference batches the 12-interval plan ends (at 111000)
    // inside a batch well before the stream's last one, so every engine
    // is done early.  The sweep must still hash the rest of the stream
    // and check it: only a sequential-rule stop may skip the check.
    Trace trace = testTrace("ZGREP");
    const SampleConfig sample = sampleTenPercent(WarmingPolicy::Checkpoint);
    const std::vector<std::uint64_t> sizes = {1024};
    const CacheConfig base = table1Config(sizes.front());
    RunConfig serial; // serial for the same reason as the case above
    serial.jobs = 1;
    serial.batchRefs = 4096;

    const std::string unified_dir = freshDir("lvpt-impostor-unified");
    trace.reset();
    ckpt::writeLivePoints(trace, unified_dir, unifiedSpec(sizes, sample));
    const ckpt::LivePointStore unified =
        ckpt::LivePointStore::load(unified_dir);
    Trace impostor = testTrace("VSPICE", kTestRefs);
    Trace renamed(trace.name(),
                  std::vector<MemoryRef>(impostor.begin(), impostor.end()));
    EXPECT_DEATH({
        sweepUnifiedSampled(renamed, sizes, base, sample, serial, unified);
    }, "content hash");

    // A split store keys on the per-side lengths too, so its impostor
    // keeps every reference kind and moves every address.
    const std::string split_dir = freshDir("lvpt-impostor-split");
    ckpt::LivePointWriteSpec split_spec = unifiedSpec(sizes, sample);
    split_spec.split = true;
    trace.reset();
    ckpt::writeLivePoints(trace, split_dir, split_spec);
    const ckpt::LivePointStore split = ckpt::LivePointStore::load(split_dir);
    std::vector<MemoryRef> moved(trace.begin(), trace.end());
    for (MemoryRef &ref : moved)
        ref.addr += 0x100000;
    Trace shifted(trace.name(), std::move(moved));
    EXPECT_DEATH({
        sweepSplitSampled(shifted, sizes, base, sample, serial, split);
    }, "content hash");
}

TEST(LivePointStore, PlainRunSampledRejectsCheckpointWarming)
{
    const Trace trace = testTrace();
    Cache cache(table1Config(1024));
    EXPECT_DEATH({
        runSampled(trace, cache, sampleTenPercent(WarmingPolicy::Checkpoint));
    }, "live-point store");
}

TEST(LivePointStore, WriterRejectsIneligibleBaseConfig)
{
    Trace trace = testTrace();
    ckpt::LivePointWriteSpec spec = unifiedSpec(
        {1024}, sampleTenPercent(WarmingPolicy::Checkpoint));
    spec.base.replacement = policySpec("random");
    EXPECT_DEATH({
        ckpt::writeLivePoints(trace, freshDir("lvpt-bad"), spec);
    }, "only LRU");
}

// ---------------------------------------------------------------- //
//  Store bytes: pinned files, serial == parallel writer             //
// ---------------------------------------------------------------- //

std::string
fileBytes(const std::filesystem::path &path)
{
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is.good()) << path;
    return {std::istreambuf_iterator<char>(is),
            std::istreambuf_iterator<char>()};
}

/** Every file of store directory @p dir, by name. */
std::map<std::string, std::string>
storeFiles(const std::string &dir)
{
    std::map<std::string, std::string> files;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        files[entry.path().filename().string()] = fileBytes(entry.path());
    return files;
}

/** FNV-1a of every file of store directory @p dir, by name. */
std::map<std::string, std::uint64_t>
storeFileHashes(const std::string &dir)
{
    std::map<std::string, std::uint64_t> hashes;
    for (const auto &[name, bytes] : storeFiles(dir)) {
        std::uint64_t hash = ckpt::kFnvOffset;
        for (const char c : bytes) {
            hash ^= static_cast<unsigned char>(c);
            hash *= 1099511628211ULL;
        }
        hashes[name] = hash;
    }
    return hashes;
}

/**
 * A unified 4-way store with a purge schedule.  64 B is one set of
 * four 16 B lines, so the store holds a fully associative group next
 * to two set-associative ones.
 */
ckpt::LivePointWriteSpec
multiGroupSpec()
{
    ckpt::LivePointWriteSpec spec =
        unifiedSpec({64, 1024, 4096},
                    sampleTenPercent(WarmingPolicy::Checkpoint),
                    kPurgeInterval, 4);
    EXPECT_EQ(spec.purgeInterval, kPurgeInterval);
    return spec;
}

/** A split fully associative store: deep stacks on both sides. */
ckpt::LivePointWriteSpec
splitSpec()
{
    ckpt::LivePointWriteSpec spec = unifiedSpec(
        {512, 2048}, sampleTenPercent(WarmingPolicy::Checkpoint));
    spec.split = true;
    return spec;
}

TEST(LivePointStore, FileBytesArePinned)
{
    // The producer's recency stacks and the file layout, bit for bit.
    // A change to either must bump the store version.
    Trace trace = testTrace("ZSORT");
    const std::string unified = freshDir("lvpt-pin-unified");
    const ckpt::LivePointWriteSummary written =
        ckpt::writeLivePoints(trace, unified, multiGroupSpec());
    EXPECT_EQ(written.groups, 3u);
    const std::map<std::string, std::uint64_t> unified_hashes = {
        {"store.json", 0x76b7ad0ae3347c39ULL},
        {"unified-l16-s1.lvpt", 0x72c88a46362d63ccULL},
        {"unified-l16-s16.lvpt", 0xe3059363fa63b771ULL},
        {"unified-l16-s64.lvpt", 0x8d9aa9768a9a30c2ULL},
    };
    EXPECT_EQ(storeFileHashes(unified), unified_hashes);

    trace.reset();
    const std::string split = freshDir("lvpt-pin-split");
    ckpt::writeLivePoints(trace, split, splitSpec());
    const std::map<std::string, std::uint64_t> split_hashes = {
        {"store.json", 0xaf9fbce581a0fdc0ULL},
        {"icache-l16-s1.lvpt", 0x71432aa89e19769bULL},
        {"dcache-l16-s1.lvpt", 0xf0e9cf16b1d55b45ULL},
    };
    EXPECT_EQ(storeFileHashes(split), split_hashes);
}

TEST(LivePointStore, ParallelWriterMatchesSerialBytes)
{
    // Group writers fan out over a pool when jobs != 1; each group's
    // file must not depend on it.
    for (const bool split : {false, true}) {
        Trace trace = testTrace("ZSORT");
        ckpt::LivePointWriteSpec spec =
            split ? splitSpec() : multiGroupSpec();
        spec.jobs = 1;
        const std::string serial = freshDir("lvpt-jobs1");
        ckpt::writeLivePoints(trace, serial, spec);

        trace.reset();
        spec.jobs = 4;
        const std::string parallel = freshDir("lvpt-jobs4");
        ckpt::writeLivePoints(trace, parallel, spec);

        const auto serial_files = storeFiles(serial);
        EXPECT_EQ(serial_files.size(), split ? 3u : 4u);
        EXPECT_TRUE(serial_files == storeFiles(parallel))
            << (split ? "split" : "unified") << " store differs";
    }
}

/** Overwrite the host-order u64 at byte @p offset of @p path. */
void
pokeU64(const std::string &path, std::streamoff offset, std::uint64_t value)
{
    std::fstream fs(path, std::ios::binary | std::ios::in | std::ios::out);
    fs.seekp(offset);
    fs.write(reinterpret_cast<const char *>(&value), sizeof(value));
    EXPECT_TRUE(fs.good()) << path;
}

/** Set the first integer member @p field of @p dir's store.json. */
void
pokeStoreJson(const std::string &dir, const std::string &field,
              std::uint64_t value)
{
    const std::string path = dir + "/store.json";
    std::string text = fileBytes(path);
    const std::string key = "\"" + field + "\": ";
    const std::size_t at = text.find(key);
    ASSERT_NE(at, std::string::npos) << field;
    const std::size_t begin = at + key.size();
    const std::size_t end = text.find_first_not_of("0123456789", begin);
    text.replace(begin, end - begin, std::to_string(value));
    std::ofstream(path, std::ios::trunc) << text;
}

TEST(LivePointStore, LoadRejectsCountsTheFileCannotHold)
{
    // A count is checked before anything is allocated by it, so a lie
    // is a diagnostic, not std::length_error or std::bad_alloc.  A
    // group file holds its set count at byte 20 and its interval count
    // at byte 32 (both mirrored in store.json); the first image's
    // entry count is at byte 56.
    Trace trace = testTrace();
    const std::string good = freshDir("lvpt-counts");
    ckpt::writeLivePoints(
        trace, good,
        unifiedSpec({1024}, sampleTenPercent(WarmingPolicy::Checkpoint), 0,
                    4));
    const std::string group = "/unified-l16-s16.lvpt";
    constexpr std::uint64_t kLie = std::uint64_t{1} << 62;
    const auto copyOf = [&](const char *leaf) {
        const std::string dir = freshDir(leaf);
        std::filesystem::copy(good, dir);
        return dir;
    };

    const std::string entries = copyOf("lvpt-counts-entries");
    pokeU64(entries + group, 56, kLie);
    EXPECT_EXIT(ckpt::LivePointStore::load(entries),
                testing::ExitedWithCode(1),
                "live points: image declares 4611686018427387904 entries");

    const std::string intervals = copyOf("lvpt-counts-intervals");
    pokeStoreJson(intervals, "intervals", kLie);
    pokeU64(intervals + group, 32, kLie);
    EXPECT_EXIT(ckpt::LivePointStore::load(intervals),
                testing::ExitedWithCode(1),
                "live points: .* declares 4611686018427387904 intervals");

    const std::string sets = copyOf("lvpt-counts-sets");
    pokeStoreJson(sets, "set_count", kLie);
    pokeU64(sets + group, 20, kLie);
    EXPECT_EXIT(ckpt::LivePointStore::load(sets),
                testing::ExitedWithCode(1),
                "live points: .* declares 4611686018427387904 sets");
}

// ---------------------------------------------------------------- //
//  warmToInterval edge cases (incl. the checkpoint overload)        //
// ---------------------------------------------------------------- //

TEST(WarmToInterval, FixedWarmupClampsWhenWarmupExceedsIntervalStart)
{
    const Trace trace = testTrace();
    Cache cache(table1Config(1024));
    SampleConfig config;
    config.warming = WarmingPolicy::FixedWarmup;
    config.warmupRefs = 500;
    const SampleInterval interval{100, 200}; // begin < warmupRefs

    std::uint64_t pos = 0, since_purge = 0, processed = 0;
    warmToInterval(trace, cache, config, 0, interval, pos, since_purge,
                   processed);
    EXPECT_EQ(pos, interval.begin);
    // Clamped to the trace start: exactly `begin` refs replayed.
    EXPECT_EQ(processed, interval.begin);
}

TEST(WarmToInterval, ZeroWarmupIsRejectedByValidation)
{
    SampleConfig config;
    config.warming = WarmingPolicy::FixedWarmup;
    config.warmupRefs = 0;
    EXPECT_DEATH({ config.validate(); }, "warmupRefs");
}

TEST(WarmToInterval, CursorPastIntervalStartPanics)
{
    const Trace trace = testTrace();
    Cache cache(table1Config(1024));
    SampleConfig config;
    config.warming = WarmingPolicy::Functional;
    const SampleInterval interval{100, 200};

    std::uint64_t pos = 150, since_purge = 0, processed = 0;
    EXPECT_DEATH({
        warmToInterval(trace, cache, config, 0, interval, pos, since_purge,
                       processed);
    }, "past interval start");
}

TEST(WarmToInterval, CheckpointNeedsARestorer)
{
    const Trace trace = testTrace();
    Cache cache(table1Config(1024));
    SampleConfig config;
    config.warming = WarmingPolicy::Checkpoint;
    const SampleInterval interval{100, 200};

    std::uint64_t pos = 0, since_purge = 0, processed = 0;
    EXPECT_DEATH({
        warmToInterval(trace, cache, config, 0, interval, pos, since_purge,
                       processed);
    }, "needs a restorer");
}

TEST(WarmToInterval, CheckpointOverloadRestoresInsteadOfReplaying)
{
    const Trace trace = testTrace();
    Cache cache(table1Config(1024));
    SampleConfig config;
    config.warming = WarmingPolicy::Checkpoint;
    const SampleInterval interval{100, 200};

    std::uint64_t pos = 0, since_purge = 0, processed = 0;
    std::size_t restored_idx = ~std::size_t{0};
    warmToInterval(trace, cache, config, 0, interval, std::size_t{7}, pos,
                   since_purge, processed,
                   [&](Cache &, std::size_t idx, std::uint64_t &sp) {
                       restored_idx = idx;
                       sp = 42;
                   });
    EXPECT_EQ(pos, interval.begin);
    EXPECT_EQ(processed, 0u);      // nothing replayed
    EXPECT_EQ(since_purge, 42u);   // the restorer's carry wins
    EXPECT_EQ(restored_idx, 7u);

    // Non-checkpoint policies pass through to the base overload.
    SampleConfig functional;
    functional.warming = WarmingPolicy::Functional;
    std::uint64_t fpos = 0, fsince = 0, fprocessed = 0;
    warmToInterval(trace, cache, functional, 0, interval, std::size_t{0},
                   fpos, fsince, fprocessed,
                   [&](Cache &, std::size_t, std::uint64_t &) {
                       FAIL() << "restorer must not run for Functional";
                   });
    EXPECT_EQ(fpos, interval.begin);
    EXPECT_EQ(fprocessed, interval.begin);
}

} // namespace
} // namespace cachelab
