/**
 * @file
 * Acceptance tests for the checkpoint subsystem:
 *
 *  - in-memory cache state: a cache restored midstream through
 *    exportState()/importState() continues bitwise identically to one
 *    that never stopped, for lru, fifo and random under every write
 *    policy and per side of a split organization, and an import into a
 *    scan policy or an admission filter panics;
 *  - live-point restores reproduce the functionally-warmed state of
 *    every associativity a store's groups serve, dirty bits included,
 *    and every image the one-pass writer stores equals that of an
 *    oracle with one independent stack per group;
 *  - checkpoint-warming sampled sweeps are bitwise identical to
 *    functional-warming sweeps, unified and split, with and without a
 *    purge schedule;
 *  - incompatible stores and impostor traces are rejected loudly, and
 *    so are stores of another version, with images off their plan or
 *    entries off their set, and every ineligible configuration; when
 *    every pool worker refuses one at once, the process exits 1 with
 *    one line;
 *  - the trace content hash ignores batch cuts and changes when any
 *    field of one reference changes or two references swap.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <vector>

#include "cache/cache.hh"
#include "cache/organization.hh"
#include "ckpt/live_points.hh"
#include "sample/sampler.hh"
#include "sim/experiments.hh"
#include "sim/run.hh"
#include "sim/sampled.hh"
#include "util/bits.hh"
#include "util/hash.hh"
#include "util/random.hh"
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
//  In-memory state: export/import mid-stream                        //
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

TEST(CacheState, ImportRejectsScanPoliciesAndAdmission)
{
    // Exact state covers only lru, fifo and random without admission,
    // whose whole policy state is the recency order.  The live-point
    // restore checks eligibility first, so no user input gets here.
    std::vector<CacheConfig> configs;
    for (const char *name : {"slru", "lfu", "lfuda", "2q", "arc"}) {
        CacheConfig config = table1Config(1024);
        config.replacement = policySpec(name);
        configs.push_back(config);
    }
    CacheConfig tinylfu = table1Config(1024);
    ASSERT_EQ(parseAdmissionPolicy("tinylfu:counters=64", tinylfu.admission),
              std::nullopt);
    configs.push_back(tinylfu);

    const Trace trace = testTrace();
    for (const CacheConfig &config : configs) {
        Cache warmed(config);
        applyRange(trace, warmed, 0, 5000);
        const CacheState state = warmed.exportState();
        Cache cache(config);
        EXPECT_DEATH({ cache.importState(state); },
                     "panic: cache state import: exact state covers")
            << config.describe();
    }
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
    second.icache().importState(first.icache().exportState());
    second.dcache().importState(first.dcache().exportState());
    for (std::uint64_t i = half; i < trace.size(); ++i)
        second.access(trace[i]);

    EXPECT_TRUE(statsBitwiseEqual(second.icache().stats(),
                                  reference.icache().stats()));
    EXPECT_TRUE(statsBitwiseEqual(second.dcache().stats(),
                                  reference.dcache().stats()));
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

/** A configuration live points cannot serve, and its diagnostic. */
struct IneligibleCase
{
    std::string label;
    CacheConfig config;
    std::string message; ///< regex, matched up to "functional warming"
};

/** @return every ineligible variation of @p base. */
std::vector<IneligibleCase>
ineligibleCases(const CacheConfig &base)
{
    const std::string replacement =
        "live points serve only LRU replacement \\(stack inclusion does "
        "not hold for .*\\) — use functional warming";
    std::vector<IneligibleCase> cases;
    for (const char *name : {"fifo", "random", "arc"}) {
        CacheConfig config = base;
        config.replacement = policySpec(name);
        cases.push_back({name, config, replacement});
    }
    CacheConfig tinylfu = base;
    EXPECT_EQ(parseAdmissionPolicy("tinylfu:counters=64", tinylfu.admission),
              std::nullopt);
    cases.push_back({"lru+tinylfu", tinylfu, replacement});
    CacheConfig prefetch = base;
    prefetch.fetchPolicy = FetchPolicy::PrefetchAlways;
    cases.push_back({"prefetch-always", prefetch,
                     "live points serve only demand fetch \\(prefetching "
                     "makes residency configuration-dependent\\) — use "
                     "functional warming"});
    CacheConfig no_allocate = base;
    no_allocate.writeMiss = WriteMissPolicy::NoAllocate;
    cases.push_back({"no-allocate", no_allocate,
                     "live points serve only fetch-on-write allocation "
                     "\\(no-allocate makes residency depend on the write "
                     "stream shape\\) — use functional warming"});
    return cases;
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
    for (const IneligibleCase &ineligible : ineligibleCases(config)) {
        Cache cache(ineligible.config);
        EXPECT_DEATH({ group.restoreInto(cache, 0, since_purge); },
                     ineligible.message)
            << ineligible.label;
    }

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

    for (std::size_t i = 0; i < sizes.size(); ++i) {
        expectSampledResultsIdentical(restored[i].result,
                                      reference[i].result,
                                      "purge, size " +
                                          std::to_string(sizes[i]));
        // Restored, not replayed: only measured references are applied.
        EXPECT_EQ(restored[i].result.processedRefs,
                  restored[i].result.measuredRefs);
    }
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
    const ckpt::LivePointWriteSpec good = unifiedSpec(
        {1024}, sampleTenPercent(WarmingPolicy::Checkpoint));
    for (const IneligibleCase &ineligible : ineligibleCases(good.base)) {
        ckpt::LivePointWriteSpec spec = good;
        spec.base = ineligible.config;
        EXPECT_DEATH({
            ckpt::writeLivePoints(trace, freshDir("lvpt-bad"), spec);
        }, ineligible.message)
            << ineligible.label;
    }
}

/** Matches text that holds @p needle exactly once. */
class HoldsOnce : public testing::MatcherInterface<const std::string &>
{
  public:
    explicit HoldsOnce(std::string needle) : needle_(std::move(needle)) {}

    bool
    MatchAndExplain(const std::string &text,
                    testing::MatchResultListener *listener) const override
    {
        std::size_t count = 0;
        for (std::size_t at = text.find(needle_); at != std::string::npos;
             at = text.find(needle_, at + 1))
            ++count;
        *listener << "which holds it " << count << " times";
        return count == 1;
    }

    void
    DescribeTo(std::ostream *os) const override
    {
        *os << "holds \"" << needle_ << "\" exactly once";
    }

  private:
    std::string needle_;
};

TEST(WorkerFatal, IneligibleStoreSweepExitsOnceWithOneLine)
{
    // Every pool worker's first restore refuses the arc base at once.
    // The first fatal() must end the process alone: one line, exit 1,
    // and no static destructor running under the other workers.
    Trace trace = testTrace();
    const std::vector<std::uint64_t> sizes = {256,  512,  1024,
                                              2048, 4096, 8192};
    const SampleConfig sample = sampleTenPercent(WarmingPolicy::Checkpoint);
    ckpt::LivePointWriteSpec spec = unifiedSpec(sizes, sample);
    spec.jobs = 1; // no pool threads here: each death test forks
    const std::string dir = freshDir("lvpt-worker-fatal");
    ckpt::writeLivePoints(trace, dir, spec);
    const ckpt::LivePointStore store = ckpt::LivePointStore::load(dir);

    CacheConfig base = table1Config(sizes.front());
    base.replacement = policySpec("arc");
    RunConfig run;
    run.jobs = 4;
    for (int attempt = 0; attempt < 10; ++attempt) {
        trace.reset();
        EXPECT_EXIT(
            sweepUnifiedSampled(trace, sizes, base, sample, run, store),
            testing::ExitedWithCode(1),
            testing::MakeMatcher(new HoldsOnce("only LRU")))
            << "attempt " << attempt;
    }
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
        std::uint64_t hash = kFnvOffset;
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
        {"store.json", 0x37cbe589926a5798ULL},
        {"unified-l16-s1.lvpt", 0x19ccd2eb985f72c3ULL},
        {"unified-l16-s16.lvpt", 0xbd3a862f8b68ad4eULL},
        {"unified-l16-s64.lvpt", 0xc45fe2a301428d8dULL},
    };
    EXPECT_EQ(storeFileHashes(unified), unified_hashes);

    trace.reset();
    const std::string split = freshDir("lvpt-pin-split");
    ckpt::writeLivePoints(trace, split, splitSpec());
    const std::map<std::string, std::uint64_t> split_hashes = {
        {"store.json", 0x7c42df4968b2d3d3ULL},
        {"icache-l16-s1.lvpt", 0xf58e29ff966ebd10ULL},
        {"dcache-l16-s1.lvpt", 0x11923330a4edadceULL},
    };
    EXPECT_EQ(storeFileHashes(split), split_hashes);
}

TEST(LivePointStore, ParallelWriterMatchesSerialBytes)
{
    // A split store's two channels fan out over a pool when jobs != 1
    // (a unified store has one); no file may depend on it.
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

/** Seeded synthetic references, some of which span two lines. */
Trace
spanningTrace(std::uint64_t seed, std::uint32_t line_bytes,
              std::uint64_t refs)
{
    Rng rng(seed);
    const ZipfSampler popularity(3000, 0.9);
    Trace trace("spanning-" + std::to_string(seed));
    for (std::uint64_t i = 0; i < refs; ++i) {
        const Addr line = 0x10000 + popularity(rng) * line_bytes;
        const auto size = static_cast<std::uint32_t>(1u << rng.uniformInt(4));
        const Addr offset = rng.uniformInt(line_bytes);
        const std::uint64_t kind = rng.uniformInt(5);
        trace.append(line + offset, size,
                     kind < 2   ? AccessKind::IFetch
                     : kind < 4 ? AccessKind::Read
                                : AccessKind::Write);
    }
    return trace;
}

/** Images by group: (role, set count). */
using OracleImages = std::map<std::pair<std::string, std::uint64_t>,
                              std::vector<ckpt::LivePointImage>>;

/**
 * The writer's images by brute force: per channel, one independent
 * LruStack per group, fed every line of every reference in turn and
 * captured at every planned interval start.
 */
OracleImages
oracleImages(const Trace &trace, const ckpt::LivePointWriteSpec &spec)
{
    std::vector<std::pair<std::string, std::vector<MemoryRef>>> channels;
    if (spec.split) {
        channels = {{"icache", {}}, {"dcache", {}}};
        for (const MemoryRef &ref : trace)
            channels[ref.kind == AccessKind::IFetch ? 0 : 1].second.push_back(
                ref);
    } else {
        channels = {{"unified", {trace.begin(), trace.end()}}};
    }
    const std::uint32_t line_bytes = spec.base.lineBytes;
    OracleImages images;
    for (const auto &[role, refs] : channels) {
        const std::vector<SampleInterval> plan =
            selectIntervals(refs.size(), spec.sample);
        std::map<std::uint64_t, std::uint64_t> groups; // sets -> bound
        for (const std::uint64_t size : spec.sizes) {
            CacheConfig config = spec.base;
            config.sizeBytes = size;
            std::uint64_t &bound = groups[config.setCount()];
            bound = std::max(bound, config.effectiveAssociativity());
        }
        for (const auto &[sets, bound] : groups) {
            LruStack stack(sets, bound);
            std::vector<ckpt::LivePointImage> &out =
                images[{role, sets}];
            std::uint64_t since_purge = 0;
            for (std::uint64_t pos = 0; out.size() < plan.size(); ++pos) {
                if (pos == plan[out.size()].begin) {
                    ckpt::LivePointImage image;
                    image.begin = pos;
                    image.sincePurge = since_purge;
                    image.setOffsets.push_back(0);
                    for (std::uint64_t s = 0; s < sets; ++s) {
                        stack.forEachMru(s, [&](const LruLine &line) {
                            image.entries.push_back(line);
                        });
                        image.setOffsets.push_back(image.entries.size());
                    }
                    out.push_back(std::move(image));
                    if (out.size() == plan.size())
                        break;
                }
                if (spec.purgeInterval != 0 &&
                    since_purge == spec.purgeInterval) {
                    stack.clear();
                    since_purge = 0;
                }
                const MemoryRef &ref = refs[pos];
                const Addr last =
                    alignDown(ref.addr + ref.size - 1, line_bytes);
                for (Addr line = alignDown(ref.addr, line_bytes);
                     line <= last; line += line_bytes)
                    stack.touch((line / line_bytes) % sets, line,
                                ref.kind == AccessKind::Write);
                ++since_purge;
            }
        }
    }
    return images;
}

TEST(LivePointStore, WriterMatchesOneStackPerGroupOracle)
{
    // Random specs: 16 or 32 B lines, 1 to 8 ways or (every fourth
    // spec) 64 with an s1 group (the smallest size is one set), with and
    // without a purge schedule, unified and split, over references that
    // span two lines.  A 64-way bound is above LruStack::kMaxRowBound,
    // so every group of such a spec keeps a tree behind its row.  Every
    // loaded image must equal the oracle's.
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        Rng rng(seed * 7919);
        const std::uint32_t line_bytes = rng.bernoulli(0.5) ? 16 : 32;
        const auto assoc =
            seed % 4 == 0 ? 64u
                          : static_cast<std::uint32_t>(1u << rng.uniformInt(4));
        const bool split = seed % 3 == 0;
        const std::uint64_t purge =
            split || rng.bernoulli(0.5) ? 0 : 300 + rng.uniformInt(3000);
        std::vector<std::uint64_t> sizes = {line_bytes * assoc};
        for (std::uint64_t k = 1; k <= 8; ++k)
            if (rng.bernoulli(0.6))
                sizes.push_back(std::uint64_t{line_bytes} * assoc << k);
        SampleConfig sample = sampleTenPercent(WarmingPolicy::Checkpoint);
        sample.unitRefs = 500;
        sample.selection = rng.bernoulli(0.5) ? IntervalSelection::Random
                                              : IntervalSelection::Systematic;
        sample.seed = seed;
        ckpt::LivePointWriteSpec spec =
            unifiedSpec(sizes, sample, purge, assoc);
        spec.base.lineBytes = line_bytes;
        spec.split = split;
        SCOPED_TRACE(testing::Message()
                     << "seed " << seed << ": " << line_bytes << " B lines, "
                     << assoc << "-way, " << sizes.size() << " sizes, purge "
                     << purge << (split ? ", split" : ", unified"));

        Trace trace = spanningTrace(seed, line_bytes, 20000);
        EXPECT_TRUE(std::any_of(trace.begin(), trace.end(),
                                [&](const MemoryRef &ref) {
                                    return alignDown(ref.addr, line_bytes) !=
                                           alignDown(ref.addr + ref.size - 1,
                                                     line_bytes);
                                }));
        const OracleImages expected = oracleImages(trace, spec);
        const std::string dir = freshDir("lvpt-oracle");
        const ckpt::LivePointWriteSummary summary =
            ckpt::writeLivePoints(trace, dir, spec);
        EXPECT_EQ(summary.groups, expected.size());
        const ckpt::LivePointStore store = ckpt::LivePointStore::load(dir);
        for (const auto &[key, images] : expected) {
            const auto &[role, sets] = key;
            const std::string name = role + "-s" + std::to_string(sets);
            const ckpt::LivePointGroup &group =
                store.group(role, line_bytes, sets, assoc);
            ASSERT_FALSE(images.empty()) << name;
            for (std::size_t i = 0; i < images.size(); ++i) {
                const ckpt::LivePointImage &got = group.image(i);
                EXPECT_EQ(got.begin, images[i].begin) << name << " " << i;
                EXPECT_EQ(got.sincePurge, images[i].sincePurge)
                    << name << " " << i;
                EXPECT_EQ(got.setOffsets, images[i].setOffsets)
                    << name << " " << i;
                EXPECT_TRUE(got.entries == images[i].entries)
                    << name << " image " << i;
            }
        }
        if (assoc > LruStack::kMaxRowBound) {
            // Some set finer than s1 runs past its row into the tree.
            bool deep = false;
            for (const auto &[key, images] : expected) {
                if (key.second == 1)
                    continue;
                for (const ckpt::LivePointImage &image : images)
                    for (std::size_t s = 0; s < key.second; ++s)
                        deep = deep || image.setOffsets[s + 1] -
                                               image.setOffsets[s] >
                                           LruStack::kTreeRowLines;
            }
            EXPECT_TRUE(deep);
        }
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

/** Overwrite the host-order u32 at byte @p offset of @p path. */
void
pokeU32(const std::string &path, std::streamoff offset, std::uint32_t value)
{
    std::fstream fs(path, std::ios::binary | std::ios::in | std::ios::out);
    fs.seekp(offset);
    fs.write(reinterpret_cast<const char *>(&value), sizeof(value));
    EXPECT_TRUE(fs.good()) << path;
}

/** A copy of store directory @p good at a fresh directory @p leaf. */
std::string
copyStore(const std::string &good, const char *leaf)
{
    const std::string dir = freshDir(leaf);
    std::filesystem::copy(good, dir);
    return dir;
}

TEST(LivePointStore, LoadRejectsImagesOffThePlan)
{
    // The engine purges only when the carry equals the purge interval
    // exactly, so a corrupt carry would silently skip purges.  The
    // first image's begin is at byte 40 of a group file, its carry at
    // byte 48; the plan starts at 0 with a carry of 0.
    Trace trace = testTrace();
    const std::string good = freshDir("lvpt-plan");
    ckpt::writeLivePoints(
        trace, good,
        unifiedSpec({1024}, sampleTenPercent(WarmingPolicy::Checkpoint),
                    kPurgeInterval, 4));
    const std::string group = "/unified-l16-s16.lvpt";

    const std::string carry = copyStore(good, "lvpt-plan-carry");
    pokeU64(carry + group, 48, kPurgeInterval + 5);
    EXPECT_EXIT(ckpt::LivePointStore::load(carry),
                testing::ExitedWithCode(1),
                "live points: .* image 0 carries 20005 references since "
                "the last purge, but the schedule reaches 0 at 0");

    const std::string begin = copyStore(good, "lvpt-plan-begin");
    pokeU64(begin + group, 40, 1000);
    EXPECT_EXIT(ckpt::LivePointStore::load(begin),
                testing::ExitedWithCode(1),
                "live points: .* image 0 begins at 1000, but planned "
                "interval 0 begins at 0");
}

TEST(LivePointStore, LoadRejectsEntriesOffTheirSet)
{
    // A restore imports each entry as a resident line, which
    // Cache::importState() asserts is in its set and held once, and an
    // unaligned address would silently skew results.  So the loader
    // checks every entry.  A group file has a 40-byte header; an image
    // is begin, carry and entry count (u64 each), then per set a u32
    // run of 13-byte entries (u64 line address, u32 maxDepth, u8
    // written).  Image 0 begins at 0 and is empty.
    Trace trace = testTrace();
    const std::string good = freshDir("lvpt-entries");
    ckpt::writeLivePoints(
        trace, good,
        unifiedSpec({1024}, sampleTenPercent(WarmingPolicy::Checkpoint), 0,
                    4));
    const std::string group = "/unified-l16-s16.lvpt";
    constexpr std::uint64_t kSets = 16;
    const std::string bytes = fileBytes(good + group);
    const auto u32At = [&](std::size_t at) {
        std::uint32_t v;
        std::memcpy(&v, bytes.data() + at, sizeof(v));
        return v;
    };
    const auto u64At = [&](std::size_t at) {
        std::uint64_t v;
        std::memcpy(&v, bytes.data() + at, sizeof(v));
        return v;
    };
    ASSERT_EQ(u64At(40), 0u);      // image 0 begins at 0
    ASSERT_EQ(u64At(40 + 16), 0u); // and holds no entries

    // The first set of image 1 that holds two or more lines.
    std::size_t run_at = 40 + 24 + 4 * kSets + 24;
    std::uint64_t set = 0;
    while (set < kSets && u32At(run_at) < 2) {
        run_at += 4 + 13 * u32At(run_at);
        ++set;
    }
    ASSERT_LT(set, kSets);
    const std::size_t entry_at = run_at + 4;
    const Addr line = u64At(entry_at);
    const Addr second = u64At(entry_at + 13);

    const std::string next_set = copyStore(good, "lvpt-entries-set");
    pokeU64(next_set + group, entry_at, line + 16);
    EXPECT_EXIT(ckpt::LivePointStore::load(next_set),
                testing::ExitedWithCode(1),
                "live points: set " + std::to_string(set) + " holds line " +
                    std::to_string(line + 16) + ", which maps to set " +
                    std::to_string((set + 1) % kSets));

    const std::string twice = copyStore(good, "lvpt-entries-twice");
    pokeU64(twice + group, entry_at, second);
    EXPECT_EXIT(ckpt::LivePointStore::load(twice),
                testing::ExitedWithCode(1),
                "live points: set " + std::to_string(set) + " holds line " +
                    std::to_string(second) + " twice");

    const std::string unaligned = copyStore(good, "lvpt-entries-unaligned");
    pokeU64(unaligned + group, entry_at, line + 1);
    EXPECT_EXIT(ckpt::LivePointStore::load(unaligned),
                testing::ExitedWithCode(1),
                "live points: set " + std::to_string(set) +
                    " holds address " + std::to_string(line + 1) +
                    ", not aligned to its 16-byte lines");

    // The checks mask by the header's geometry, so a line size that is
    // not a power of two (the u32 at byte 16, mirrored in store.json)
    // is refused before any image is read.
    const std::string geometry = copyStore(good, "lvpt-entries-geometry");
    pokeStoreJson(geometry, "line_bytes", 24);
    pokeU32(geometry + group, 16, 24);
    EXPECT_EXIT(ckpt::LivePointStore::load(geometry),
                testing::ExitedWithCode(1),
                "live points: .* header \\(24B x 16 sets\\) is not a "
                "power-of-two geometry");
}

TEST(LivePointStore, LoadRejectsVersionOneStores)
{
    // Version 1 hashed trace content byte-wise; its stores are not
    // read, whichever file says so.  The group version is the u32 at
    // byte 4.
    Trace trace = testTrace();
    const std::string good = freshDir("lvpt-version");
    ckpt::writeLivePoints(
        trace, good,
        unifiedSpec({1024}, sampleTenPercent(WarmingPolicy::Checkpoint), 0,
                    4));

    const std::string json = copyStore(good, "lvpt-version-json");
    pokeStoreJson(json, "version", 1);
    EXPECT_EXIT(ckpt::LivePointStore::load(json), testing::ExitedWithCode(1),
                "live points: .*store.json' is version 1, this build reads "
                "version 2");

    const std::string header = copyStore(good, "lvpt-version-header");
    pokeU32(header + "/unified-l16-s16.lvpt", 4, 1);
    EXPECT_EXIT(ckpt::LivePointStore::load(header),
                testing::ExitedWithCode(1),
                "live points: .*lvpt' is version 1, this build reads "
                "version 2");
}

// ---------------------------------------------------------------- //
//  Trace content hash                                               //
// ---------------------------------------------------------------- //

std::uint64_t
contentHash(std::span<const MemoryRef> refs)
{
    return ckpt::hashRefs(ckpt::kContentHashSeed, refs);
}

TEST(ContentHash, BatchCutsDoNotChangeTheHash)
{
    const Trace trace = testTrace("VSPICE", 10000);
    const std::span<const MemoryRef> refs = trace.refs();
    const std::uint64_t whole = contentHash(refs);
    for (const std::size_t batch : {1, 7, 4096}) {
        std::uint64_t hash = ckpt::kContentHashSeed;
        for (std::size_t i = 0; i < refs.size(); i += batch)
            hash = ckpt::hashRefs(
                hash, refs.subspan(i, std::min(batch, refs.size() - i)));
        EXPECT_EQ(hash, whole) << "batches of " << batch;
    }
}

TEST(ContentHash, EveryFieldAndTheOrderCount)
{
    const Trace trace = testTrace("VSPICE", 1000);
    const std::vector<MemoryRef> refs(trace.begin(), trace.end());
    const std::uint64_t original = contentHash(refs);

    std::vector<MemoryRef> changed = refs;
    for (const std::size_t at : {std::size_t{0}, refs.size() / 2,
                                 refs.size() - 1}) {
        MemoryRef &ref = changed[at];
        for (unsigned bit = 0; bit < 64; ++bit) {
            ref.addr ^= Addr{1} << bit;
            EXPECT_NE(contentHash(changed), original)
                << "ref " << at << ", address bit " << bit;
            ref.addr = refs[at].addr;
        }
        for (unsigned bit = 0; bit < 32; ++bit) {
            ref.size ^= std::uint32_t{1} << bit;
            EXPECT_NE(contentHash(changed), original)
                << "ref " << at << ", size bit " << bit;
            ref.size = refs[at].size;
        }
        for (const AccessKind kind :
             {AccessKind::IFetch, AccessKind::Read, AccessKind::Write}) {
            if (kind == refs[at].kind)
                continue;
            ref.kind = kind;
            EXPECT_NE(contentHash(changed), original)
                << "ref " << at << " as " << toString(kind);
        }
        ref.kind = refs[at].kind;
    }
    ASSERT_EQ(changed, refs);

    std::size_t swaps = 0;
    for (std::size_t i = 0; i + 1 < refs.size(); ++i) {
        if (refs[i] == refs[i + 1])
            continue;
        std::swap(changed[i], changed[i + 1]);
        EXPECT_NE(contentHash(changed), original) << "swap at " << i;
        std::swap(changed[i], changed[i + 1]);
        ++swaps;
    }
    EXPECT_GT(swaps, 900u);
}

TEST(ContentHash, IsPinned)
{
    // Every store records this hash; a change to it must bump the
    // store version.
    const std::vector<MemoryRef> refs = {
        {0x1000, 4, AccessKind::IFetch},
        {0xdeadbeef, 8, AccessKind::Write},
        {~Addr{0}, 1, AccessKind::Read},
    };
    EXPECT_EQ(contentHash(refs), 0x47d6c2dbf280f1dcULL);
}

} // namespace
} // namespace cachelab
