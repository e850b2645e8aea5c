/**
 * @file
 * 3C miss-classification tests.  The central invariant — ISSUE.md's
 * acceptance criterion — is that compulsory + capacity + conflict
 * equals the simulated miss count exactly, on every corpus trace, for
 * direct-mapped, set-associative and fully-associative geometries,
 * whether the trace is materialized or streamed; and that a fully
 * associative cache reports zero conflict misses (the shadow *is* the
 * cache, so any miss it would also take is capacity or compulsory by
 * definition).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/cache.hh"
#include "obs/classify.hh"
#include "obs/metrics.hh"
#include "sim/experiments.hh"
#include "sim/run.hh"
#include "trace/source.hh"
#include "workload/profiles.hh"

namespace cachelab
{
namespace
{

constexpr std::uint64_t kRefs = 20000;

/**
 * Sizes of the corpus loops.  At 16 B lines, 2 KiB shadows in the LRU
 * stack's tree layout and 256 B (16 lines) in its row layout.
 */
constexpr std::uint64_t kCorpusSizes[] = {2048, 256};

CacheConfig
geometry(std::uint32_t assoc, std::uint64_t size_bytes = 2048)
{
    CacheConfig cfg = table1Config(size_bytes);
    cfg.associativity = assoc; // 0 = fully associative
    cfg.validate();
    return cfg;
}

void
expectInvariant(const ClassifiedTotals &c, const CacheStats &stats,
                std::uint32_t assoc, const std::string &tag)
{
    EXPECT_EQ(c.misses, stats.totalMisses()) << tag;
    EXPECT_EQ(c.compulsory + c.capacity + c.conflict, c.misses) << tag;
    if (assoc == 0) {
        EXPECT_EQ(c.conflict, 0u) << tag << ": FA cache saw conflicts";
    }
}

TEST(MissClassification, InvariantHoldsAcrossCorpusMaterialized)
{
    for (const TraceProfile &profile : allTraceProfiles()) {
        const Trace t = generateTrace(profile, kRefs);
        for (const std::uint64_t size : kCorpusSizes) {
            for (const std::uint32_t assoc : {1u, 2u, 4u, 0u}) {
                Cache cache(geometry(assoc, size));
                MissClassifier classifier(cache.config());
                cache.setProbe(&classifier);
                const CacheStats stats = runTrace(t, cache);
                classifier.finalize(cache.accessClock());
                expectInvariant(classifier.totals(), stats, assoc,
                                profile.name + "/" + std::to_string(size) +
                                    "B/assoc=" + std::to_string(assoc));
            }
        }
    }
}

TEST(MissClassification, InvariantHoldsAcrossCorpusStreamed)
{
    for (const TraceProfile &profile : allTraceProfiles()) {
        for (const std::uint64_t size : kCorpusSizes) {
            for (const std::uint32_t assoc : {1u, 2u, 4u, 0u}) {
                const std::unique_ptr<TraceSource> source =
                    streamTrace(profile, kRefs);
                Cache cache(geometry(assoc, size));
                MissClassifier classifier(cache.config());
                cache.setProbe(&classifier);
                const CacheStats stats = runTrace(*source, cache);
                classifier.finalize(cache.accessClock());
                expectInvariant(classifier.totals(), stats, assoc,
                                profile.name + "/streamed/" +
                                    std::to_string(size) + "B/assoc=" +
                                    std::to_string(assoc));
            }
        }
    }
}

TEST(MissClassification, StreamedTotalsMatchMaterialized)
{
    const TraceProfile &profile = *findTraceProfile("ZGREP");
    for (const std::uint32_t assoc : {1u, 0u}) {
        Cache materialized(geometry(assoc));
        MissClassifier mc(materialized.config());
        materialized.setProbe(&mc);
        runTrace(generateTrace(profile, kRefs), materialized);
        mc.finalize(materialized.accessClock());

        const std::unique_ptr<TraceSource> source =
            streamTrace(profile, kRefs);
        Cache streamed(geometry(assoc));
        MissClassifier sc(streamed.config());
        streamed.setProbe(&sc);
        runTrace(*source, streamed);
        sc.finalize(streamed.accessClock());

        EXPECT_EQ(mc.totals().misses, sc.totals().misses);
        EXPECT_EQ(mc.totals().compulsory, sc.totals().compulsory);
        EXPECT_EQ(mc.totals().capacity, sc.totals().capacity);
        EXPECT_EQ(mc.totals().conflict, sc.totals().conflict);
    }
}

TEST(MissClassification, CompulsoryEqualsDistinctLinesTouched)
{
    // On a first pass with no purges every distinct line misses
    // exactly once compulsorily, whatever the geometry.
    const Trace t = generateTrace(*findTraceProfile("VSPICE"), kRefs);
    for (const std::uint32_t assoc : {1u, 0u}) {
        Cache cache(geometry(assoc));
        MissClassifier classifier(cache.config());
        cache.setProbe(&classifier);
        runTrace(t, cache);
        classifier.finalize(cache.accessClock());
        EXPECT_EQ(classifier.totals().compulsory,
                  classifier.distinctLines());
    }
}

TEST(MissClassification, IntervalsSumToTotals)
{
    const Trace t = generateTrace(*findTraceProfile("VEDT"), kRefs);
    Cache cache(geometry(2));
    MissClassifier classifier(cache.config(), /*interval_refs=*/1024);
    cache.setProbe(&classifier);
    runTrace(t, cache);
    classifier.finalize(cache.accessClock());

    ClassifiedTotals sum;
    std::uint64_t refs = 0;
    std::uint64_t expect_start = 0;
    for (const ClassifiedInterval &i : classifier.intervals()) {
        EXPECT_EQ(i.startRef, expect_start);
        expect_start += i.refs;
        refs += i.refs;
        sum.misses += i.misses;
        sum.compulsory += i.compulsory;
        sum.capacity += i.capacity;
        sum.conflict += i.conflict;
        EXPECT_EQ(i.compulsory + i.capacity + i.conflict, i.misses);
    }
    EXPECT_EQ(refs, cache.accessClock());
    EXPECT_EQ(sum.misses, classifier.totals().misses);
    EXPECT_EQ(sum.compulsory, classifier.totals().compulsory);
    EXPECT_EQ(sum.capacity, classifier.totals().capacity);
    EXPECT_EQ(sum.conflict, classifier.totals().conflict);
}

TEST(MissClassification, PurgesPreserveInvariant)
{
    // Purges empty the shadow alongside the cache but keep the
    // compulsory directory: a re-fetch after a purge is capacity or
    // conflict, never compulsory again.
    const Trace t = generateTrace(*findTraceProfile("ZGREP"), kRefs);
    RunConfig run;
    run.purgeInterval = 2500;
    for (const std::uint32_t assoc : {1u, 0u}) {
        Cache cache(geometry(assoc));
        MissClassifier classifier(cache.config());
        cache.setProbe(&classifier);
        const CacheStats stats = runTrace(t, cache, run);
        classifier.finalize(cache.accessClock());
        expectInvariant(classifier.totals(), stats, assoc, "purged");
        EXPECT_GT(stats.purges, 0u);
        EXPECT_GT(classifier.totals().capacity + classifier.totals().conflict,
                  0u)
            << "purge re-fetches must not count as compulsory";
        EXPECT_EQ(classifier.totals().compulsory,
                  classifier.distinctLines());
    }
}

TEST(MissClassification, NoAllocateWriteMissesStayClassified)
{
    // Write misses that bypass allocation still count as misses and
    // must not warm the shadow (the real cache did not fill either).
    CacheConfig cfg = geometry(1);
    cfg.writePolicy = WritePolicy::WriteThrough;
    cfg.writeMiss = WriteMissPolicy::NoAllocate;
    cfg.validate();
    const Trace t = generateTrace(*findTraceProfile("ZOD"), kRefs);
    Cache cache(cfg);
    MissClassifier classifier(cfg);
    cache.setProbe(&classifier);
    const CacheStats stats = runTrace(t, cache);
    classifier.finalize(cache.accessClock());
    EXPECT_EQ(classifier.totals().misses, stats.totalMisses());
    EXPECT_EQ(classifier.totals().compulsory + classifier.totals().capacity +
                  classifier.totals().conflict,
              classifier.totals().misses);
}

TEST(MissClassification, PrefetchingFullyAssociativeHasNoConflicts)
{
    const Trace t = generateTrace(*findTraceProfile("WATEX"), kRefs);
    Cache cache(table1Config(2048, FetchPolicy::PrefetchAlways));
    MissClassifier classifier(cache.config());
    cache.setProbe(&classifier);
    const CacheStats stats = runTrace(t, cache);
    classifier.finalize(cache.accessClock());
    expectInvariant(classifier.totals(), stats, 0, "prefetch");
}

TEST(MissClassification, DirectMappedSeesConflictsSmallFootprintDoesNot)
{
    // A footprint that fits the cache produces conflict misses under
    // direct mapping when lines collide, and the FA shadow proves they
    // were avoidable.  Construct the classic ping-pong: two lines in
    // the same set of a direct-mapped cache.
    CacheConfig cfg;
    cfg.sizeBytes = 64; // 4 lines of 16
    cfg.lineBytes = 16;
    cfg.associativity = 1;
    cfg.validate();
    Cache cache(cfg);
    MissClassifier classifier(cfg);
    cache.setProbe(&classifier);
    for (int i = 0; i < 8; ++i) {
        cache.access(MemoryRef{i % 2 ? 0x100u : 0x0u, 4, AccessKind::Read});
    }
    classifier.finalize(cache.accessClock());
    const ClassifiedTotals &c = classifier.totals();
    EXPECT_EQ(c.misses, 8u);
    EXPECT_EQ(c.compulsory, 2u);
    EXPECT_EQ(c.conflict, 6u); // both fit a 4-line FA cache
    EXPECT_EQ(c.capacity, 0u);
}

TEST(MissClassification, PublishesCountersIntoRegistry)
{
    const Trace t = generateTrace(*findTraceProfile("ZOD"), 5000);
    Cache cache(geometry(2));
    MissClassifier classifier(cache.config());
    cache.setProbe(&classifier);
    runTrace(t, cache);
    classifier.finalize(cache.accessClock());

    obs::Registry registry;
    classifier.publish(registry, {{"trace", "ZOD"}});
    const auto snap = registry.snapshot();
    EXPECT_EQ(snap.counterValue(
                  obs::Registry::key("classify.misses", {{"trace", "ZOD"}})),
              classifier.totals().misses);
    EXPECT_EQ(snap.counterValue(obs::Registry::key("classify.compulsory",
                                                   {{"trace", "ZOD"}})),
              classifier.totals().compulsory);
}

} // namespace
} // namespace cachelab
