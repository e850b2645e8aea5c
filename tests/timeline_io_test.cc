/**
 * @file
 * Tests for the miss-ratio timeline and the compressed trace format.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <vector>

#include "cache/cache.hh"
#include "obs/classify.hh"
#include "sim/experiments.hh"
#include "sim/run.hh"
#include "sim/timeline.hh"
#include "trace/io.hh"
#include "workload/profiles.hh"

namespace cachelab
{
namespace
{

// --- timeline -------------------------------------------------------

TEST(Timeline, BucketsCoverWholeTrace)
{
    const Trace t = generateTrace(*findTraceProfile("ZOD"), 25000);
    Cache cache(table1Config(1024));
    const auto buckets = missRatioTimeline(t, cache, 4000);
    ASSERT_EQ(buckets.size(), 7u); // 6 full + 1 short
    std::uint64_t total = 0;
    for (const TimelineBucket &b : buckets)
        total += b.refs;
    EXPECT_EQ(total, t.size());
    EXPECT_EQ(buckets.back().refs, 1000u);
    EXPECT_EQ(buckets[3].startRef, 12000u);
}

TEST(Timeline, ColdStartTransientVisible)
{
    // The first bucket carries the cold-start misses; later buckets
    // are warmer (the §3.2 trace-length caution).
    const Trace t = generateTrace(*findTraceProfile("WATEX"), 120000);
    Cache cache(table1Config(32768));
    const auto buckets = missRatioTimeline(t, cache, 10000);
    ASSERT_GE(buckets.size(), 10u);
    EXPECT_GT(buckets.front().missRatio(),
              2.0 * buckets.back().missRatio());
}

TEST(Timeline, PurgeSpikesEachInterval)
{
    // Tight loop: without purges only the first bucket misses; with a
    // purge at every bucket boundary each bucket restarts cold.
    Trace t("loop");
    for (int i = 0; i < 40000; ++i)
        t.append(0x1000 + (i % 64) * 16, 4, AccessKind::Read);
    Cache purged(table1Config(4096));
    const auto buckets = missRatioTimeline(t, purged, 10000, 10000);
    ASSERT_EQ(buckets.size(), 4u);
    for (const TimelineBucket &b : buckets)
        EXPECT_EQ(b.misses, 64u) << "bucket @" << b.startRef;
}

TEST(Timeline, CumulativeMatchesDirectRun)
{
    const Trace t = generateTrace(*findTraceProfile("VCCOM"), 60000);
    Cache a(table1Config(4096));
    const auto buckets = missRatioTimeline(t, a, 7000);
    const auto cumulative = cumulativeMissRatio(buckets);
    Cache b(table1Config(4096));
    const CacheStats s = runTrace(t, b);
    EXPECT_NEAR(cumulative.back(), s.missRatio(), 1e-12);
    // Cumulative view is defined for every prefix.
    EXPECT_EQ(cumulative.size(), buckets.size());
}

TEST(Timeline, ShortTraceOverstatesLargeCacheMissRatio)
{
    // §3.2 quantified: for a large cache the cumulative miss ratio
    // keeps falling with trace length, so a short trace overstates it.
    const Trace t = generateTrace(*findTraceProfile("FGO1"), 250000);
    Cache cache(table1Config(65536));
    const auto buckets = missRatioTimeline(t, cache, 25000);
    const auto cumulative = cumulativeMissRatio(buckets);
    EXPECT_GT(cumulative[1], cumulative.back() * 1.5);
}

TEST(Timeline, StreamedMatchesMaterializedBucketForBucket)
{
    const TraceProfile &p = *findTraceProfile("ZOD");
    const Trace t = generateTrace(p, 25000);
    Cache a(table1Config(1024));
    const auto materialized = missRatioTimeline(t, a, 4000, 6000);

    const std::unique_ptr<TraceSource> source = streamTrace(p, 25000);
    Cache b(table1Config(1024));
    const auto streamed = missRatioTimeline(*source, b, 4000, 6000);

    ASSERT_EQ(streamed.size(), materialized.size());
    for (std::size_t i = 0; i < streamed.size(); ++i) {
        EXPECT_EQ(streamed[i].startRef, materialized[i].startRef);
        EXPECT_EQ(streamed[i].refs, materialized[i].refs);
        EXPECT_EQ(streamed[i].misses, materialized[i].misses);
    }
}

TEST(Timeline, BatchSizeDoesNotChangeBuckets)
{
    const TraceProfile &p = *findTraceProfile("PLO");
    const std::unique_ptr<TraceSource> big = streamTrace(p, 9000);
    Cache a(table1Config(2048));
    const auto coarse = missRatioTimeline(*big, a, 2500, 0, 4096);

    const std::unique_ptr<TraceSource> tiny = streamTrace(p, 9000);
    Cache b(table1Config(2048));
    const auto fine = missRatioTimeline(*tiny, b, 2500, 0, 1);

    ASSERT_EQ(coarse.size(), fine.size());
    for (std::size_t i = 0; i < coarse.size(); ++i)
        EXPECT_EQ(coarse[i].misses, fine[i].misses);
}

/**
 * The 3C view of a timeline: a MissClassifier with the bucket length,
 * attached to a fresh Table 1 cache of @p cache_bytes, splits each
 * bucket's misses by cause.
 */
template <typename Input>
std::vector<ClassifiedInterval>
classifiedIntervals(Input &input, std::uint64_t cache_bytes,
                    std::uint64_t bucket_refs,
                    std::uint64_t purge_interval = 0)
{
    Cache cache(table1Config(cache_bytes));
    MissClassifier classifier(cache.config(), bucket_refs);
    cache.setProbe(&classifier);
    missRatioTimeline(input, cache, bucket_refs, purge_interval);
    classifier.finalize(cache.accessClock());
    return classifier.intervals();
}

TEST(Timeline, ClassifiedBucketsAgreeWithPlainTimeline)
{
    const TraceProfile &p = *findTraceProfile("ZGREP");
    const Trace t = generateTrace(p, 30000);
    Cache plain(table1Config(1024));
    const auto buckets = missRatioTimeline(t, plain, 5000, 7000);

    const auto intervals = classifiedIntervals(t, 1024, 5000, 7000);
    ASSERT_EQ(intervals.size(), buckets.size());
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        EXPECT_EQ(intervals[i].startRef, buckets[i].startRef);
        EXPECT_EQ(intervals[i].refs, buckets[i].refs);
        EXPECT_EQ(intervals[i].misses, buckets[i].misses);
    }
    // Each interval carries a consistent 3C split; table1Config is
    // fully associative, so no interval may report conflict misses.
    for (const ClassifiedInterval &i : intervals) {
        EXPECT_EQ(i.compulsory + i.capacity + i.conflict, i.misses);
        EXPECT_EQ(i.conflict, 0u);
    }
}

TEST(Timeline, ClassifiedStreamedMatchesClassifiedMaterialized)
{
    const TraceProfile &p = *findTraceProfile("ZOD");
    const Trace t = generateTrace(p, 20000);
    const auto materialized = classifiedIntervals(t, 2048, 4000);

    const std::unique_ptr<TraceSource> source = streamTrace(p, 20000);
    const auto streamed = classifiedIntervals(*source, 2048, 4000);

    ASSERT_EQ(streamed.size(), materialized.size());
    for (std::size_t i = 0; i < streamed.size(); ++i) {
        EXPECT_EQ(streamed[i].misses, materialized[i].misses);
        EXPECT_EQ(streamed[i].compulsory, materialized[i].compulsory);
        EXPECT_EQ(streamed[i].capacity, materialized[i].capacity);
        EXPECT_EQ(streamed[i].conflict, materialized[i].conflict);
    }
}

// --- compressed trace format ----------------------------------------

TEST(CompressedTrace, RoundTripExact)
{
    const Trace t = generateTrace(*findTraceProfile("VSPICE"), 30000);
    std::stringstream ss;
    writeTrace(t, ss, TraceFormat::Compressed);
    const Trace back = readTrace(ss.str(), TraceFormat::Compressed, {});
    ASSERT_EQ(back.size(), t.size());
    EXPECT_EQ(back.name(), t.name());
    for (std::size_t i = 0; i < t.size(); ++i)
        ASSERT_EQ(back[i], t[i]) << "ref " << i;
}

TEST(CompressedTrace, MuchSmallerThanPacked)
{
    const Trace t = generateTrace(*findTraceProfile("MVS1"), 50000);
    std::stringstream packed, compressed;
    writeTrace(t, packed, TraceFormat::Binary);
    writeTrace(t, compressed, TraceFormat::Compressed);
    const auto packed_size = packed.str().size();
    const auto compressed_size = compressed.str().size();
    EXPECT_LT(compressed_size * 3, packed_size)
        << "packed " << packed_size << " vs compressed "
        << compressed_size;
}

TEST(CompressedTrace, HandlesMixedSizes)
{
    Trace t("mixed");
    t.append(0x100, 2, AccessKind::IFetch);
    t.append(0x102, 2, AccessKind::IFetch);
    t.append(0x2000, 8, AccessKind::Read);
    t.append(0x104, 4, AccessKind::IFetch); // size change within kind
    t.append(0x2008, 8, AccessKind::Write);
    std::stringstream ss;
    writeTrace(t, ss, TraceFormat::Compressed);
    const Trace back = readTrace(ss.str(), TraceFormat::Compressed, {});
    ASSERT_EQ(back.size(), t.size());
    for (std::size_t i = 0; i < t.size(); ++i)
        EXPECT_EQ(back[i], t[i]) << "ref " << i;
}

TEST(CompressedTrace, BackwardDeltasSurvive)
{
    // A large negative delta, and reads 2^63 or more apart, whose
    // deltas do not fit a signed 64-bit difference.
    const std::vector<std::vector<Addr>> inputs = {
        {0xffff0000, 0x00000010, 0xffff0000},
        {0xfffffffffffffff0, 0x7ffffffffffffff0, 0x10},
    };
    for (const std::vector<Addr> &addrs : inputs) {
        Trace t("backward");
        for (const Addr addr : addrs)
            t.append(addr, 4, AccessKind::Read);
        std::stringstream ss;
        writeTrace(t, ss, TraceFormat::Compressed);
        const Trace back = readTrace(ss.str(), TraceFormat::Compressed, {});
        ASSERT_EQ(back.size(), 3u);
        for (std::size_t i = 0; i < addrs.size(); ++i)
            EXPECT_EQ(back[i].addr, addrs[i]) << "ref " << i;
    }
}

TEST(CompressedTrace, SaveLoadByExtension)
{
    const Trace t = generateTrace(*findTraceProfile("ZLS"), 5000);
    const std::string path = testing::TempDir() + "/clt_test.ctr";
    saveTrace(t, path, formatForPath(path));
    const Trace back = openTraceSource(path)->materialize();
    EXPECT_EQ(back.size(), t.size());
    EXPECT_EQ(back.name(), "ZLS"); // compressed format embeds the name
    std::remove(path.c_str());
}

TEST(CompressedTrace, RejectsBadMagic)
{
    std::stringstream ss("CLT1....");
    EXPECT_DEATH({ readTrace(ss.str(), TraceFormat::Compressed, {}); }, "bad magic");
}

TEST(CompressedTrace, RejectsTruncation)
{
    const Trace t = generateTrace(*findTraceProfile("ZLS"), 100);
    std::stringstream ss;
    writeTrace(t, ss, TraceFormat::Compressed);
    const std::string whole = ss.str();
    std::stringstream cut(whole.substr(0, whole.size() / 2));
    EXPECT_DEATH({ readTrace(cut.str(), TraceFormat::Compressed, {}); }, "");
}

} // namespace
} // namespace cachelab
