/**
 * @file
 * Streaming-pipeline acceptance tests (ISSUE 4): the TraceSource API
 * and every out-of-core driver must be *bitwise* equivalent to the
 * materialized paths over the same reference sequence.
 *
 * Covered:
 *  - the TraceSource contract on the packaged sources (Trace,
 *    MemorySource, LimitSource), including chunk sizes
 *    of 1, an odd prime, and larger than the stream;
 *  - file round-trips streamed through all three TraceFormats,
 *    including the mmap CLT1 fast path and streaming saveTrace();
 *  - streamed synthetic workloads vs generateTrace();
 *  - InterleaveSource vs the materialized round-robin transform;
 *  - analyzeTrace(), runTrace(), every SweepEngine of
 *    sweepUnified()/sweepSplit(), runSampled(), and the sampled
 *    sweeps — streamed vs materialized;
 *  - the unknown-length fallback (counting pass) for sampled runs,
 *    and the split sampled sweep stopping its reads once both sides'
 *    plans are done;
 *  - progress credit: every driven reference counted exactly once;
 *  - the whole-run warm-up rule (fatal when nothing would be
 *    measured) on both driver flavours, and size and single-pass
 *    shape checks that fire before any input is read.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "cache/organization.hh"
#include "cache/stack_analysis.hh"
#include "obs/progress.hh"
#include "sample/sampler.hh"
#include "sim/experiments.hh"
#include "sim/run.hh"
#include "sim/sampled.hh"
#include "sim/sweep.hh"
#include "trace/analyzer.hh"
#include "trace/io.hh"
#include "trace/source.hh"
#include "trace/trace.hh"
#include "trace/transforms.hh"
#include "util/logging.hh"
#include "workload/profiles.hh"

namespace cachelab
{
namespace
{

constexpr std::uint64_t kTestRefs = 100000;

bool
statsBitwiseEqual(const CacheStats &a, const CacheStats &b)
{
    return std::memcmp(&a, &b, sizeof(CacheStats)) == 0;
}

Trace
testTrace(const char *profile_name = "ZGREP",
          std::uint64_t refs = kTestRefs)
{
    const TraceProfile *profile = findTraceProfile(profile_name);
    EXPECT_NE(profile, nullptr);
    return generateTrace(*profile, refs);
}

void
expectSameRefs(const Trace &got, const Trace &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
        ASSERT_EQ(got[i], want[i]) << "ref " << i;
}

/** Wrapper that hides the inner source's length and random access,
 *  forcing consumers down the unknown-length / decode-to-skip path. */
class HideLength : public TraceSource
{
  public:
    explicit HideLength(const Trace &trace)
        : inner_(trace.refs(), trace.name())
    {}

    const std::string &name() const override { return inner_.name(); }
    std::size_t
    nextBatch(std::span<MemoryRef> out) override
    {
        return inner_.nextBatch(out);
    }
    void reset() override { inner_.reset(); }
    // knownLength() stays kUnknownLength; skip() stays the decoding
    // default.

  private:
    MemorySource inner_;
};

std::string
tempPath(const char *leaf)
{
    return (std::filesystem::path(::testing::TempDir()) / leaf).string();
}

// ---------------------------------------------------------------------
// TraceSource contract
// ---------------------------------------------------------------------

TEST(TraceSourceContract, TraceIsATrivialSource)
{
    Trace trace = testTrace("ZGREP", 1000);
    EXPECT_TRUE(trace.lengthKnown());
    EXPECT_EQ(trace.knownLength(), trace.size());

    std::vector<MemoryRef> buf(7);
    std::vector<MemoryRef> seen;
    while (const std::size_t got = trace.nextBatch(buf))
        seen.insert(seen.end(), buf.begin(),
                    buf.begin() + static_cast<std::ptrdiff_t>(got));
    EXPECT_EQ(trace.nextBatch(buf), 0u); // stays exhausted
    ASSERT_EQ(seen.size(), trace.size());
    for (std::size_t i = 0; i < seen.size(); ++i)
        ASSERT_EQ(seen[i], trace[i]);

    trace.reset();
    const Trace again = trace.materialize();
    expectSameRefs(again, trace);
}

TEST(TraceSourceContract, ChunkBoundaries)
{
    const Trace trace = testTrace("VSPICE", 997); // prime length
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{13},
                                    std::size_t{997}, std::size_t{5000}}) {
        MemorySource source(trace.refs(), "chunks");
        std::vector<MemoryRef> buf(chunk);
        std::vector<MemoryRef> seen;
        while (const std::size_t got = source.nextBatch(buf))
            seen.insert(seen.end(), buf.begin(),
                        buf.begin() + static_cast<std::ptrdiff_t>(got));
        ASSERT_EQ(seen.size(), trace.size()) << "chunk " << chunk;
        for (std::size_t i = 0; i < seen.size(); ++i)
            ASSERT_EQ(seen[i], trace[i]) << "chunk " << chunk;
    }
}

TEST(TraceSourceContract, SkipReturnsActualCount)
{
    const Trace trace = testTrace("ZGREP", 100);
    MemorySource source(trace.refs(), "skip");
    EXPECT_EQ(source.skip(30), 30u);
    std::vector<MemoryRef> buf(1);
    ASSERT_EQ(source.nextBatch(buf), 1u);
    EXPECT_EQ(buf[0], trace[30]);
    EXPECT_EQ(source.skip(1000), 69u); // only 69 remain
    EXPECT_EQ(source.nextBatch(buf), 0u);
    source.reset();
    EXPECT_EQ(source.skip(100), 100u);

    // The default (decode-and-discard) skip obeys the same contract.
    HideLength hidden(trace);
    EXPECT_EQ(hidden.skip(30), 30u);
    ASSERT_EQ(hidden.nextBatch(buf), 1u);
    EXPECT_EQ(buf[0], trace[30]);
    EXPECT_EQ(hidden.skip(1000), 69u);
}

TEST(TraceSourceContract, LimitAndOffsetSources)
{
    const Trace trace = testTrace("ZGREP", 500);

    LimitSource limited(
        std::make_unique<MemorySource>(trace.refs(), "inner"), 123);
    EXPECT_EQ(limited.knownLength(), 123u);
    Trace head = limited.materialize();
    ASSERT_EQ(head.size(), 123u);
    for (std::size_t i = 0; i < head.size(); ++i)
        ASSERT_EQ(head[i], trace[i]);
    limited.reset();
    expectSameRefs(limited.materialize(), head);
}

// ---------------------------------------------------------------------
// File formats streamed
// ---------------------------------------------------------------------

TEST(StreamingIo, RoundTripAllFormats)
{
    // 200k references span many pages in every format, so batches end
    // mid-page and the source drops the pages behind its cursor.
    const Trace trace = testTrace("VSPICE", 200000);
    for (const TraceFormat format : {TraceFormat::Din, TraceFormat::Binary,
                                     TraceFormat::Compressed}) {
        const std::string path =
            tempPath("stream_roundtrip.trace");
        saveTrace(trace, path, format);

        auto source = openTraceSource(path, format);
        ASSERT_NE(source, nullptr) << toString(format);
        EXPECT_TRUE(source->lengthKnown()) << toString(format);
        EXPECT_EQ(source->knownLength(), trace.size()) << toString(format);
        expectSameRefs(source->materialize(), trace);

        // reset() supports a second full pass.
        source->reset();
        expectSameRefs(source->materialize(), trace);

        // Every batch size reads the same references, each pass after a
        // reset() that follows a partial read: the dropped pages
        // re-fault.
        for (const std::size_t batch : {std::size_t{1}, std::size_t{7},
                                        std::size_t{4096}}) {
            std::vector<MemoryRef> buf(batch);
            source->reset();
            for (std::uint64_t read = 0; read < trace.size() / 2;) {
                const std::size_t got = source->nextBatch(buf);
                ASSERT_NE(got, 0u) << toString(format);
                read += got;
            }
            source->reset();
            std::vector<MemoryRef> seen;
            while (const std::size_t got = source->nextBatch(buf))
                seen.insert(seen.end(), buf.begin(),
                            buf.begin() + static_cast<std::ptrdiff_t>(got));
            ASSERT_EQ(seen.size(), trace.size())
                << toString(format) << " batch " << batch;
            for (std::size_t i = 0; i < seen.size(); ++i)
                ASSERT_EQ(seen[i], trace[i])
                    << toString(format) << " batch " << batch;
        }

        // skip() then read resumes at the right reference, also after a
        // skip across many pages.
        source->reset();
        EXPECT_EQ(source->skip(1234), 1234u) << toString(format);
        std::vector<MemoryRef> buf(1);
        ASSERT_EQ(source->nextBatch(buf), 1u) << toString(format);
        EXPECT_EQ(buf[0], trace[1234]) << toString(format);
        EXPECT_EQ(source->skip(100000), 100000u) << toString(format);
        ASSERT_EQ(source->nextBatch(buf), 1u) << toString(format);
        EXPECT_EQ(buf[0], trace[101235]) << toString(format);
        std::filesystem::remove(path);
    }
}

TEST(StreamingIo, StreamingSaveMatchesMaterializedSave)
{
    const Trace trace = testTrace("ZGREP", 3000);
    for (const TraceFormat format : {TraceFormat::Din, TraceFormat::Binary,
                                     TraceFormat::Compressed}) {
        const std::string materialized_path = tempPath("save_mat.trace");
        const std::string streamed_path = tempPath("save_stream.trace");
        saveTrace(trace, materialized_path, format);

        Trace copy = trace; // a Trace is its own TraceSource
        saveTrace(static_cast<TraceSource &>(copy), streamed_path, format);

        std::ifstream a(materialized_path, std::ios::binary);
        std::ifstream b(streamed_path, std::ios::binary);
        const std::string bytes_a(std::istreambuf_iterator<char>(a), {});
        const std::string bytes_b(std::istreambuf_iterator<char>(b), {});
        EXPECT_EQ(bytes_a, bytes_b) << toString(format);
        std::filesystem::remove(materialized_path);
        std::filesystem::remove(streamed_path);
    }
}

TEST(StreamingIo, DinWithoutLengthHintStreamsWithUnknownLength)
{
    const std::string path = tempPath("no_hint.din");
    {
        std::ofstream os(path);
        os << "# hand-written, no refs hint\n"
           << "2 1000 4\n"
           << "1 2000 8\n"
           << "0 1008 2\n";
    }
    auto source = openTraceSource(path);
    ASSERT_NE(source, nullptr);
    EXPECT_FALSE(source->lengthKnown());
    const Trace got = source->materialize();
    ASSERT_EQ(got.size(), 3u);
    EXPECT_EQ(got[0], (MemoryRef{0x1000, 4, AccessKind::IFetch}));
    EXPECT_EQ(got[1], (MemoryRef{0x2000, 8, AccessKind::Write}));
    EXPECT_EQ(got[2], (MemoryRef{0x1008, 2, AccessKind::Read}));
    std::filesystem::remove(path);
}

// ---------------------------------------------------------------------
// Streamed workload generation and transforms
// ---------------------------------------------------------------------

TEST(StreamingWorkload, GeneratorStreamMatchesMaterialized)
{
    for (const char *name : {"ZGREP", "VSPICE", "MVS1"}) {
        const TraceProfile *profile = findTraceProfile(name);
        ASSERT_NE(profile, nullptr);
        const Trace materialized = generateTrace(*profile, 20000);

        auto source = streamTrace(*profile, 20000);
        ASSERT_NE(source, nullptr);
        EXPECT_TRUE(source->lengthKnown()) << name;
        EXPECT_EQ(source->knownLength(), materialized.size()) << name;
        expectSameRefs(source->materialize(), materialized);

        // reset() re-seeds deterministically.
        source->reset();
        expectSameRefs(source->materialize(), materialized);
    }
}

TEST(StreamingWorkload, InterleaveSourceMatchesMaterialized)
{
    const TraceProfile *a = findTraceProfile("ZGREP");
    const TraceProfile *b = findTraceProfile("VSPICE");
    const TraceProfile *c = findTraceProfile("MVS1");
    ASSERT_TRUE(a && b && c);
    // Deliberately unequal lengths so children drop out mid-stream.
    const std::vector<Trace> traces = {generateTrace(*a, 1000),
                                       generateTrace(*b, 1777),
                                       generateTrace(*c, 2500)};

    for (const std::uint64_t quantum : {std::uint64_t{1}, std::uint64_t{100},
                                        std::uint64_t{333}}) {
        for (const std::uint64_t cap : {std::uint64_t{0},
                                        std::uint64_t{3210}}) {
            const Trace materialized =
                interleaveRoundRobin(traces, quantum, "mix", cap);

            std::vector<std::unique_ptr<TraceSource>> children;
            children.push_back(streamTrace(*a, 1000));
            children.push_back(streamTrace(*b, 1777));
            children.push_back(streamTrace(*c, 2500));
            InterleaveSource source(std::move(children), quantum, "mix",
                                    cap);
            EXPECT_EQ(source.knownLength(), materialized.size())
                << "quantum " << quantum << " cap " << cap;
            expectSameRefs(source.materialize(), materialized);
        }
    }
}

// ---------------------------------------------------------------------
// Streamed analysis and simulation drivers
// ---------------------------------------------------------------------

TEST(StreamingDrivers, AnalyzerMatchesMaterialized)
{
    const Trace trace = testTrace("ZGREP");
    const TraceCharacteristics want = analyzeTrace(trace);

    MemorySource source(trace.refs(), trace.name());
    const TraceCharacteristics got =
        analyzeTrace(static_cast<TraceSource &>(source));

    EXPECT_EQ(got.refCount, want.refCount);
    EXPECT_EQ(got.ifetchFraction, want.ifetchFraction);
    EXPECT_EQ(got.readFraction, want.readFraction);
    EXPECT_EQ(got.writeFraction, want.writeFraction);
    EXPECT_EQ(got.ilines, want.ilines);
    EXPECT_EQ(got.dlines, want.dlines);
    EXPECT_EQ(got.aspaceBytes, want.aspaceBytes);
    EXPECT_EQ(got.branchFraction, want.branchFraction);
    EXPECT_EQ(got.sequentialRuns.total(), want.sequentialRuns.total());
    EXPECT_EQ(got.sequentialRuns.mean(), want.sequentialRuns.mean());
    EXPECT_EQ(got.meanSequentialRunBytes, want.meanSequentialRunBytes);
}

TEST(StreamingDrivers, RunTraceBitwiseAcrossConfigs)
{
    const Trace trace = testTrace("VSPICE");

    struct Case
    {
        const char *label;
        RunConfig run;
    };
    const Case cases[] = {
        {"plain", {}},
        {"purge", {.purgeInterval = kPurgeInterval}},
        {"warmup", {.warmupRefs = 5000}},
        {"batch1", {.batchRefs = 1}},
        {"batch_odd", {.purgeInterval = kPurgeInterval,
                       .warmupRefs = 5000, .batchRefs = 7919}},
    };
    for (const Case &c : cases) {
        Cache reference_cache(table1Config(4096));
        const CacheStats want = runTrace(trace, reference_cache, c.run);

        Cache streamed_cache(table1Config(4096));
        MemorySource source(trace.refs(), trace.name());
        const CacheStats got = runTrace(static_cast<TraceSource &>(source),
                                        streamed_cache, c.run);
        EXPECT_TRUE(statsBitwiseEqual(got, want)) << c.label;
    }
}

TEST(StreamingDrivers, SweepUnifiedBitwiseForEveryEngine)
{
    const Trace trace = testTrace("ZGREP", 50000);
    const std::vector<std::uint64_t> sizes = {256, 1024, 4096};
    const CacheConfig base = table1Config(256);

    for (const SweepEngine engine :
         {SweepEngine::Auto, SweepEngine::PerSize, SweepEngine::SinglePass,
          SweepEngine::Verify}) {
        RunConfig run;
        run.batchRefs = 4099; // odd, not a divisor of the length
        const std::vector<SweepPoint> want =
            sweepUnified(trace, sizes, base, run, engine);

        MemorySource source(trace.refs(), trace.name());
        const std::vector<SweepPoint> got = sweepUnified(
            static_cast<TraceSource &>(source), sizes, base, run, engine);

        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(got[i].cacheBytes, want[i].cacheBytes);
            EXPECT_TRUE(statsBitwiseEqual(got[i].stats, want[i].stats))
                << "engine " << static_cast<int>(engine) << " size "
                << sizes[i];
        }
    }
}

TEST(StreamingDrivers, SweepUnifiedPerSizeWithPurgeAndParallelism)
{
    const Trace trace = testTrace("MVS1", 50000);
    const std::vector<std::uint64_t> sizes = {256, 1024, 4096};
    const CacheConfig base = table1Config(256);
    RunConfig run;
    run.purgeInterval = kPurgeInterval; // forces the per-size engine
    run.jobs = 0;                       // shared pool fan-out
    run.batchRefs = 1021;

    const std::vector<SweepPoint> want =
        sweepUnified(trace, sizes, base, run);
    MemorySource source(trace.refs(), trace.name());
    const std::vector<SweepPoint> got =
        sweepUnified(static_cast<TraceSource &>(source), sizes, base, run);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
        EXPECT_TRUE(statsBitwiseEqual(got[i].stats, want[i].stats))
            << "size " << sizes[i];
}

TEST(StreamingDrivers, SweepSplitBitwiseForEveryEngine)
{
    const Trace trace = testTrace("VSPICE", 50000);
    const std::vector<std::uint64_t> sizes = {256, 1024, 4096};
    const CacheConfig base = table1Config(256);

    for (const SweepEngine engine :
         {SweepEngine::Auto, SweepEngine::PerSize, SweepEngine::SinglePass,
          SweepEngine::Verify}) {
        RunConfig run;
        run.batchRefs = 4099;
        const std::vector<SplitSweepPoint> want =
            sweepSplit(trace, sizes, base, run, engine);

        MemorySource source(trace.refs(), trace.name());
        const std::vector<SplitSweepPoint> got = sweepSplit(
            static_cast<TraceSource &>(source), sizes, base, run, engine);

        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(got[i].cacheBytes, want[i].cacheBytes);
            EXPECT_TRUE(statsBitwiseEqual(got[i].icache, want[i].icache))
                << "engine " << static_cast<int>(engine) << " icache "
                << sizes[i];
            EXPECT_TRUE(statsBitwiseEqual(got[i].dcache, want[i].dcache))
                << "engine " << static_cast<int>(engine) << " dcache "
                << sizes[i];
        }
    }
}

TEST(StreamingDrivers, ProgressCreditsEveryDrivenReferenceOnce)
{
    // The length is not a multiple of the 64 Ki default span, so a
    // driver that credited only whole spans would fall short.
    const Trace trace = testTrace("VSPICE");
    const std::uint64_t n = trace.size();
    ASSERT_NE(n % TraceSource::kDefaultBatchRefs, 0u);
    obs::ProgressMeter &meter = obs::ProgressMeter::global();
    meter.setSink([](const std::string &) {});
    meter.start(0, "test");

    std::uint64_t before = meter.processed();
    Cache materialized(table1Config(4096));
    runTrace(trace, materialized);
    EXPECT_EQ(meter.processed() - before, n) << "materialized runTrace";

    before = meter.processed();
    Cache streamed(table1Config(4096));
    MemorySource run_source(trace.refs(), trace.name());
    RunConfig run;
    run.batchRefs = 7;
    runTrace(static_cast<TraceSource &>(run_source), streamed, run);
    EXPECT_EQ(meter.processed() - before, n) << "streamed runTrace";

    before = meter.processed();
    MemorySource sweep_source(trace.refs(), trace.name());
    sweepUnified(static_cast<TraceSource &>(sweep_source), {1024, 2048, 4096},
                 table1Config(1024), RunConfig{}, SweepEngine::PerSize);
    EXPECT_EQ(meter.processed() - before, 3 * n) << "streamed sweep";

    meter.stop();
    meter.setSink(nullptr);
}

// ---------------------------------------------------------------------
// Streamed sampled simulation
// ---------------------------------------------------------------------

SampleConfig
tenPercentPlan(WarmingPolicy warming)
{
    SampleConfig cfg;
    cfg.unitRefs = 1000;
    cfg.fraction = 0.10;
    cfg.warming = warming;
    if (warming == WarmingPolicy::FixedWarmup)
        cfg.warmupRefs = 500;
    return cfg;
}

TEST(StreamingSampled, RunSampledBitwiseAcrossWarmingPolicies)
{
    const Trace trace = testTrace("ZGREP");
    for (const WarmingPolicy warming :
         {WarmingPolicy::Functional, WarmingPolicy::Cold,
          WarmingPolicy::FixedWarmup}) {
        const SampleConfig sample = tenPercentPlan(warming);

        Cache reference_cache(table1Config(4096));
        const SampledRunResult want =
            runSampled(trace, reference_cache, sample);

        Cache streamed_cache(table1Config(4096));
        MemorySource source(trace.refs(), trace.name());
        RunConfig run;
        run.batchRefs = 769; // odd: interval edges land mid-batch
        const SampledRunResult got =
            runSampled(static_cast<TraceSource &>(source), streamed_cache,
                       sample, run);

        EXPECT_EQ(got.traceRefs, want.traceRefs);
        EXPECT_EQ(got.measuredRefs, want.measuredRefs);
        EXPECT_EQ(got.processedRefs, want.processedRefs);
        EXPECT_EQ(got.intervalsMeasured, want.intervalsMeasured);
        EXPECT_EQ(got.stoppedEarly, want.stoppedEarly);
        EXPECT_TRUE(statsBitwiseEqual(got.measured, want.measured));
        EXPECT_TRUE(statsBitwiseEqual(got.estimated, want.estimated));
        EXPECT_EQ(got.missRatio.mean, want.missRatio.mean);
        EXPECT_EQ(got.missRatio.halfWidth, want.missRatio.halfWidth);
    }
}

TEST(StreamingSampled, UnknownLengthTakesCountingPass)
{
    const Trace trace = testTrace("VSPICE");
    const SampleConfig sample = tenPercentPlan(WarmingPolicy::Functional);

    Cache reference_cache(table1Config(4096));
    const SampledRunResult want =
        runSampled(trace, reference_cache, sample);

    Cache streamed_cache(table1Config(4096));
    HideLength source(trace);
    const SampledRunResult got = runSampled(
        static_cast<TraceSource &>(source), streamed_cache, sample);
    EXPECT_EQ(got.measuredRefs, want.measuredRefs);
    EXPECT_TRUE(statsBitwiseEqual(got.estimated, want.estimated));
}

TEST(StreamingSampled, SampledSweepsBitwise)
{
    const Trace trace = testTrace("MVS1");
    const std::vector<std::uint64_t> sizes = {1024, 4096};
    const CacheConfig base = table1Config(1024);
    const SampleConfig sample = tenPercentPlan(WarmingPolicy::Functional);
    RunConfig run;
    run.batchRefs = 769;

    const std::vector<SampledSweepPoint> want_unified =
        sweepUnifiedSampled(trace, sizes, base, sample, run);
    MemorySource unified_source(trace.refs(), trace.name());
    const std::vector<SampledSweepPoint> got_unified = sweepUnifiedSampled(
        static_cast<TraceSource &>(unified_source), sizes, base, sample,
        run);
    ASSERT_EQ(got_unified.size(), want_unified.size());
    for (std::size_t i = 0; i < want_unified.size(); ++i)
        EXPECT_TRUE(statsBitwiseEqual(got_unified[i].result.estimated,
                                      want_unified[i].result.estimated))
            << "unified size " << sizes[i];

    const std::vector<SplitSampledSweepPoint> want_split =
        sweepSplitSampled(trace, sizes, base, sample, run);
    MemorySource split_source(trace.refs(), trace.name());
    const std::vector<SplitSampledSweepPoint> got_split = sweepSplitSampled(
        static_cast<TraceSource &>(split_source), sizes, base, sample, run);
    ASSERT_EQ(got_split.size(), want_split.size());
    for (std::size_t i = 0; i < want_split.size(); ++i) {
        EXPECT_TRUE(statsBitwiseEqual(got_split[i].icache.estimated,
                                      want_split[i].icache.estimated))
            << "split icache " << sizes[i];
        EXPECT_TRUE(statsBitwiseEqual(got_split[i].dcache.estimated,
                                      want_split[i].dcache.estimated))
            << "split dcache " << sizes[i];
    }

    // The split sweep's counting pass handles unknown-length sources.
    HideLength hidden(trace);
    const std::vector<SplitSampledSweepPoint> got_hidden =
        sweepSplitSampled(static_cast<TraceSource &>(hidden), sizes, base,
                          sample, run);
    ASSERT_EQ(got_hidden.size(), want_split.size());
    for (std::size_t i = 0; i < want_split.size(); ++i)
        EXPECT_TRUE(statsBitwiseEqual(got_hidden[i].icache.estimated,
                                      want_split[i].icache.estimated));
}

/** Pass-through source that counts the references it delivers. */
class CountingSource : public TraceSource
{
  public:
    explicit CountingSource(const Trace &trace)
        : inner_(trace.refs(), trace.name())
    {}

    const std::string &name() const override { return inner_.name(); }
    std::size_t
    nextBatch(std::span<MemoryRef> out) override
    {
        const std::size_t got = inner_.nextBatch(out);
        delivered_ += got;
        return got;
    }
    void reset() override { inner_.reset(); }
    std::uint64_t
    knownLength() const override
    {
        return inner_.knownLength();
    }
    std::uint64_t delivered() const { return delivered_; }

  private:
    MemorySource inner_;
    std::uint64_t delivered_ = 0;
};

TEST(StreamingSampled, SplitSweepStopsReadingOnceBothPlansEnd)
{
    const Trace trace = testTrace("ZGREP");
    const std::vector<std::uint64_t> sizes = {1024, 4096};
    const CacheConfig base = table1Config(1024);
    const SampleConfig sample = tenPercentPlan(WarmingPolicy::Functional);
    RunConfig run;
    run.batchRefs = 1000;

    // Precondition: each side's plan ends before its sub-stream does.
    std::uint64_t ilen = 0;
    for (const MemoryRef &ref : trace)
        ilen += ref.kind == AccessKind::IFetch;
    const std::uint64_t dlen = trace.size() - ilen;
    ASSERT_LT(selectIntervals(ilen, sample).back().end, ilen);
    ASSERT_LT(selectIntervals(dlen, sample).back().end, dlen);

    const std::vector<SplitSampledSweepPoint> want =
        sweepSplitSampled(trace, sizes, base, sample, run);
    CountingSource source(trace);
    const std::vector<SplitSampledSweepPoint> got = sweepSplitSampled(
        static_cast<TraceSource &>(source), sizes, base, sample, run);

    // The counting pass reads the whole stream; the measured pass must
    // stop once both sides' plans are done.
    EXPECT_LT(source.delivered(), 2 * trace.size());
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_TRUE(statsBitwiseEqual(got[i].icache.measured,
                                      want[i].icache.measured))
            << "split icache " << sizes[i];
        EXPECT_TRUE(statsBitwiseEqual(got[i].icache.estimated,
                                      want[i].icache.estimated))
            << "split icache " << sizes[i];
        EXPECT_TRUE(statsBitwiseEqual(got[i].dcache.measured,
                                      want[i].dcache.measured))
            << "split dcache " << sizes[i];
        EXPECT_TRUE(statsBitwiseEqual(got[i].dcache.estimated,
                                      want[i].dcache.estimated))
            << "split dcache " << sizes[i];
        EXPECT_EQ(got[i].icache.intervalsMeasured,
                  want[i].icache.intervalsMeasured);
        EXPECT_EQ(got[i].dcache.intervalsMeasured,
                  want[i].dcache.intervalsMeasured);
    }
}

// ---------------------------------------------------------------------
// The warm-up rule
// ---------------------------------------------------------------------

using StreamingDeathTest = ::testing::Test;

TEST(StreamingDeathTest, WholeRunWarmupMustLeaveAMeasuredRef)
{
    const Trace trace = testTrace("ZGREP", 100);

    EXPECT_DEATH(
        {
            Cache cache(table1Config(1024));
            RunConfig run;
            run.warmupRefs = trace.size();
            runTrace(trace, cache, run);
        },
        "must leave at least one measured reference");

    // The streaming driver enforces the same rule when the stream
    // drains.
    EXPECT_DEATH(
        {
            Cache cache(table1Config(1024));
            MemorySource source(trace.refs(), trace.name());
            RunConfig run;
            run.warmupRefs = trace.size();
            runTrace(static_cast<TraceSource &>(source), cache, run);
        },
        "must leave at least one measured reference");
}

/** A source whose every read is a bug. */
class UnreadableSource : public TraceSource
{
  public:
    const std::string &name() const override { return name_; }
    std::size_t
    nextBatch(std::span<MemoryRef>) override
    {
        panic("the sweep read its source before checking its sizes");
    }
    void reset() override {}

  private:
    std::string name_ = "unreadable";
};

TEST(StreamingDeathTest, SinglePassSweepChecksSizesBeforeReading)
{
    // A bad size fails up front, as in the per-size engine, not after
    // a full pass over the input.
    const CacheConfig base = table1Config(1024);
    const std::vector<std::uint64_t> sizes = {1024, 3000};
    for (const SweepEngine engine :
         {SweepEngine::Auto, SweepEngine::SinglePass}) {
        EXPECT_DEATH(
            {
                UnreadableSource source;
                sweepUnified(source, sizes, base, RunConfig{}, engine);
            },
            "cache size 3000 is not a power of two");
        EXPECT_DEATH(
            {
                UnreadableSource source;
                sweepSplit(source, sizes, base, RunConfig{}, engine);
            },
            "cache size 3000 is not a power of two");
    }
}

TEST(StreamingDeathTest, SinglePassEnginesCheckShapeBeforeReading)
{
    // A base outside the Table 1 shape is one fatal() naming it, and
    // Verify refuses it before its per-size run reads the input.
    CacheConfig base = table1Config(1024);
    base.associativity = 2;
    const std::vector<std::uint64_t> sizes = {1024, 4096};
    for (const SweepEngine engine :
         {SweepEngine::SinglePass, SweepEngine::Verify}) {
        EXPECT_DEATH(
            {
                UnreadableSource source;
                sweepUnified(source, sizes, base, RunConfig{}, engine);
            },
            "needs the Table 1 shape.*not 1K/16B/2-way/LRU");
        EXPECT_DEATH(
            {
                UnreadableSource source;
                sweepSplit(source, sizes, base, RunConfig{}, engine);
            },
            "needs the Table 1 shape.*not 1K/16B/2-way/LRU");
    }
}

TEST(StreamingDeathTest, SampledSweepsCheckSizesBeforeReading)
{
    // The sampled sweeps must read their input to plan (a counting
    // pass when the length is unknown); a bad size fails before that.
    const CacheConfig base = table1Config(1024);
    const std::vector<std::uint64_t> sizes = {1024, 3000};
    EXPECT_DEATH(
        {
            UnreadableSource source;
            sweepUnifiedSampled(source, sizes, base, SampleConfig{});
        },
        "cache size 3000 is not a power of two");
    EXPECT_DEATH(
        {
            UnreadableSource source;
            sweepSplitSampled(source, sizes, base, SampleConfig{});
        },
        "cache size 3000 is not a power of two");
}

TEST(StreamingDeathTest, WarmupJustUnderLengthStillRuns)
{
    const Trace trace = testTrace("ZGREP", 100);
    Cache cache(table1Config(1024));
    RunConfig run;
    run.warmupRefs = trace.size() - 1;
    const CacheStats stats = runTrace(trace, cache, run);
    EXPECT_EQ(stats.totalAccesses(), 1u);
}

} // namespace
} // namespace cachelab
