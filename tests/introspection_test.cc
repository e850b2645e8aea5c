/**
 * @file
 * Tests for the cache-event introspection layer: event emission
 * order and payloads, the zero-cost-when-off contract, probe routing
 * through organizations, the aggregating and JSONL sinks, and the
 * sweep engines' probe-factory handling.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "cache/organization.hh"
#include "cache/probe.hh"
#include "cache/sector_cache.hh"
#include "obs/classify.hh"
#include "obs/event_log.hh"
#include "obs/event_stats.hh"
#include "sim/experiments.hh"
#include "sim/run.hh"
#include "sim/sampled.hh"
#include "sim/sweep.hh"
#include "trace/source.hh"
#include "util/json_reader.hh"
#include "workload/profiles.hh"

namespace cachelab
{
namespace
{

/** Probe that records every event verbatim. */
struct RecordingProbe : CacheProbe
{
    std::vector<CacheEvent> events;

    void
    onEvent(const CacheEvent &event) override
    {
        events.push_back(event);
    }

    std::vector<CacheEvent>
    ofType(CacheEventType type) const
    {
        std::vector<CacheEvent> out;
        for (const CacheEvent &e : events)
            if (e.type == type)
                out.push_back(e);
        return out;
    }
};

CacheConfig
smallConfig(std::uint64_t size_bytes, std::uint32_t assoc)
{
    CacheConfig cfg;
    cfg.sizeBytes = size_bytes;
    cfg.lineBytes = 16;
    cfg.associativity = assoc;
    cfg.validate();
    return cfg;
}

MemoryRef
read(Addr addr)
{
    return MemoryRef{addr, 4, AccessKind::Read};
}

MemoryRef
write(Addr addr)
{
    return MemoryRef{addr, 4, AccessKind::Write};
}

// ------------------------------------------------------- event emission

TEST(CacheEvents, MissFillThenHitSequence)
{
    // Direct-mapped, 4 lines of 16B.
    Cache cache(smallConfig(64, 1));
    RecordingProbe probe;
    cache.setProbe(&probe);

    cache.access(read(0x0)); // cold miss
    cache.access(read(0x4)); // same line: hit

    ASSERT_EQ(probe.events.size(), 3u);
    EXPECT_EQ(probe.events[0].type, CacheEventType::Miss);
    EXPECT_EQ(probe.events[0].kind, AccessKind::Read);
    EXPECT_EQ(probe.events[0].lineAddr, 0x0u);
    EXPECT_EQ(probe.events[0].refIndex, 1u);
    EXPECT_EQ(probe.events[1].type, CacheEventType::Fill);
    EXPECT_EQ(probe.events[1].refIndex, 1u);
    EXPECT_EQ(probe.events[2].type, CacheEventType::Hit);
    EXPECT_EQ(probe.events[2].refIndex, 2u);
    EXPECT_EQ(cache.accessClock(), 2u);
}

TEST(CacheEvents, EvictionCarriesLifetimeAndHitCount)
{
    // 4 sets direct-mapped: lines 16 apart in the same set collide.
    Cache cache(smallConfig(64, 1));
    RecordingProbe probe;
    cache.setProbe(&probe);

    cache.access(read(0x0));   // ref 1: fill line 0
    cache.access(read(0x8));   // ref 2: hit line 0
    cache.access(read(0x4));   // ref 3: hit line 0
    cache.access(read(0x100)); // ref 4: same set, evicts line 0

    const auto evicts = probe.ofType(CacheEventType::Evict);
    ASSERT_EQ(evicts.size(), 1u);
    EXPECT_EQ(evicts[0].lineAddr, 0x0u);
    EXPECT_EQ(evicts[0].refIndex, 4u);
    EXPECT_EQ(evicts[0].residentRefs, 3u); // filled at ref 1, evicted at 4
    EXPECT_EQ(evicts[0].hitCount, 2u);
    EXPECT_FALSE(evicts[0].dirty);
    EXPECT_FALSE(evicts[0].isPurge);
    EXPECT_TRUE(probe.ofType(CacheEventType::Writeback).empty());

    // Miss fires before the eviction and the fill of the new line.
    const auto &ev = probe.events;
    const auto miss_at = std::find_if(ev.begin(), ev.end(), [](auto &e) {
        return e.type == CacheEventType::Miss && e.lineAddr == 0x100;
    });
    const auto evict_at = std::find_if(ev.begin(), ev.end(), [](auto &e) {
        return e.type == CacheEventType::Evict;
    });
    const auto fill_at = std::find_if(ev.begin(), ev.end(), [](auto &e) {
        return e.type == CacheEventType::Fill && e.lineAddr == 0x100;
    });
    EXPECT_LT(miss_at, evict_at);
    EXPECT_LT(evict_at, fill_at);
}

TEST(CacheEvents, DirtyEvictionEmitsWriteback)
{
    Cache cache(smallConfig(64, 1)); // copy-back by default
    RecordingProbe probe;
    cache.setProbe(&probe);

    cache.access(write(0x0));
    cache.access(read(0x100)); // evicts the dirty line

    const auto evicts = probe.ofType(CacheEventType::Evict);
    const auto writebacks = probe.ofType(CacheEventType::Writeback);
    ASSERT_EQ(evicts.size(), 1u);
    ASSERT_EQ(writebacks.size(), 1u);
    EXPECT_TRUE(evicts[0].dirty);
    EXPECT_EQ(writebacks[0].lineAddr, 0x0u);
    EXPECT_EQ(writebacks[0].residentRefs, evicts[0].residentRefs);
}

TEST(CacheEvents, PurgeEventPrecedesPurgeEvictions)
{
    Cache cache(smallConfig(64, 2));
    RecordingProbe probe;
    cache.setProbe(&probe);

    cache.access(read(0x0));
    cache.access(write(0x10));
    probe.events.clear();
    cache.purge();

    ASSERT_GE(probe.events.size(), 3u);
    EXPECT_EQ(probe.events[0].type, CacheEventType::Purge);
    const auto evicts = probe.ofType(CacheEventType::Evict);
    ASSERT_EQ(evicts.size(), 2u);
    for (const CacheEvent &e : evicts)
        EXPECT_TRUE(e.isPurge);
    ASSERT_EQ(probe.ofType(CacheEventType::Writeback).size(), 1u);
}

TEST(CacheEvents, NoAllocateWriteMissEmitsNoFill)
{
    CacheConfig cfg = smallConfig(64, 1);
    cfg.writePolicy = WritePolicy::WriteThrough;
    cfg.writeMiss = WriteMissPolicy::NoAllocate;
    cfg.validate();
    Cache cache(cfg);
    RecordingProbe probe;
    cache.setProbe(&probe);

    cache.access(write(0x0)); // bypasses the cache entirely

    ASSERT_EQ(probe.events.size(), 1u);
    EXPECT_EQ(probe.events[0].type, CacheEventType::Miss);
    EXPECT_EQ(probe.events[0].kind, AccessKind::Write);
}

TEST(CacheEvents, PrefetchEventsDistinctFromDemandFills)
{
    CacheConfig cfg = smallConfig(256, 0);
    cfg.fetchPolicy = FetchPolicy::PrefetchAlways;
    cfg.validate();
    Cache cache(cfg);
    RecordingProbe probe;
    cache.setProbe(&probe);

    cache.access(read(0x0)); // miss: fill 0x0, prefetch 0x10

    const auto fills = probe.ofType(CacheEventType::Fill);
    const auto prefetches = probe.ofType(CacheEventType::Prefetch);
    ASSERT_EQ(fills.size(), 1u);
    ASSERT_EQ(prefetches.size(), 1u);
    EXPECT_EQ(fills[0].lineAddr, 0x0u);
    EXPECT_EQ(prefetches[0].lineAddr, 0x10u);
}

// -------------------------------------------------- zero-cost-when-off

TEST(CacheEvents, StatsIdenticalWithAndWithoutProbe)
{
    const Trace t = generateTrace(*findTraceProfile("ZGREP"), 30000);
    Cache plain(table1Config(4096));
    Cache probed(table1Config(4096));
    RecordingProbe probe;
    probed.setProbe(&probe);
    const CacheStats a = runTrace(t, plain);
    const CacheStats b = runTrace(t, probed);
    EXPECT_EQ(a.summarize(), b.summarize());
    EXPECT_EQ(a.totalMisses(), b.totalMisses());
    EXPECT_EQ(a.demandFetches, b.demandFetches);
    EXPECT_EQ(a.bytesToMemory, b.bytesToMemory);
    EXPECT_FALSE(probe.events.empty());
}

TEST(CacheEvents, DetachRestoresUninstrumentedPath)
{
    Cache cache(smallConfig(64, 1));
    RecordingProbe probe;
    cache.setProbe(&probe);
    cache.access(read(0x0));
    cache.setProbe(nullptr);
    cache.access(read(0x100));
    EXPECT_EQ(probe.events.size(), 2u); // miss + fill only, from ref 1
    EXPECT_EQ(cache.probe(), nullptr);
}

// --------------------------------------------------------- probe fanout

TEST(ProbeFanoutTest, DeliversToEverySinkAndIgnoresNull)
{
    RecordingProbe a, b;
    ProbeFanout fanout;
    EXPECT_TRUE(fanout.empty());
    fanout.add(nullptr);
    EXPECT_TRUE(fanout.empty());
    fanout.add(&a);
    fanout.add(&b);
    EXPECT_EQ(fanout.size(), 2u);

    Cache cache(smallConfig(64, 1));
    cache.setProbe(&fanout);
    cache.access(read(0x0));
    EXPECT_EQ(a.events.size(), 2u);
    EXPECT_EQ(b.events.size(), 2u);
}

// ------------------------------------------------- organization routing

TEST(SplitCacheProbes, EventsRouteByAccessKind)
{
    SplitCache split(table1Config(1024), table1Config(1024));
    RecordingProbe iprobe, dprobe;
    split.setProbes(&iprobe, &dprobe);

    split.access(MemoryRef{0x0, 4, AccessKind::IFetch});
    split.access(read(0x1000));
    split.access(write(0x2000));
    split.access(MemoryRef{0x0, 4, AccessKind::IFetch});

    EXPECT_FALSE(iprobe.events.empty());
    EXPECT_FALSE(dprobe.events.empty());
    for (const CacheEvent &e : iprobe.events) {
        if (e.type == CacheEventType::Hit || e.type == CacheEventType::Miss) {
            EXPECT_EQ(e.kind, AccessKind::IFetch);
        }
    }
    for (const CacheEvent &e : dprobe.events) {
        if (e.type == CacheEventType::Hit || e.type == CacheEventType::Miss) {
            EXPECT_NE(e.kind, AccessKind::IFetch);
        }
    }
}

TEST(SectorCacheProbes, EmitsSubblockEvents)
{
    SectorCacheConfig cfg;
    cfg.sizeBytes = 256;
    cfg.sectorBytes = 32;
    cfg.subblockBytes = 8;
    SectorCache cache(cfg);
    RecordingProbe probe;
    cache.setProbe(&probe);

    cache.access(read(0x0));  // sector + sub-block miss
    cache.access(read(0x0));  // hit
    cache.purge();

    EXPECT_EQ(probe.ofType(CacheEventType::Miss).size(), 1u);
    EXPECT_EQ(probe.ofType(CacheEventType::Fill).size(), 1u);
    EXPECT_EQ(probe.ofType(CacheEventType::Hit).size(), 1u);
    EXPECT_EQ(probe.ofType(CacheEventType::Purge).size(), 1u);
    EXPECT_EQ(probe.ofType(CacheEventType::Evict).size(), 1u);
    EXPECT_EQ(cache.accessClock(), 2u);
}

// ------------------------------------------------------ aggregating sink

TEST(EventStats, LifetimesDeadLinesAndSetPressure)
{
    Cache cache(smallConfig(64, 1)); // 4 sets
    EventStatsSink sink;
    cache.setProbe(&sink);

    cache.access(read(0x0));   // set 0 fill
    cache.access(read(0x8));   // set 0 hit
    cache.access(read(0x100)); // set 0: evicts 0x0 (1 hit)
    cache.access(read(0x200)); // set 0: evicts 0x100 (0 hits: dead)
    cache.access(read(0x10));  // set 1 fill

    EXPECT_EQ(sink.evictions(), 2u);
    EXPECT_EQ(sink.deadOnEviction(), 1u);
    EXPECT_EQ(sink.evictLifetime().count, 2u);
    ASSERT_GE(sink.sets().size(), 2u);
    EXPECT_EQ(sink.sets()[0].evictions, 2u);
    EXPECT_EQ(sink.sets()[1].evictions, 0u);
    EXPECT_EQ(sink.sets()[0].peakOccupancy, 1u);

    const auto top = sink.topConflictSets(2);
    ASSERT_FALSE(top.empty());
    EXPECT_EQ(top[0], 0u);

    std::ostringstream csv;
    sink.writeHeatmapCsv(csv);
    EXPECT_NE(csv.str().find("set,hits,misses,fills,evictions"),
              std::string::npos);
}

TEST(EventStats, ReuseDistanceCountsGaps)
{
    Cache cache(smallConfig(256, 0));
    EventStatsSink sink;
    cache.setProbe(&sink);
    cache.access(read(0x0)); // ref 1
    cache.access(read(0x10));
    cache.access(read(0x20));
    cache.access(read(0x0)); // ref 4: distance 3 from ref 1
    EXPECT_EQ(sink.reuseDistance().count, 1u);
    EXPECT_DOUBLE_EQ(sink.reuseDistance().mean(), 3.0);
}

// ------------------------------------------------------------ JSONL sink

TEST(EventLog, EveryLineIsValidJson)
{
    const Trace t = generateTrace(*findTraceProfile("ZOD"), 2000);
    Cache cache(table1Config(1024));
    std::ostringstream os;
    EventLogSink sink(os);
    cache.setProbe(&sink);
    RunConfig run;
    run.purgeInterval = 500;
    runTrace(t, cache, run);

    std::istringstream in(os.str());
    std::string line;
    std::uint64_t lines = 0;
    while (std::getline(in, line)) {
        ++lines;
        std::string err;
        const auto doc = parseJson(line, &err);
        ASSERT_TRUE(doc) << "line " << lines << ": " << err;
        const std::string &type = doc->at("type").asString();
        EXPECT_TRUE(type == "hit" || type == "miss" || type == "fill" ||
                    type == "prefetch" || type == "evict" ||
                    type == "writeback" || type == "purge")
            << type;
        EXPECT_GT(doc->at("ref").asUint(), 0u);
    }
    EXPECT_EQ(lines, sink.logged());
    EXPECT_EQ(sink.dropped(), 0u);
}

TEST(EventLog, SamplingDropsButPurgesSurvive)
{
    const Trace t = generateTrace(*findTraceProfile("ZOD"), 3000);
    Cache cache(table1Config(1024));
    std::ostringstream os;
    EventLogSink sink(os, /*sample_every=*/7);
    cache.setProbe(&sink);
    RunConfig run;
    run.purgeInterval = 1000;
    const CacheStats s = runTrace(t, cache, run);

    EXPECT_GT(sink.dropped(), 0u);
    EXPECT_LT(sink.logged(), sink.seen());
    std::uint64_t purge_lines = 0;
    std::istringstream in(os.str());
    std::string line;
    while (std::getline(in, line))
        if (line.find("\"purge\"") != std::string::npos &&
            line.find("\"type\":\"purge\"") != std::string::npos)
            ++purge_lines;
    EXPECT_EQ(purge_lines, s.purges);
}

TEST(EventLog, CapStopsLoggingButKeepsCounting)
{
    const Trace t = generateTrace(*findTraceProfile("ZOD"), 2000);
    Cache cache(table1Config(1024));
    std::ostringstream os;
    EventLogSink sink(os, 1, /*max_events=*/50);
    cache.setProbe(&sink);
    runTrace(t, cache);
    EXPECT_EQ(sink.logged(), 50u);
    EXPECT_GT(sink.seen(), 50u);
}

// --------------------------------------------- sweep engines and probes

/** Factory handing one classifier per constructed cache. */
struct ClassifierFactory : CacheProbeFactory
{
    std::vector<std::uint64_t> sizes;
    std::vector<std::string> roles;
    std::vector<std::unique_ptr<MissClassifier>> classifiers;

    CacheProbe *
    probeFor(const CacheConfig &config, std::string_view role) override
    {
        sizes.push_back(config.sizeBytes);
        roles.emplace_back(role);
        classifiers.push_back(std::make_unique<MissClassifier>(config));
        return classifiers.back().get();
    }
};

TEST(SweepProbes, PerSizeEngineDrivesOneClassifierPerSize)
{
    const Trace t = generateTrace(*findTraceProfile("PLO"), 20000);
    const std::vector<std::uint64_t> sizes = {1024, 4096, 16384};
    ClassifierFactory factory;
    RunConfig run;
    run.probeFactory = &factory;
    const auto points = sweepUnified(t, sizes, table1Config(32), run,
                                     SweepEngine::PerSize);
    ASSERT_EQ(factory.sizes, sizes);
    for (const std::string &role : factory.roles)
        EXPECT_EQ(role, "unified");
    for (std::size_t i = 0; i < sizes.size(); ++i) {
        const ClassifiedTotals &c = factory.classifiers[i]->totals();
        EXPECT_EQ(c.misses, points[i].stats.totalMisses()) << sizes[i];
        EXPECT_EQ(c.compulsory + c.capacity + c.conflict, c.misses);
        EXPECT_EQ(c.conflict, 0u); // table1Config is fully associative
    }
}

TEST(SweepProbes, StreamedPerSizeMatchesMaterialized)
{
    const TraceProfile &p = *findTraceProfile("PLO");
    const std::vector<std::uint64_t> sizes = {1024, 8192};
    const Trace t = generateTrace(p, 20000);

    ClassifierFactory materialized;
    RunConfig run_m;
    run_m.probeFactory = &materialized;
    sweepUnified(t, sizes, table1Config(32), run_m, SweepEngine::PerSize);

    ClassifierFactory streamed;
    RunConfig run_s;
    run_s.probeFactory = &streamed;
    const std::unique_ptr<TraceSource> src = streamTrace(p, 20000);
    sweepUnified(*src, sizes, table1Config(32), run_s,
                 SweepEngine::PerSize);

    ASSERT_EQ(streamed.classifiers.size(), materialized.classifiers.size());
    for (std::size_t i = 0; i < sizes.size(); ++i) {
        const ClassifiedTotals &a = materialized.classifiers[i]->totals();
        const ClassifiedTotals &b = streamed.classifiers[i]->totals();
        EXPECT_EQ(a.misses, b.misses);
        EXPECT_EQ(a.compulsory, b.compulsory);
        EXPECT_EQ(a.capacity, b.capacity);
        EXPECT_EQ(a.conflict, b.conflict);
    }
}

TEST(SweepProbes, AutoPrefersPerSizeWhenFactoryPresent)
{
    // This sweep shape is single-pass eligible, so Auto would normally
    // run the Mattson analyzer (which cannot emit events); with a
    // factory it must fall back to per-size and feed the classifiers.
    const Trace t = generateTrace(*findTraceProfile("ZOD"), 15000);
    const std::vector<std::uint64_t> sizes = {512, 2048};
    ClassifierFactory factory;
    RunConfig run;
    run.probeFactory = &factory;
    const auto points =
        sweepUnified(t, sizes, table1Config(32), run, SweepEngine::Auto);
    ASSERT_EQ(factory.classifiers.size(), sizes.size());
    EXPECT_EQ(factory.classifiers[0]->totals().misses,
              points[0].stats.totalMisses());
}

TEST(SweepProbesDeathTest, SinglePassRejectsProbeFactory)
{
    const Trace t = generateTrace(*findTraceProfile("ZOD"), 5000);
    ClassifierFactory factory;
    RunConfig run;
    run.probeFactory = &factory;
    EXPECT_DEATH(sweepUnified(t, {1024, 4096}, table1Config(32), run,
                              SweepEngine::SinglePass),
                 "cannot drive cache-event probes");
}

TEST(SweepProbesDeathTest, SampledEngineRejectsProbeFactory)
{
    const Trace t = generateTrace(*findTraceProfile("ZOD"), 20000);
    Cache cache(table1Config(4096));
    ClassifierFactory factory;
    RunConfig run;
    run.probeFactory = &factory;
    SampleConfig sample;
    sample.fraction = 0.2;
    EXPECT_DEATH(runSampled(t, cache, sample, run),
                 "cannot drive cache-event probes");
}

} // namespace
} // namespace cachelab
