/**
 * @file
 * Tests for the observability layer: metrics registry snapshot
 * consistency under concurrent increments, histogram label
 * canonicalization, JSON writer escaping and number formatting,
 * phase-profile aggregation, Chrome trace recording, the progress
 * meter, and thread-pool gauge publication.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <limits>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hh"
#include "obs/profile.hh"
#include "obs/progress.hh"
#include "obs/trace_event.hh"
#include "util/json_writer.hh"
#include "util/thread_pool.hh"

namespace cachelab
{
namespace
{

// ---------------------------------------------------------------- metrics

TEST(MetricsRegistry, ConcurrentIncrementsAreAllCounted)
{
    obs::Registry registry;
    obs::Counter &counter = registry.counter("hits");
    constexpr int kThreads = 8;
    constexpr std::uint64_t kPerThread = 20000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&] {
            for (std::uint64_t i = 0; i < kPerThread; ++i)
                counter.add();
        });
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(counter.value(), kThreads * kPerThread);
    EXPECT_EQ(registry.snapshot().counterValue("hits"),
              kThreads * kPerThread);
}

TEST(MetricsRegistry, LookupsReturnTheSameObject)
{
    obs::Registry registry;
    obs::Counter &a = registry.counter("x");
    obs::Counter &b = registry.counter("x");
    EXPECT_EQ(&a, &b);
    a.add(3);
    EXPECT_EQ(b.value(), 3u);
}

TEST(MetricsRegistry, GaugeIsLastWriteWins)
{
    obs::Registry registry;
    registry.gauge("temp").set(1.5);
    registry.gauge("temp").set(2.5);
    const auto snap = registry.snapshot();
    ASSERT_EQ(snap.gauges.size(), 1u);
    EXPECT_EQ(snap.gauges[0].first, "temp");
    EXPECT_DOUBLE_EQ(snap.gauges[0].second, 2.5);
}

TEST(MetricsRegistry, HistogramLabelsCanonicalize)
{
    // The same labels in any order name the same series.
    EXPECT_EQ(obs::Registry::key("task_ns", {{"b", "2"}, {"a", "1"}}),
              "task_ns{a=1,b=2}");
    EXPECT_EQ(obs::Registry::key("task_ns", {}), "task_ns");

    obs::Registry registry;
    obs::Histogram &h1 =
        registry.histogram("task_ns", {{"engine", "pool"}, {"size", "1K"}});
    obs::Histogram &h2 =
        registry.histogram("task_ns", {{"size", "1K"}, {"engine", "pool"}});
    EXPECT_EQ(&h1, &h2);
    h1.record(17);
    const auto snap = registry.snapshot();
    ASSERT_EQ(snap.histograms.size(), 1u);
    EXPECT_EQ(snap.histograms[0].first, "task_ns{engine=pool,size=1K}");
    EXPECT_EQ(snap.histograms[0].second.count, 1u);
}

TEST(MetricsRegistry, SnapshotIsSortedAndComplete)
{
    obs::Registry registry;
    registry.counter("zebra").add(1);
    registry.counter("apple").add(2);
    registry.gauge("mid").set(0.5);
    const auto snap = registry.snapshot();
    ASSERT_EQ(snap.counters.size(), 2u);
    EXPECT_EQ(snap.counters[0].first, "apple");
    EXPECT_EQ(snap.counters[1].first, "zebra");
    EXPECT_EQ(snap.counterValue("apple"), 2u);
    EXPECT_EQ(snap.counterValue("missing"), 0u);
}

TEST(MetricsRegistry, ClearDropsEverything)
{
    obs::Registry registry;
    registry.counter("a").add(1);
    registry.clear();
    EXPECT_TRUE(registry.snapshot().counters.empty());
    // Re-registration after clear starts from zero.
    EXPECT_EQ(registry.counter("a").value(), 0u);
}

TEST(MetricsRegistry, ResetForTestingZeroesInPlace)
{
    obs::Registry registry;
    obs::Counter &counter = registry.counter("sim.refs");
    obs::Gauge &gauge = registry.gauge("pool.jobs");
    obs::Histogram &histogram = registry.histogram("task_ns");
    counter.add(42);
    gauge.set(8.0);
    histogram.record(17);

    registry.resetForTesting();

    // Values are zeroed, but the objects stay registered and valid —
    // unlike clear(), which would dangle the references above.
    EXPECT_EQ(counter.value(), 0u);
    EXPECT_EQ(registry.snapshot().counterValue("sim.refs"), 0u);
    const auto snap = registry.snapshot();
    ASSERT_EQ(snap.histograms.size(), 1u);
    EXPECT_EQ(snap.histograms[0].second.count, 0u);

    // The regression this guards: back-to-back library runs in one
    // process must not accumulate into each other's counters.
    counter.add(30000);
    EXPECT_EQ(counter.value(), 30000u);
    registry.resetForTesting();
    counter.add(30000);
    EXPECT_EQ(registry.snapshot().counterValue("sim.refs"), 30000u);
    EXPECT_EQ(&registry.counter("sim.refs"), &counter);
}

TEST(MetricsRegistry, PublishThreadPoolMirrorsUtilization)
{
    ThreadPool pool(2);
    pool.parallelFor(50, [](std::size_t) {});
    obs::Registry registry;
    obs::publishThreadPool(registry, pool);
    const auto snap = registry.snapshot();
    auto gauge = [&](const std::string &name) {
        for (const auto &[k, v] : snap.gauges)
            if (k == name)
                return v;
        return -1.0;
    };
    EXPECT_DOUBLE_EQ(gauge("pool.jobs"), 2.0);
    EXPECT_DOUBLE_EQ(gauge("pool.batches"), 1.0);
    EXPECT_DOUBLE_EQ(gauge("pool.queue_high_water"), 50.0);
    EXPECT_DOUBLE_EQ(gauge("pool.tasks_total"), 50.0);
    EXPECT_DOUBLE_EQ(gauge("pool.tasks{slot=0}") +
                         gauge("pool.tasks{slot=1}"),
                     50.0);
    // Publishing again overwrites instead of double-counting.
    obs::publishThreadPool(registry, pool);
    EXPECT_DOUBLE_EQ(gauge("pool.tasks_total"), 50.0);
}

// ------------------------------------------------------------ json writer

std::string
compactJson(const std::function<void(JsonWriter &)> &build)
{
    std::ostringstream os;
    JsonWriter w(os, JsonWriter::Compact);
    build(w);
    return os.str();
}

TEST(JsonWriterTest, CompactObjectGolden)
{
    const std::string out = compactJson([](JsonWriter &w) {
        w.beginObject()
            .member("name", "VSPICE")
            .member("refs", std::uint64_t{1000000})
            .member("ok", true)
            .key("sizes")
            .beginArray()
            .value(32)
            .value(64)
            .endArray()
            .endObject();
    });
    EXPECT_EQ(out, "{\"name\":\"VSPICE\",\"refs\":1000000,\"ok\":true,"
                   "\"sizes\":[32,64]}");
}

TEST(JsonWriterTest, EscapesControlAndSpecialCharacters)
{
    EXPECT_EQ(JsonWriter::escape("plain"), "plain");
    EXPECT_EQ(JsonWriter::escape("a\"b"), "a\\\"b");
    EXPECT_EQ(JsonWriter::escape("a\\b"), "a\\\\b");
    EXPECT_EQ(JsonWriter::escape("a\nb\tc"), "a\\nb\\tc");
    EXPECT_EQ(JsonWriter::escape(std::string("a\x01z")), "a\\u0001z");
    const std::string out = compactJson([](JsonWriter &w) {
        w.beginObject().member("k\n", "v\"q").endObject();
    });
    EXPECT_EQ(out, "{\"k\\n\":\"v\\\"q\"}");
}

TEST(JsonWriterTest, DoublesRoundTrip)
{
    const std::string out = compactJson([](JsonWriter &w) {
        w.beginArray()
            .value(0.1)
            .value(1.0)
            .value(-2.5e-3)
            .value(std::nan(""))
            .value(std::numeric_limits<double>::infinity())
            .endArray();
    });
    // Shortest round-trip formatting; NaN/Inf become null.
    EXPECT_EQ(out, "[0.1,1,-0.0025,null,null]");
}

TEST(JsonWriterTest, LargeIntegersAreExact)
{
    const std::uint64_t big = std::numeric_limits<std::uint64_t>::max();
    const std::string out = compactJson(
        [&](JsonWriter &w) { w.beginArray().value(big).endArray(); });
    EXPECT_EQ(out, "[18446744073709551615]");
}

TEST(JsonWriterTest, PrettyPrintingIndents)
{
    std::ostringstream os;
    {
        JsonWriter w(os, 2);
        w.beginObject().member("a", 1).endObject();
    }
    EXPECT_EQ(os.str(), "{\n  \"a\": 1\n}");
}

TEST(JsonWriterTest, SnapshotWritesValidJson)
{
    obs::Registry registry;
    registry.counter("c").add(7);
    registry.gauge("g").set(0.25);
    registry.histogram("h").record(100);
    const std::string out = compactJson(
        [&](JsonWriter &w) { registry.snapshot().writeJson(w); });
    EXPECT_NE(out.find("\"counters\":{\"c\":7}"), std::string::npos);
    EXPECT_NE(out.find("\"g\":0.25"), std::string::npos);
    EXPECT_NE(out.find("\"h\""), std::string::npos);
}

// --------------------------------------------------------------- profiling

TEST(PhaseProfiling, DisabledScopesRecordNothing)
{
    obs::resetProfiles();
    obs::setProfilingEnabled(false);
    {
        obs::ProfileScope scope("ghost");
    }
    EXPECT_TRUE(obs::profileReport().empty());
}

TEST(PhaseProfiling, AggregatesCallsPerPhase)
{
    obs::resetProfiles();
    obs::setProfilingEnabled(true);
    for (int i = 0; i < 3; ++i) {
        obs::ProfileScope scope("phase_a");
    }
    {
        obs::ProfileScope scope("phase_b");
    }
    obs::setProfilingEnabled(false);

    const auto report = obs::profileReport();
    ASSERT_EQ(report.size(), 2u);
    std::uint64_t calls_a = 0, calls_b = 0;
    for (const obs::PhaseProfile &p : report) {
        if (p.phase == "phase_a")
            calls_a = p.calls;
        if (p.phase == "phase_b")
            calls_b = p.calls;
        EXPECT_GE(p.maxNs, p.minNs);
        EXPECT_GE(p.totalNs, p.maxThreadNs);
        EXPECT_GE(p.threads, 1u);
    }
    EXPECT_EQ(calls_a, 3u);
    EXPECT_EQ(calls_b, 1u);

    const std::string table = obs::renderProfileTable(report);
    EXPECT_NE(table.find("phase_a"), std::string::npos);
    EXPECT_NE(table.find("phase_b"), std::string::npos);
    obs::resetProfiles();
}

TEST(PhaseProfiling, MergesAcrossPoolThreads)
{
    obs::resetProfiles();
    obs::setProfilingEnabled(true);
    ThreadPool pool(3);
    pool.parallelFor(60, [](std::size_t) {
        obs::ProfileScope scope("pool_phase");
    });
    obs::setProfilingEnabled(false);

    const auto report = obs::profileReport();
    ASSERT_EQ(report.size(), 1u);
    EXPECT_EQ(report[0].phase, "pool_phase");
    EXPECT_EQ(report[0].calls, 60u);
    EXPECT_GE(report[0].threads, 1u);
    EXPECT_LE(report[0].threads, 3u);
    obs::resetProfiles();
}

// ------------------------------------------------------------- trace events

TEST(TraceEvents, DisabledRecorderDropsEverything)
{
    obs::TraceRecorder recorder;
    recorder.instant("x", "test");
    {
        // TraceSpan uses the global recorder; exercise the raw API here.
        recorder.complete("y", "test", 0, 10);
    }
    // complete()/instant() append unconditionally only through the
    // instrumentation sites, which check enabled() first; the global
    // recorder mirrors that contract.
    obs::TraceRecorder &global = obs::TraceRecorder::global();
    global.setEnabled(false);
    const std::size_t before = global.eventCount();
    {
        obs::TraceSpan span("ghost", "test");
    }
    EXPECT_EQ(global.eventCount(), before);
}

TEST(TraceEvents, RecordsSpansAndInstantsAsCatapultJson)
{
    obs::TraceRecorder &recorder = obs::TraceRecorder::global();
    recorder.setEnabled(true);
    recorder.clear();
    {
        obs::TraceSpan span("work", "test", {{"size", "1K"}});
    }
    recorder.instant("purge", "test");
    recorder.setEnabled(false);
    EXPECT_EQ(recorder.eventCount(), 2u);

    std::ostringstream os;
    recorder.write(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
    EXPECT_NE(out.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(out.find("\"name\":\"work\""), std::string::npos);
    EXPECT_NE(out.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(out.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(out.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(out.find("\"main\""), std::string::npos);
    EXPECT_NE(out.find("\"size\":\"1K\""), std::string::npos);
    recorder.clear();
}

TEST(TraceEvents, PoolTasksLandOnWorkerSlotLanes)
{
    obs::TraceRecorder &recorder = obs::TraceRecorder::global();
    recorder.setEnabled(true);
    recorder.clear();
    ThreadPool pool(2);
    // Each task waits until both of the pool's threads (the caller in
    // slot 0, the worker in slot 1) have entered one; otherwise the
    // first to start can run all eight.  The wait is bounded, and a
    // pool that never brings both in fails the test.
    std::mutex mutex;
    std::condition_variable entered;
    std::set<int> slots;
    bool timed_out = false;
    pool.parallelFor(8, [&](std::size_t) {
        obs::TraceSpan span("task", "test");
        std::unique_lock<std::mutex> lock(mutex);
        slots.insert(ThreadPool::currentSlot());
        entered.notify_all();
        if (!entered.wait_for(lock, std::chrono::seconds(30), [&] {
                return slots.size() == 2 || timed_out;
            }))
            timed_out = true;
    });
    recorder.setEnabled(false);
    EXPECT_FALSE(timed_out) << "a pool thread entered no task in 30 s";
    EXPECT_EQ(slots, (std::set<int>{0, 1}));
    EXPECT_EQ(recorder.eventCount(), 8u);

    std::ostringstream os;
    recorder.write(os);
    const std::string out = os.str();
    // Lane 0 is main; pool slots render as slot-0.. on lanes 1..jobs.
    EXPECT_NE(out.find("\"slot-0\""), std::string::npos);
    recorder.clear();
}

// ---------------------------------------------------------------- progress

TEST(ProgressMeterTest, EmitsThroughSinkAndCounts)
{
    obs::ProgressMeter meter;
    std::vector<std::string> lines;
    meter.setSink([&](const std::string &line) { lines.push_back(line); });
    meter.setReportInterval(std::chrono::nanoseconds(0));
    meter.start(1000, "test");
    EXPECT_TRUE(meter.enabled());
    meter.advance(500);
    meter.advance(500);
    meter.finish();
    EXPECT_EQ(meter.processed(), 1000u);
    ASSERT_GE(lines.size(), 1u);
    const std::string &last = lines.back();
    EXPECT_NE(last.find("test"), std::string::npos);
    EXPECT_NE(last.find("100.0%"), std::string::npos);
    meter.setSink(nullptr);
}

TEST(ProgressMeterTest, DisabledMeterIgnoresAdvance)
{
    obs::ProgressMeter meter;
    std::vector<std::string> lines;
    meter.setSink([&](const std::string &line) { lines.push_back(line); });
    meter.advance(100);
    meter.finish();
    EXPECT_TRUE(lines.empty());
    EXPECT_EQ(meter.processed(), 0u);
    meter.setSink(nullptr);
}

TEST(ProgressMeterTest, StopDisablesFurtherReporting)
{
    obs::ProgressMeter meter;
    std::vector<std::string> lines;
    meter.setSink([&](const std::string &line) { lines.push_back(line); });
    meter.setReportInterval(std::chrono::nanoseconds(0));
    meter.start(10, "t");
    meter.stop();
    EXPECT_FALSE(meter.enabled());
    meter.advance(5);
    EXPECT_TRUE(lines.empty());
    meter.setSink(nullptr);
}

} // namespace
} // namespace cachelab
