/**
 * @file
 * Tests for the service-telemetry layer: the registry histogram cell
 * and its quantile estimator, request lifecycle spans, the metrics-snapshot
 * flight-recorder line format, structured log lines, and the run
 * registry's persistence + bounded retention.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/telemetry.hh"
#include "serve/run_registry.hh"
#include "serve/spec.hh"
#include "util/json_reader.hh"
#include "util/json_writer.hh"
#include "util/logging.hh"

namespace cachelab
{
namespace
{

TEST(RegistryHistogram, EmptySnapshotIsAllZero)
{
    obs::Histogram h;
    const Log2Histogram snap = h.snapshot();
    EXPECT_EQ(snap.count, 0u);
    EXPECT_EQ(snap.max, 0u);
    EXPECT_EQ(snap.mean(), 0.0);
    EXPECT_EQ(snap.quantile(0.5), 0.0);
    EXPECT_EQ(snap.usedBuckets(), 0u);
}

TEST(RegistryHistogram, BucketsFollowTheLog2Convention)
{
    // Bucket k holds [2^(k-1), 2^k); bucket 0 holds {0}.
    obs::Histogram h;
    h.record(0);
    h.record(1);
    h.record(2);
    h.record(3);
    h.record(4);
    h.record(1024);
    h.record(1025);
    const Log2Histogram snap = h.snapshot();
    EXPECT_EQ(snap.buckets[0], 1u); // {0}
    EXPECT_EQ(snap.buckets[1], 1u); // [1, 2)
    EXPECT_EQ(snap.buckets[2], 2u); // [2, 4)
    EXPECT_EQ(snap.buckets[3], 1u); // [4, 8)
    EXPECT_EQ(snap.buckets[11], 2u); // [1024, 2048)
    EXPECT_EQ(snap.count, 7u);
    EXPECT_EQ(snap.sum, 2059u);
    EXPECT_EQ(snap.max, 1025u);
    EXPECT_EQ(snap.usedBuckets(), 12u);
}

TEST(RegistryHistogram, QuantilesAreMonotoneAndBoundedByMax)
{
    obs::Histogram h;
    for (std::uint64_t v : {10u, 20u, 40u, 80u, 200u, 500u, 900u, 5000u})
        h.record(v);
    const Log2Histogram snap = h.snapshot();
    const double p50 = snap.quantile(0.50);
    const double p90 = snap.quantile(0.90);
    const double p99 = snap.quantile(0.99);
    EXPECT_LE(p50, p90);
    EXPECT_LE(p90, p99);
    EXPECT_GT(p50, 0.0);
    EXPECT_LE(p99, static_cast<double>(snap.max));
    // The p50 must land in the vicinity of the middle samples, not at
    // either extreme.
    EXPECT_GE(p50, 10.0);
    EXPECT_LE(p50, 200.0);
}

TEST(RegistryHistogram, MeanMaxAndResetBehave)
{
    obs::Histogram h;
    h.record(100);
    h.record(300);
    Log2Histogram snap = h.snapshot();
    EXPECT_DOUBLE_EQ(snap.mean(), 200.0);
    EXPECT_EQ(snap.max, 300u);
    h.reset();
    snap = h.snapshot();
    EXPECT_EQ(snap.count, 0u);
    EXPECT_EQ(snap.sum, 0u);
    EXPECT_EQ(snap.max, 0u);
    EXPECT_EQ(snap.usedBuckets(), 0u);
}

TEST(RegistryHistogram, TopBucketCoversTheUpperHalfOfUint64)
{
    // Bucket 64 holds [2^63, 2^64): the largest representable
    // latencies must land there — not wrap, not fall off the array.
    obs::Histogram h;
    const std::uint64_t huge = std::uint64_t{1} << 63;
    h.record(huge - 1); // top of bucket 63
    h.record(huge);     // bottom of bucket 64
    h.record(std::numeric_limits<std::uint64_t>::max());
    const Log2Histogram snap = h.snapshot();
    EXPECT_EQ(snap.buckets[63], 1u);
    EXPECT_EQ(snap.buckets[64], 2u);
    EXPECT_EQ(snap.count, 3u);
    EXPECT_EQ(snap.max, std::numeric_limits<std::uint64_t>::max());
    EXPECT_EQ(snap.usedBuckets(), Log2Histogram::kBuckets);
    // Quantiles at the extreme top stay finite and never exceed the
    // observed maximum.
    const double p99 = snap.quantile(0.99);
    EXPECT_TRUE(std::isfinite(p99));
    EXPECT_GT(p99, 0.0);
    EXPECT_LE(p99, static_cast<double>(snap.max));
}

TEST(RegistryHistogram, QuantileInterpolationClampsAtTheRecordedMax)
{
    // A lone sample at 1000 sits in bucket [512, 1024); naive
    // interpolation at q = 1 would report the bucket's upper edge
    // (1024), but the estimator must never exceed the recorded max.
    obs::Histogram h;
    h.record(1000);
    Log2Histogram snap = h.snapshot();
    EXPECT_DOUBLE_EQ(snap.quantile(1.0), 1000.0);
    EXPECT_DOUBLE_EQ(snap.quantile(0.5), 1000.0);
    // Same clamp with company in the bucket: every quantile that
    // lands in [512, 1024) is capped by the 1000 maximum.
    h.record(513);
    snap = h.snapshot();
    EXPECT_LE(snap.quantile(0.99), 1000.0);
    EXPECT_LE(snap.quantile(1.0), 1000.0);
}

/** @return the sum of @p h's buckets. */
std::uint64_t
bucketTotal(const Log2Histogram &h)
{
    std::uint64_t total = 0;
    for (const std::uint64_t b : h.buckets)
        total += b;
    return total;
}

// Named so the CI TSan pass (-R ...|MetricsRegistry|...) covers it:
// reset() racing record() must stay data-race free, and a quiescent
// reset must leave the histogram exactly empty.
TEST(MetricsRegistryLatency, ResetUnderConcurrentRecordsStaysCoherent)
{
    obs::Registry registry;
    obs::Histogram &h = registry.histogram("reset_race_ns");
    std::atomic<bool> stop{false};
    std::vector<std::thread> writers;
    for (int t = 0; t < 3; ++t) {
        writers.emplace_back([&h, &stop] {
            std::uint64_t v = 0;
            while (!stop.load(std::memory_order_relaxed))
                h.record(v++ & 0xffff);
        });
    }
    for (int i = 0; i < 200; ++i)
        h.reset();
    stop.store(true, std::memory_order_relaxed);
    for (std::thread &t : writers)
        t.join();
    h.reset();
    const Log2Histogram snap = h.snapshot();
    EXPECT_EQ(snap.count, 0u);
    EXPECT_EQ(snap.max, 0u);
    EXPECT_EQ(snap.usedBuckets(), 0u);
    EXPECT_EQ(bucketTotal(snap), snap.count);
}

// Named so the CI TSan pass (-R ...|MetricsRegistry|...) covers it.
TEST(MetricsRegistryLatency, ConcurrentRecordsNeverTearOrDrop)
{
    obs::Registry registry;
    obs::Histogram &h = registry.histogram("race_ns");
    constexpr int kThreads = 4;
    constexpr int kPerThread = 20000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&h, t] {
            for (int i = 0; i < kPerThread; ++i)
                h.record(static_cast<std::uint64_t>(t * kPerThread + i));
        });
    }
    for (std::thread &t : threads)
        t.join();
    const Log2Histogram snap = h.snapshot();
    EXPECT_EQ(snap.count,
              static_cast<std::uint64_t>(kThreads) * kPerThread);
    EXPECT_EQ(bucketTotal(snap), snap.count);
    EXPECT_EQ(snap.max,
              static_cast<std::uint64_t>(kThreads) * kPerThread - 1);
}

// Named so the CI TSan pass (-R ...|MetricsRegistry|...) covers it:
// the request path record()s while a probe sink's publish() merge()s
// into the same cell, and neither may lose the other's samples.
TEST(MetricsRegistryLatency, RecordRacingMergeKeepsEveryTotal)
{
    obs::Registry registry;
    obs::Histogram &h = registry.histogram("mixed_ns");
    constexpr std::uint64_t kRecords = 20000;
    constexpr int kMerges = 200;
    Log2Histogram batch;
    for (const std::uint64_t v : {0u, 7u, 300u, 70000u})
        batch.add(v);

    std::thread recorder([&h] {
        for (std::uint64_t i = 0; i < kRecords; ++i)
            h.record(i % 1000);
    });
    std::thread merger([&h, &batch] {
        for (int i = 0; i < kMerges; ++i)
            h.merge(batch);
    });
    recorder.join();
    merger.join();

    Log2Histogram want;
    for (std::uint64_t i = 0; i < kRecords; ++i)
        want.add(i % 1000);
    for (int i = 0; i < kMerges; ++i)
        want.merge(batch);
    const Log2Histogram got = h.snapshot();
    EXPECT_EQ(got.count, want.count);
    EXPECT_EQ(got.sum, want.sum);
    EXPECT_EQ(got.max, want.max);
    EXPECT_EQ(got.buckets, want.buckets);
}

TEST(MetricsRegistryLatency, SnapshotCarriesLatenciesAndJsonGatesOnThem)
{
    obs::Registry registry;

    // No histogram registered: the document's histogram object is
    // empty.
    registry.counter("plain").add(3);
    {
        std::ostringstream os;
        JsonWriter w(os, JsonWriter::Compact);
        registry.snapshot().writeJson(w);
        EXPECT_NE(os.str().find("\"histograms\":{}"), std::string::npos)
            << os.str();
    }

    registry.histogram("serve.latency.e2e_ns").record(1500);
    const obs::MetricsSnapshot snap = registry.snapshot();
    ASSERT_NE(snap.histogramFor("serve.latency.e2e_ns"), nullptr);
    EXPECT_EQ(snap.histogramFor("serve.latency.e2e_ns")->count, 1u);
    EXPECT_EQ(snap.histogramFor("nope"), nullptr);

    std::ostringstream os;
    JsonWriter w(os, JsonWriter::Compact);
    snap.writeJson(w);
    const auto doc = parseJson(os.str());
    ASSERT_TRUE(doc);
    EXPECT_EQ(doc->find("latencies"), nullptr);
    const JsonValue &series =
        doc->at("histograms").at("serve.latency.e2e_ns");
    EXPECT_EQ(series.at("count").asUint(), 1u);
    EXPECT_EQ(series.at("mean").asDouble(), 1500.0);
    EXPECT_EQ(series.at("max").asUint(), 1500u);
    EXPECT_LE(series.at("p50").asDouble(), series.at("p90").asDouble());
    EXPECT_LE(series.at("p90").asDouble(), series.at("p99").asDouble());
    // Buckets are trimmed after the last non-empty one ([1024, 2048)).
    EXPECT_EQ(series.at("log2_buckets").size(), 12u);
}

TEST(RequestSpan, DurationAccessorsHandleUnsetStages)
{
    obs::RequestSpan span;
    EXPECT_EQ(span.queueWaitNs(), 0u);
    EXPECT_EQ(span.execNs(), 0u);
    EXPECT_EQ(span.endToEndNs(), 0u);
    EXPECT_EQ(span.coalesceWaitNs(), 0u);

    using namespace std::chrono;
    const auto t0 = obs::RequestSpan::Clock::now();
    span.received = t0;
    span.validated = t0 + microseconds(1);
    span.queued = t0 + microseconds(2);
    span.windowOpened = t0 + microseconds(3);
    span.executeStart = t0 + microseconds(10);
    span.executeEnd = t0 + microseconds(110);
    span.replied = t0 + microseconds(120);

    EXPECT_EQ(span.queueWaitNs(), 8000u);
    // Later of queued/windowOpened -> executeStart.
    EXPECT_EQ(span.coalesceWaitNs(), 7000u);
    EXPECT_EQ(span.execNs(), 100000u);
    EXPECT_EQ(span.endToEndNs(), 120000u);
}

TEST(ServiceTelemetry, RecordRequestPopulatesSeriesAndCounters)
{
    obs::Registry registry;
    obs::ServiceTelemetry telemetry(registry);

    using namespace std::chrono;
    obs::RequestSpan span;
    const auto t0 = obs::RequestSpan::Clock::now();
    span.received = t0;
    span.queued = t0 + microseconds(1);
    span.executeStart = t0 + microseconds(5);
    span.executeEnd = t0 + microseconds(55);
    span.replied = t0 + microseconds(60);

    obs::RequestRecord record;
    record.tenant = "tenant-a";
    record.inputKind = "profile";
    record.refs = 1000;
    record.bytes = 16000;
    record.cacheHit = true;
    telemetry.recordRequest(span, record);

    const obs::MetricsSnapshot snap = registry.snapshot();
    ASSERT_NE(snap.histogramFor(obs::kEndToEndSeries), nullptr);
    EXPECT_EQ(snap.histogramFor(obs::kEndToEndSeries)->count, 1u);
    ASSERT_NE(snap.histogramFor(obs::kQueueWaitSeries), nullptr);
    EXPECT_EQ(snap.histogramFor(obs::kQueueWaitSeries)->count, 1u);
    ASSERT_NE(snap.histogramFor(obs::kExecSeries), nullptr);
    // No coalesce window joined: that series must not exist.
    EXPECT_EQ(snap.histogramFor(obs::kCoalesceWaitSeries), nullptr);

    EXPECT_EQ(
        snap.counterValue("serve.tenant.requests{tenant=tenant-a}"), 1u);
    EXPECT_EQ(snap.counterValue("serve.tenant.refs{tenant=tenant-a}"),
              1000u);
    EXPECT_EQ(snap.counterValue("serve.tenant.bytes{tenant=tenant-a}"),
              16000u);
    EXPECT_EQ(
        snap.counterValue("serve.tenant.cache_hits{tenant=tenant-a}"),
        1u);
    EXPECT_EQ(snap.counterValue("serve.input.requests{kind=profile}"),
              1u);

    // An empty tenant id lands under "anonymous"; an error request
    // still counts toward the tenant and the e2e distribution.
    obs::RequestRecord anonymous;
    anonymous.inputKind = "file";
    anonymous.error = true;
    obs::RequestSpan bare;
    bare.received = t0;
    bare.replied = t0 + microseconds(2);
    telemetry.recordRequest(bare, anonymous);
    const obs::MetricsSnapshot snap2 = registry.snapshot();
    EXPECT_EQ(
        snap2.counterValue("serve.tenant.requests{tenant=anonymous}"), 1u);
    EXPECT_EQ(
        snap2.counterValue("serve.tenant.errors{tenant=anonymous}"), 1u);
    EXPECT_EQ(snap2.histogramFor(obs::kEndToEndSeries)->count, 2u);
    // ...but no executor stages, so queue-wait stays at one sample.
    EXPECT_EQ(snap2.histogramFor(obs::kQueueWaitSeries)->count, 1u);
}

TEST(ServiceTelemetry, MetricsSnapshotLineRoundTrips)
{
    obs::Registry registry;
    registry.counter("serve.requests").add(7);
    registry.histogram(obs::kEndToEndSeries).record(123456);

    std::ostringstream os;
    obs::writeMetricsSnapshotLine(os, registry.snapshot(), 3, 1754700000123,
                                  42000000000ull);
    const std::string line = os.str();
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.back(), '\n');
    // One line exactly: it is a JSONL record.
    EXPECT_EQ(line.find('\n'), line.size() - 1);

    const auto doc = parseJson(line);
    ASSERT_TRUE(doc);
    EXPECT_EQ(doc->at("schema").asString(), "cachelab.metrics_snapshot");
    EXPECT_EQ(doc->at("schema_version").asUint(), 2u);
    EXPECT_EQ(doc->at("seq").asUint(), 3u);
    EXPECT_EQ(doc->at("unix_ms").asInt(), 1754700000123);
    EXPECT_EQ(doc->at("uptime_ns").asUint(), 42000000000ull);
    const JsonValue &metrics = doc->at("metrics");
    EXPECT_EQ(metrics.at("counters").at("serve.requests").asUint(), 7u);
    EXPECT_EQ(metrics.at("histograms")
                  .at(std::string(obs::kEndToEndSeries))
                  .at("count")
                  .asUint(),
              1u);
}

TEST(StructuredLogging, LineCarriesSeverityTimestampComponentAndFields)
{
    const std::string line = detail::formatStructuredLine(
        LogLevel::Info, "serve.server", "request accepted",
        {{"conn", 3}, {"tenant", "tenant-a"}});
    // "info <ISO-8601 UTC ms> serve.server request accepted k=v ..."
    ASSERT_EQ(line.rfind("info ", 0), 0u) << line;
    const std::string stamp = line.substr(5, 24);
    EXPECT_EQ(stamp.size(), 24u);
    EXPECT_EQ(stamp[4], '-');
    EXPECT_EQ(stamp[10], 'T');
    EXPECT_EQ(stamp[19], '.');
    EXPECT_EQ(stamp[23], 'Z');
    EXPECT_NE(line.find(" serve.server request accepted"),
              std::string::npos)
        << line;
    EXPECT_NE(line.find(" conn=3"), std::string::npos) << line;
    EXPECT_NE(line.find(" tenant=tenant-a"), std::string::npos) << line;
}

TEST(StructuredLogging, ValuesWithSpacesOrQuotesAreQuoted)
{
    const std::string line = detail::formatStructuredLine(
        LogLevel::Warn, "serve.server", "oops",
        {{"error", "queue is full"}, {"quoted", "say \"hi\""}, {"empty", ""}});
    EXPECT_EQ(line.rfind("warn ", 0), 0u) << line;
    EXPECT_NE(line.find(" error=\"queue is full\""), std::string::npos)
        << line;
    EXPECT_NE(line.find(" quoted=\"say \\\"hi\\\"\""), std::string::npos)
        << line;
    EXPECT_NE(line.find(" empty=\"\""), std::string::npos) << line;
}

TEST(StructuredLogging, DebugLevelComesFromTheEnvironmentWord)
{
    // logStructured(Debug) is a no-op at the default Info level and
    // emits once the level is raised; exercised via the level gate.
    const LogLevel before = logLevel();
    setLogLevel(LogLevel::Info);
    EXPECT_FALSE(logLevelEnabled(LogLevel::Debug));
    setLogLevel(LogLevel::Debug);
    EXPECT_TRUE(logLevelEnabled(LogLevel::Debug));
    setLogLevel(before);
}

/** A unique, self-cleaning registry directory under /tmp. */
class RegistryDir
{
  public:
    RegistryDir()
    {
        static std::atomic<int> counter{0};
        path_ = "/tmp/cl_run_registry_test_" + std::to_string(::getpid()) +
                "_" + std::to_string(counter.fetch_add(1));
    }

    ~RegistryDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

serve::RunRecord
makeRecord(std::string tenant, std::uint64_t e2e_ns)
{
    serve::RunRecord record;
    record.requestId = 1;
    record.tenant = std::move(tenant);
    record.input = "VSPICE";
    record.inputKind = "profile";
    record.specHash = 0xdeadbeefcafef00dull;
    record.outcome = "ok";
    record.refs = 1000;
    record.cacheHit = true;
    record.queueWaitNs = 10;
    record.execNs = 20;
    record.e2eNs = e2e_ns;
    record.unixMs = 1754700000000;
    return record;
}

TEST(RunRegistry, AppendPersistsManifestAndIndex)
{
    RegistryDir dir;
    std::string error;
    serve::RunRegistry registry(dir.path(), 8, &error);
    EXPECT_TRUE(error.empty()) << error;

    ASSERT_TRUE(registry.append(makeRecord("tenant-a", 100),
                                R"({"schema":"cachelab.run_manifest"})",
                                &error))
        << error;
    ASSERT_TRUE(
        registry.append(makeRecord("tenant-b", 200), {}, &error))
        << error;
    EXPECT_EQ(registry.runCount(), 2u);

    EXPECT_TRUE(
        std::filesystem::exists(dir.path() + "/run-1.json"));
    // Second append had no manifest (error outcome): no run file.
    EXPECT_FALSE(
        std::filesystem::exists(dir.path() + "/run-2.json"));

    std::ifstream is(dir.path() + "/index.json");
    ASSERT_TRUE(is.good());
    std::ostringstream buffer;
    buffer << is.rdbuf();
    const auto doc = parseJson(buffer.str());
    ASSERT_TRUE(doc);
    EXPECT_EQ(doc->at("schema").asString(), "cachelab.run_registry");
    EXPECT_EQ(doc->at("schema_version").asUint(), 1u);
    const JsonValue &runs = doc->at("runs");
    ASSERT_EQ(runs.size(), 2u);
    EXPECT_EQ(runs.at(0).at("seq").asUint(), 1u);
    EXPECT_EQ(runs.at(0).at("tenant").asString(), "tenant-a");
    EXPECT_EQ(runs.at(0).at("spec_hash").asString(), "deadbeefcafef00d");
    EXPECT_EQ(runs.at(0).at("manifest").asString(), "run-1.json");
    EXPECT_EQ(runs.at(1).at("seq").asUint(), 2u);
    EXPECT_EQ(runs.at(1).at("e2e_ns").asUint(), 200u);
}

TEST(RunRegistry, RetentionPrunesTheOldestRun)
{
    RegistryDir dir;
    std::string error;
    serve::RunRegistry registry(dir.path(), 2, &error);
    for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(registry.append(
            makeRecord("tenant-" + std::to_string(i), 100 + i),
            R"({"k":1})", &error))
            << error;
    }
    EXPECT_EQ(registry.runCount(), 2u);
    EXPECT_FALSE(std::filesystem::exists(dir.path() + "/run-1.json"));
    EXPECT_TRUE(std::filesystem::exists(dir.path() + "/run-2.json"));
    EXPECT_TRUE(std::filesystem::exists(dir.path() + "/run-3.json"));
}

TEST(RunRegistry, ReloadContinuesTheSequenceAcrossRestarts)
{
    RegistryDir dir;
    std::string error;
    {
        serve::RunRegistry registry(dir.path(), 8, &error);
        ASSERT_TRUE(
            registry.append(makeRecord("tenant-a", 1), R"({"k":1})",
                            &error))
            << error;
    }
    serve::RunRegistry reopened(dir.path(), 8, &error);
    EXPECT_TRUE(error.empty()) << error;
    EXPECT_EQ(reopened.runCount(), 1u);
    ASSERT_TRUE(
        reopened.append(makeRecord("tenant-b", 2), R"({"k":2})", &error))
        << error;
    EXPECT_TRUE(std::filesystem::exists(dir.path() + "/run-2.json"));
}

TEST(RunRegistry, SpecIdentityHashSeparatesSpecs)
{
    serve::ExperimentSpec a;
    a.input.kind = serve::InputSpec::Kind::Profile;
    a.input.name = "VSPICE";
    a.sizes = {1024, 4096};
    // Pinned: run registries on disk carry this hash, so a change to
    // the hash composition must be deliberate.
    EXPECT_EQ(serve::specIdentityHash(a), 0x66fdd542932ae627ULL);
    serve::ExperimentSpec b = a;
    EXPECT_EQ(serve::specIdentityHash(a), serve::specIdentityHash(b));
    b.sizes = {1024, 8192};
    EXPECT_NE(serve::specIdentityHash(a), serve::specIdentityHash(b));
    serve::ExperimentSpec c = a;
    c.base.lineBytes = 64;
    EXPECT_NE(serve::specIdentityHash(a), serve::specIdentityHash(c));
    // The tenant label is NOT identity: same experiment, same hash.
    serve::ExperimentSpec d = a;
    d.id = "someone-else";
    EXPECT_EQ(serve::specIdentityHash(a), serve::specIdentityHash(d));
}

} // namespace
} // namespace cachelab
