/**
 * @file
 * Tests for the campaign server (src/serve): wire protocol, spec
 * validation resilience, request coalescing with bitwise equivalence
 * against standalone sweeps, the warm resource cache, concurrent
 * clients with interleaved progress streams, and clean shutdown with
 * in-flight requests.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hh"
#include "serve/client.hh"
#include "serve/engine.hh"
#include "serve/server.hh"
#include "sim/sweep.hh"
#include "util/json_reader.hh"
#include "workload/kv_model.hh"
#include "workload/profiles.hh"

namespace cachelab::serve
{
namespace
{

/** A server on a unique socket, serving on a background thread. */
class TestServer
{
  public:
    explicit TestServer(
        std::uint64_t batch_window_ms, std::uint64_t max_requests = 0,
        const std::function<void(ServerOptions &)> &customize = {})
        : server_(makeOptions(batch_window_ms, max_requests, customize))
    {
        std::string error;
        if (!server_.start(&error))
            ADD_FAILURE() << "server start failed: " << error;
        thread_ = std::thread([this] { server_.serve(); });
    }

    ~TestServer() { stop(); }

    void
    stop()
    {
        server_.requestShutdown();
        if (thread_.joinable())
            thread_.join();
    }

    Server &server() { return server_; }
    const std::string &socket() const { return server_.socketPath(); }

    std::unique_ptr<Client>
    connect()
    {
        std::string error;
        auto client = Client::connect(socket(), &error);
        EXPECT_NE(client, nullptr) << error;
        return client;
    }

  private:
    static ServerOptions
    makeOptions(std::uint64_t batch_window_ms, std::uint64_t max_requests,
                const std::function<void(ServerOptions &)> &customize)
    {
        static std::atomic<int> counter{0};
        ServerOptions options;
        options.socketPath = "/tmp/cl_serve_test_" +
            std::to_string(::getpid()) + "_" +
            std::to_string(counter.fetch_add(1)) + ".sock";
        options.batchWindowMs = batch_window_ms;
        options.maxRequests = max_requests;
        if (customize)
            customize(options);
        return options;
    }

    Server server_;
    std::thread thread_;
};

/** Compare a manifest "stats" JSON object against exact CacheStats. */
void
expectStatsMatch(const JsonValue &json, const CacheStats &stats)
{
    const JsonValue &counters = json.at("counters");
    for (std::size_t k = 0; k < stats.accesses.size(); ++k) {
        EXPECT_EQ(counters.at("accesses").at(k).asUint(),
                  stats.accesses[k]);
        EXPECT_EQ(counters.at("misses").at(k).asUint(), stats.misses[k]);
    }
    EXPECT_EQ(counters.at("demand_fetches").asUint(), stats.demandFetches);
    EXPECT_EQ(counters.at("bytes_from_memory").asUint(),
              stats.bytesFromMemory);
    EXPECT_EQ(counters.at("bytes_to_memory").asUint(), stats.bytesToMemory);
    EXPECT_EQ(counters.at("replacement_pushes").asUint(),
              stats.replacementPushes);
    const JsonValue &derived = json.at("derived");
    EXPECT_EQ(derived.at("total_accesses").asUint(), stats.totalAccesses());
    EXPECT_EQ(derived.at("total_misses").asUint(), stats.totalMisses());
    EXPECT_EQ(derived.at("miss_ratio").asDouble(), stats.missRatio());
}

constexpr const char *kProfileSpecA = R"({
    "id": "tenant-a",
    "input": {"kind": "profile", "name": "VSPICE"},
    "cache": {"line_bytes": 16},
    "sizes": {"lo": 1024, "hi": 4096}
})";

constexpr const char *kProfileSpecB = R"({
    "id": "tenant-b",
    "input": {"kind": "profile", "name": "VSPICE"},
    "cache": {"line_bytes": 32, "associativity": 2},
    "sizes": [2048, 8192]
})";

TEST(Serve, InvalidSpecsGetErrorsAndTheServerSurvives)
{
    TestServer ts(0);
    auto client = ts.connect();
    ASSERT_NE(client, nullptr);

    // Not JSON at all: rejected client-side before it hits the wire.
    auto outcome = client->run("{nope");
    EXPECT_FALSE(outcome.ok);
    EXPECT_NE(outcome.error.find("not valid JSON"), std::string::npos);

    // Valid JSON, bad specs: the server answers with error events and
    // keeps serving this very connection.
    for (const char *bad : {
             R"({"input": {"kind": "profile", "name": "NOSUCH"},
                 "sizes": [1024]})",
             R"({"input": {"kind": "profile", "name": "VSPICE"}})",
             R"({"input": {"kind": "martian"}, "sizes": [1024]})",
             R"({"input": {"kind": "profile", "name": "VSPICE"},
                 "sizes": [1000]})",
             R"({"input": {"kind": "kv", "refs": 100, "ref_bytes": 24},
                 "sizes": [1024]})",
             R"({"input": {"kind": "kv", "refs": 100},
                 "warmup_refs": 100, "sizes": [1024]})",
             R"({"input": {"kind": "profile", "name": "VSPICE"},
                 "sizes": [1024], "timing": {"l2_hit_cycles": 5}})",
             R"([1, 2, 3])",
         }) {
        outcome = client->run(bad);
        EXPECT_FALSE(outcome.ok) << bad;
        EXPECT_FALSE(outcome.error.empty()) << bad;
    }
    EXPECT_TRUE(client->ping());

    // A missing trace file parses fine but fails at load time with a
    // per-request error, not a dead server.
    outcome = client->run(
        R"({"input": {"kind": "file", "name": "/nonexistent/x.din"},
            "sizes": [1024]})");
    EXPECT_FALSE(outcome.ok);
    EXPECT_TRUE(client->ping());

    // And a good spec still runs after all that abuse.
    outcome = client->run(kProfileSpecA);
    EXPECT_TRUE(outcome.ok) << outcome.error;
    EXPECT_FALSE(outcome.manifestJson.empty());
}

TEST(Serve, CoalescedRequestsAreBitwiseEqualToStandaloneSweeps)
{
    // A long batch window so two requests submitted together reliably
    // share one engine pass.
    TestServer ts(1000);

    Client::RunOutcome a, b;
    std::thread ta([&] {
        auto client = ts.connect();
        ASSERT_NE(client, nullptr);
        a = client->run(kProfileSpecA);
    });
    std::thread tb([&] {
        auto client = ts.connect();
        ASSERT_NE(client, nullptr);
        b = client->run(kProfileSpecB);
    });
    ta.join();
    tb.join();
    ASSERT_TRUE(a.ok) << a.error;
    ASSERT_TRUE(b.ok) << b.error;

    const auto ma = parseJson(a.manifestJson);
    const auto mb = parseJson(b.manifestJson);
    ASSERT_TRUE(ma && mb);

    // Both rode the same pass.
    EXPECT_EQ(ma->at("config").at("coalesced_group").asString(), "2");
    EXPECT_EQ(mb->at("config").at("coalesced_group").asString(), "2");

    // The standalone truth: materialize the same profile and sweep it
    // through the ordinary engine.
    const TraceProfile *profile = findTraceProfile("VSPICE");
    ASSERT_NE(profile, nullptr);
    const Trace trace = generateTrace(*profile);

    {
        CacheConfig base;
        base.lineBytes = 16;
        const auto points =
            sweepUnified(trace, {1024, 2048, 4096}, base, RunConfig{});
        const JsonValue &results = ma->at("results");
        ASSERT_EQ(results.size(), points.size());
        for (std::size_t i = 0; i < points.size(); ++i) {
            EXPECT_EQ(results.at(i).at("cache_bytes").asUint(),
                      points[i].cacheBytes);
            expectStatsMatch(results.at(i).at("stats"), points[i].stats);
        }
    }
    {
        CacheConfig base;
        base.lineBytes = 32;
        base.associativity = 2;
        const auto points =
            sweepUnified(trace, {2048, 8192}, base, RunConfig{});
        const JsonValue &results = mb->at("results");
        ASSERT_EQ(results.size(), points.size());
        for (std::size_t i = 0; i < points.size(); ++i)
            expectStatsMatch(results.at(i).at("stats"), points[i].stats);
    }
}

TEST(Serve, FourConcurrentClientsGetTheirOwnStreams)
{
    TestServer ts(100);

    constexpr int kClients = 4;
    struct PerClient
    {
        Client::RunOutcome outcome;
        std::vector<std::uint64_t> eventRequestIds;
    };
    std::vector<PerClient> results(kClients);
    std::vector<std::thread> threads;
    for (int i = 0; i < kClients; ++i) {
        threads.emplace_back([&ts, &results, i] {
            // Same input, per-tenant cache config: the classic
            // campaign fan-out shape.
            const std::string spec =
                R"({"id": "tenant-)" + std::to_string(i) +
                R"(", "input": {"kind": "profile", "name": "VSPICE"},
                    "cache": {"line_bytes": )" +
                std::to_string(16u << (i % 2)) +
                R"(}, "sizes": [)" + std::to_string(1024u << i) + "]}";
            auto client = ts.connect();
            ASSERT_NE(client, nullptr);
            results[i].outcome = client->run(
                spec, [&results, i](const JsonValue &event) {
                    if (const JsonValue *id = event.find("request_id");
                        id != nullptr && id->isUint())
                        results[i].eventRequestIds.push_back(id->asUint());
                });
        });
    }
    for (std::thread &t : threads)
        t.join();

    std::vector<std::uint64_t> ids;
    for (int i = 0; i < kClients; ++i) {
        const PerClient &pc = results[i];
        ASSERT_TRUE(pc.outcome.ok) << i << ": " << pc.outcome.error;
        EXPECT_GE(pc.outcome.progressEvents, 1u) << i;
        // Every event a client saw belongs to its own request: the
        // per-connection streams don't bleed into each other.
        for (std::uint64_t id : pc.eventRequestIds)
            EXPECT_EQ(id, pc.outcome.requestId) << i;
        ids.push_back(pc.outcome.requestId);

        const auto manifest = parseJson(pc.outcome.manifestJson);
        ASSERT_TRUE(manifest);
        EXPECT_EQ(manifest->at("config").at("spec_id").asString(),
                  "tenant-" + std::to_string(i));
    }
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end());
}

TEST(Serve, ResourceCacheServesRepeatRequestsWarm)
{
    TestServer ts(0);

    // Ten sequential requests over the same kv input, alternating
    // cache configs; the input is loaded once and then served warm.
    constexpr int kRequests = 10;
    for (int i = 0; i < kRequests; ++i) {
        const std::string spec =
            R"({"id": "round-)" + std::to_string(i) +
            R"(", "input": {"kind": "kv", "refs": 20000, "key_count": 512,
                            "seed": 9},
                "cache": {"line_bytes": )" +
            std::to_string(i % 2 == 0 ? 16 : 64) +
            R"(}, "sizes": [1024, 4096]})";
        auto client = ts.connect();
        ASSERT_NE(client, nullptr);
        const auto outcome = client->run(spec);
        ASSERT_TRUE(outcome.ok) << i << ": " << outcome.error;

        const auto manifest = parseJson(outcome.manifestJson);
        ASSERT_TRUE(manifest);
        EXPECT_EQ(manifest->at("config").at("resource_cache").asString(),
                  i == 0 ? "miss" : "hit")
            << i;
    }

    const ResourceCache::Stats cache = ts.server().cacheStats();
    EXPECT_EQ(cache.misses, 1u);
    EXPECT_EQ(cache.hits, kRequests - 1u);
    EXPECT_EQ(cache.entries, 1u);
    EXPECT_GT(cache.residentBytes, 0u);
    EXPECT_EQ(ts.server().completedRequests(), kRequests);

    // The stats op reports the same numbers over the wire.
    auto client = ts.connect();
    ASSERT_NE(client, nullptr);
    const auto stats_json = client->stats();
    ASSERT_TRUE(stats_json.has_value());
    const auto stats = parseJson(*stats_json);
    ASSERT_TRUE(stats);
    EXPECT_EQ(stats->at("cache_hits").asUint(), kRequests - 1u);
    EXPECT_EQ(stats->at("completed").asUint(), kRequests);
}

TEST(Serve, KvSpecsMatchDirectKvWorkloadSweeps)
{
    TestServer ts(0);
    auto client = ts.connect();
    ASSERT_NE(client, nullptr);
    const auto outcome = client->run(
        R"({"id": "kv", "input": {"kind": "kv", "refs": 30000,
                "key_count": 1024, "object_bytes": 64, "zipf_theta": 0.9,
                "scan_fraction": 0.05, "seed": 7},
            "cache": {"line_bytes": 64}, "sizes": [4096, 16384]})");
    ASSERT_TRUE(outcome.ok) << outcome.error;

    KvWorkloadParams params;
    params.refCount = 30000;
    params.keyCount = 1024;
    params.objectBytes = 64;
    params.zipfTheta = 0.9;
    params.scanFraction = 0.05;
    params.seed = 7;
    const Trace trace = generateKvWorkload(params, "kv");
    CacheConfig base;
    base.lineBytes = 64;
    const auto points = sweepUnified(trace, {4096, 16384}, base, RunConfig{});

    const auto manifest = parseJson(outcome.manifestJson);
    ASSERT_TRUE(manifest);
    const JsonValue &results = manifest->at("results");
    ASSERT_EQ(results.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i)
        expectStatsMatch(results.at(i).at("stats"), points[i].stats);
    EXPECT_EQ(manifest->at("input").at("refs").asUint(), 30000u);
}

TEST(Serve, ShutdownStillDeliversInFlightResults)
{
    // A long batch window parks the request in the queue; the
    // shutdown must cut the window short, run the request, deliver
    // its result, and only then exit.
    TestServer ts(10000);

    Client::RunOutcome outcome;
    std::thread tenant([&] {
        auto client = ts.connect();
        ASSERT_NE(client, nullptr);
        outcome = client->run(kProfileSpecA);
    });

    // Give the run request time to land in the queue, then shut down.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    {
        auto admin = ts.connect();
        ASSERT_NE(admin, nullptr);
        EXPECT_TRUE(admin->shutdownServer());
    }
    tenant.join();
    ts.stop();

    EXPECT_TRUE(outcome.ok) << outcome.error;
    EXPECT_FALSE(outcome.manifestJson.empty());
    EXPECT_EQ(ts.server().completedRequests(), 1u);

    // The socket is gone: new connections fail.
    std::string error;
    EXPECT_EQ(Client::connect(ts.socket(), &error), nullptr);
}

TEST(Serve, MaxRequestsAutoShutdown)
{
    TestServer ts(0, 2);
    {
        auto client = ts.connect();
        ASSERT_NE(client, nullptr);
        EXPECT_TRUE(client->run(kProfileSpecA).ok);
    }
    {
        auto client = ts.connect();
        ASSERT_NE(client, nullptr);
        EXPECT_TRUE(client->run(kProfileSpecB).ok);
    }
    ts.stop(); // returns promptly: the server shut itself down
    EXPECT_EQ(ts.server().completedRequests(), 2u);
}

// ------------------------------------------------------------------
// Service telemetry (DESIGN.md §4i): lifecycle timings in manifests,
// latency histograms behind the stats op, rejection/error counters,
// and the persistent run registry.

/** A unique, self-cleaning scratch directory under /tmp. */
class ScratchDir
{
  public:
    explicit ScratchDir(const char *tag)
    {
        static std::atomic<int> counter{0};
        path_ = std::string("/tmp/cl_serve_") + tag + "_" +
            std::to_string(::getpid()) + "_" +
            std::to_string(counter.fetch_add(1));
    }

    ~ScratchDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** Parse a manifest-config string member as a number. */
std::uint64_t
configUint(const JsonValue &manifest, std::string_view key)
{
    const JsonValue *value = manifest.at("config").find(key);
    if (value == nullptr) {
        ADD_FAILURE() << "config member missing: " << key;
        return 0;
    }
    return std::stoull(value->asString());
}

TEST(ServeTelemetry, ManifestsCarryRequestLifecycleTimings)
{
    TestServer ts(20);
    auto client = ts.connect();
    ASSERT_NE(client, nullptr);
    const auto outcome = client->run(kProfileSpecA);
    ASSERT_TRUE(outcome.ok) << outcome.error;

    const auto manifest = parseJson(outcome.manifestJson);
    ASSERT_TRUE(manifest);
    // The request sat in the coalescing window, so every stage is
    // populated and the wait is at least roughly the window width.
    const std::uint64_t queue_wait =
        configUint(*manifest, "serve.timing.queue_wait_ns");
    const std::uint64_t coalesce_wait =
        configUint(*manifest, "serve.timing.coalesce_wait_ns");
    const std::uint64_t exec =
        configUint(*manifest, "serve.timing.exec_ns");
    EXPECT_GT(exec, 0u);
    EXPECT_GE(queue_wait, coalesce_wait);
    EXPECT_GE(coalesce_wait, 1000000u); // 20 ms window, 1 ms slack
}

TEST(ServeTelemetry, StatsOpExposesHistogramsMatchingCompletedRequests)
{
    obs::Registry::global().resetForTesting();
    TestServer ts(0);

    constexpr int kRuns = 5;
    for (int i = 0; i < kRuns; ++i) {
        auto client = ts.connect();
        ASSERT_NE(client, nullptr);
        ASSERT_TRUE(client->run(i % 2 == 0 ? kProfileSpecA : kProfileSpecB)
                        .ok);
    }

    auto client = ts.connect();
    ASSERT_NE(client, nullptr);
    const auto stats_json = client->stats();
    ASSERT_TRUE(stats_json.has_value());
    const auto stats = parseJson(*stats_json);
    ASSERT_TRUE(stats);
    ASSERT_EQ(stats->at("completed").asUint(), kRuns);

    // The histogram invariant CI also checks: e2e samples == completed
    // requests (early rejections never reach the histograms).
    const JsonValue &histograms = stats->at("metrics").at("histograms");
    const JsonValue &e2e = histograms.at("serve.latency.e2e_ns");
    EXPECT_EQ(e2e.at("count").asUint(), kRuns);
    EXPECT_EQ(histograms.at("serve.latency.exec_ns").at("count").asUint(),
              kRuns);
    EXPECT_EQ(
        histograms.at("serve.latency.queue_wait_ns").at("count").asUint(),
        kRuns);

    // Quantiles are monotone and bounded by the observed max.
    const double p50 = e2e.at("p50").asDouble();
    const double p90 = e2e.at("p90").asDouble();
    const double p99 = e2e.at("p99").asDouble();
    EXPECT_GT(p50, 0.0);
    EXPECT_LE(p50, p90);
    EXPECT_LE(p90, p99);
    EXPECT_LE(p99, static_cast<double>(e2e.at("max").asUint()));

    // Per-tenant counters: both tenants show up with their runs.
    const JsonValue &counters = stats->at("metrics").at("counters");
    EXPECT_EQ(counters.at("serve.tenant.requests{tenant=tenant-a}")
                  .asUint(),
              3u);
    EXPECT_EQ(counters.at("serve.tenant.requests{tenant=tenant-b}")
                  .asUint(),
              2u);
    EXPECT_EQ(counters.at("serve.input.requests{kind=profile}").asUint(),
              kRuns);
}

TEST(ServeTelemetry, RejectionsAndErrorsAreCounted)
{
    obs::Registry::global().resetForTesting();
    // A zero-length queue: every run request bounces with "busy".
    TestServer ts(0, 0,
                  [](ServerOptions &options) { options.maxQueue = 0; });

    {
        auto client = ts.connect();
        ASSERT_NE(client, nullptr);
        const auto outcome = client->run(kProfileSpecA);
        EXPECT_FALSE(outcome.ok);
        EXPECT_NE(outcome.error.find("busy"), std::string::npos)
            << outcome.error;
    }
    {
        // Invalid specs fail validation before the queue: they count
        // as errors, not rejections.
        auto client = ts.connect();
        ASSERT_NE(client, nullptr);
        EXPECT_FALSE(
            client->run(R"({"input": {"kind": "martian"}, "sizes": [1]})")
                .ok);
    }

    auto client = ts.connect();
    ASSERT_NE(client, nullptr);
    const auto stats_json = client->stats();
    ASSERT_TRUE(stats_json.has_value());
    const auto stats = parseJson(*stats_json);
    ASSERT_TRUE(stats);
    const JsonValue &counters = stats->at("metrics").at("counters");
    EXPECT_EQ(counters.at("serve.rejected").asUint(), 1u);
    EXPECT_EQ(counters.at("serve.errors").asUint(), 1u);
    EXPECT_EQ(stats->at("completed").asUint(), 0u);
    // Nothing completed, so no latency samples were recorded.  (The
    // series may exist at count 0 when an earlier same-process test
    // registered it; resetForTesting zeroes in place.)
    const JsonValue *e2e =
        stats->at("metrics").at("histograms").find("serve.latency.e2e_ns");
    if (e2e != nullptr) {
        EXPECT_EQ(e2e->at("count").asUint(), 0u);
    }
}

TEST(ServeTelemetry, RunRegistryRecordsOkAndErrorOutcomes)
{
    ScratchDir dir("registry");
    TestServer ts(0, 0, [&dir](ServerOptions &options) {
        options.registryDir = dir.path();
        options.registryMaxRuns = 8;
    });

    {
        auto client = ts.connect();
        ASSERT_NE(client, nullptr);
        ASSERT_TRUE(client->run(kProfileSpecA).ok);
        // A spec that validates but fails at load time: the registry
        // must still record the attempt, with outcome "error".
        EXPECT_FALSE(
            client
                ->run(R"({"id": "tenant-broken",
                          "input": {"kind": "file",
                                    "name": "/nonexistent/x.din"},
                          "sizes": [1024]})")
                .ok);
    }
    ts.stop();

    std::ifstream is(dir.path() + "/index.json");
    ASSERT_TRUE(is.good()) << "missing " << dir.path() << "/index.json";
    std::ostringstream buffer;
    buffer << is.rdbuf();
    const auto index = parseJson(buffer.str());
    ASSERT_TRUE(index);
    EXPECT_EQ(index->at("schema").asString(), "cachelab.run_registry");
    const JsonValue &runs = index->at("runs");
    ASSERT_EQ(runs.size(), 2u);

    EXPECT_EQ(runs.at(0).at("tenant").asString(), "tenant-a");
    EXPECT_EQ(runs.at(0).at("outcome").asString(), "ok");
    EXPECT_GT(runs.at(0).at("e2e_ns").asUint(), 0u);
    EXPECT_EQ(runs.at(0).at("manifest").asString(), "run-1.json");
    // The persisted manifest is the same document the client got.
    std::ifstream manifest_file(dir.path() + "/run-1.json");
    ASSERT_TRUE(manifest_file.good());
    std::ostringstream manifest_text;
    manifest_text << manifest_file.rdbuf();
    const auto manifest = parseJson(manifest_text.str());
    ASSERT_TRUE(manifest);
    EXPECT_EQ(manifest->at("config").at("spec_id").asString(), "tenant-a");

    EXPECT_EQ(runs.at(1).at("tenant").asString(), "tenant-broken");
    EXPECT_EQ(runs.at(1).at("outcome").asString(), "error");
    EXPECT_EQ(runs.at(1).find("manifest"), nullptr);
    EXPECT_FALSE(
        std::filesystem::exists(dir.path() + "/run-2.json"));
}

// ------------------------------------------------------------------
// Resource-cache byte-cap boundary behaviour.  KV traces materialize
// exactly `refs` references at 16 B each (sizeof(MemoryRef) is
// static_asserted), so the cap arithmetic below is exact.

/** A kv spec with @p refs references, keyed by @p tenant + @p seed. */
std::string
kvSpec(const std::string &tenant, std::uint64_t refs, std::uint64_t seed)
{
    return R"({"id": ")" + tenant +
        R"(", "input": {"kind": "kv", "refs": )" + std::to_string(refs) +
        R"(, "key_count": 64, "seed": )" + std::to_string(seed) +
        R"(}, "cache": {"line_bytes": 16}, "sizes": [1024]})";
}

TEST(ResourceCacheBoundary, EntryExactlyAtTheCapIsRetained)
{
    // Cap = 1000 refs exactly; the trace fills it to the byte.
    TestServer ts(0, 0, [](ServerOptions &options) {
        options.cacheBytes = 1000 * sizeof(MemoryRef);
    });
    auto client = ts.connect();
    ASSERT_NE(client, nullptr);
    ASSERT_TRUE(client->run(kvSpec("tenant-a", 1000, 1)).ok);
    ASSERT_TRUE(client->run(kvSpec("tenant-a", 1000, 1)).ok);

    const ResourceCache::Stats cache = ts.server().cacheStats();
    EXPECT_EQ(cache.misses, 1u);
    EXPECT_EQ(cache.hits, 1u);
    EXPECT_EQ(cache.entries, 1u);
    EXPECT_EQ(cache.residentBytes, 1000 * sizeof(MemoryRef));
}

TEST(ResourceCacheBoundary, OversizeEntryIsServedButNeverRetained)
{
    TestServer ts(0, 0, [](ServerOptions &options) {
        options.cacheBytes = 1000 * sizeof(MemoryRef);
    });
    auto client = ts.connect();
    ASSERT_NE(client, nullptr);
    // A small input is resident; a one-ref-over-cap input must be
    // served correctly yet bypass the cache entirely -- including NOT
    // evicting the small tenant to make room it can never get.
    ASSERT_TRUE(client->run(kvSpec("tenant-small", 500, 1)).ok);
    ASSERT_TRUE(client->run(kvSpec("tenant-big", 1001, 2)).ok);
    ASSERT_TRUE(client->run(kvSpec("tenant-big", 1001, 2)).ok);
    ASSERT_TRUE(client->run(kvSpec("tenant-small", 500, 1)).ok);

    const ResourceCache::Stats cache = ts.server().cacheStats();
    EXPECT_EQ(cache.entries, 1u);
    EXPECT_EQ(cache.evictions, 0u);
    EXPECT_EQ(cache.residentBytes, 500 * sizeof(MemoryRef));
    EXPECT_EQ(cache.hits, 1u);   // the small re-acquire
    EXPECT_EQ(cache.misses, 3u); // small cold + big twice
}

TEST(ResourceCacheBoundary, LruEvictionFollowsRecencyAcrossTenants)
{
    // Room for 2000 refs: any two of the three inputs fit, never all
    // three (800 + 900 + 900 = 2600).
    TestServer ts(0, 0, [](ServerOptions &options) {
        options.cacheBytes = 2000 * sizeof(MemoryRef);
    });
    auto client = ts.connect();
    ASSERT_NE(client, nullptr);

    ASSERT_TRUE(client->run(kvSpec("tenant-a", 800, 1)).ok); // miss {A}
    ASSERT_TRUE(client->run(kvSpec("tenant-b", 900, 2)).ok); // miss {B,A}
    ASSERT_TRUE(client->run(kvSpec("tenant-a", 800, 1)).ok); // hit  {A,B}
    // C needs 900: evicts the least recent (B), not the re-touched A.
    ASSERT_TRUE(client->run(kvSpec("tenant-c", 900, 3)).ok); // miss {C,A}
    ASSERT_TRUE(client->run(kvSpec("tenant-a", 800, 1)).ok); // hit  {A,C}
    // B again: evicts C, the stalest entry now.
    ASSERT_TRUE(client->run(kvSpec("tenant-b", 900, 2)).ok); // miss {B,A}

    const ResourceCache::Stats cache = ts.server().cacheStats();
    EXPECT_EQ(cache.hits, 2u);
    EXPECT_EQ(cache.misses, 4u);
    EXPECT_EQ(cache.evictions, 2u);
    EXPECT_EQ(cache.entries, 2u);
    EXPECT_EQ(cache.residentBytes, (800 + 900) * sizeof(MemoryRef));
}

} // namespace
} // namespace cachelab::serve
