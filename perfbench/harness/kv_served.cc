/**
 * @file
 * kv_served: a served KV design space as a closed loop with two
 * clients.  Set-up starts a serve::Server (jobs = 1), connects two
 * clients and warms the server with one request.  Each operation is
 * one request: a sweep of an 8-way copy-back cache over eight sizes on
 * one shared KV input.  The clients submit in rounds; the replacement
 * policy of a round comes from a seeded rotation, and the round's two
 * requests coalesce into one pass.  The second client's requests add
 * task-switch purges, so the two tenants of a pass get different
 * statistics at the same cost, and a result delivered to the wrong
 * tenant fails the check.
 *
 * The Cache index, policy and admission code do most of the work, on a
 * miss-, eviction- and write-back-heavy stream.  Batching, coalescing,
 * the resource cache and the protocol show up as request latency.
 */

#include <algorithm>
#include <array>
#include <barrier>
#include <sstream>
#include <thread>

#include "bench.hh"

#include "cache/cache.hh"
#include "obs/manifest.hh"
#include "serve/client.hh"
#include "serve/engine.hh"
#include "serve/server.hh"
#include "serve/spec.hh"
#include "sim/run.hh"
#include "sim/sweep.hh"
#include "util/json_reader.hh"
#include "util/json_writer.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "workload/kv_model.hh"

namespace perfbench
{
namespace
{

using namespace cachelab;

struct PolicyChoice
{
    const char *metric;    ///< suffix of cache.access_ns_per_ref.*
    const char *replacement;
    const char *admission; ///< "" = none
};

const std::vector<PolicyChoice> kPolicies = {
    {"lru", "lru", ""},
    {"arc", "arc", ""},
    {"2q", "2q", ""},
    {"slru-tinylfu", "slru", "tinylfu"},
};

/**
 * One server job.  With two, a pass needs two cores at once, and on a
 * shared host the second core's speed swings with the other tenants:
 * the figures moved by a third within half an hour while the
 * one-threaded workloads moved by a sixth.
 */
constexpr unsigned kServerJobs = 1;
constexpr std::size_t kClients = 2;

/** Purge interval of each client's requests (0 = never). */
constexpr std::array<std::uint64_t, kClients> kPurgeInterval = {0, 10000};

/** What one answered request reported. */
struct Served
{
    std::size_t client = 0;
    std::size_t policy = 0;
    double rttMs = 0.0;
    double queueMs = 0.0;
    double coalesceMs = 0.0;
    double execMs = 0.0;
    std::uint64_t group = 0;
    bool cacheHit = false;
    std::uint64_t refs = 0;
};

std::uint64_t
uintMember(const JsonValue *object, std::string_view key)
{
    const JsonValue *v = object ? object->find(key) : nullptr;
    return v && v->isUint() ? v->asUint() : 0;
}

/** Config values are strings in the manifest. */
std::string
configString(const JsonValue *config, std::string_view key)
{
    const JsonValue *v = config ? config->find(key) : nullptr;
    return v && v->isString() ? v->asString() : std::string();
}

std::uint64_t
configUint(const JsonValue *config, std::string_view key)
{
    const std::string text = configString(config, key);
    return text.empty() ? 0 : std::stoull(text);
}

double
configNsAsMs(const JsonValue *config, std::string_view key)
{
    const std::string text = configString(config, key);
    return text.empty() ? 0.0 : std::stod(text) / 1e6;
}

/** @return @p stats in the manifest's "stats" form, as one line. */
std::string
statsJson(const CacheStats &stats)
{
    std::ostringstream os;
    JsonWriter w(os, JsonWriter::Compact);
    obs::writeCacheStatsJson(w, stats);
    return os.str();
}

class KvServed : public Workload
{
  public:
    explicit KvServed(const Options &opt)
        : opt_(opt), sizes_(powersOfTwo(1024, 128 * 1024)),
          socket_(opt.workDir + "/kv.sock")
    {
        // The key space (128 MiB) is larger than the host's last-level
        // cache, and 30% SETs make the evictions write back.
        kv_.refCount = opt.tiny ? 20000 : 250000;
        kv_.keyCount = opt.tiny ? (1u << 14) : (1u << 21);
        kv_.objectBytes = 64;
        kv_.refBytes = 8;
        kv_.zipfTheta = 0.9;
        kv_.readRatio = 0.7;
        kv_.scanFraction = 0.02;
        kv_.meanScanObjects = 32.0;
        kv_.driftRefs = 5000;
        kv_.seed = opt.seed;
        kv_.validate();

        for (std::size_t c = 0; c < kClients; ++c) {
            for (const PolicyChoice &policy : kPolicies) {
                specJson_[c].push_back(specJson(c, policy));
                serve::ExperimentSpec spec;
                if (auto error =
                        serve::parseExperimentSpec(specJson_[c].back(), spec))
                    fatal("kv_served spec: ", *error);
                specs_[c].push_back(std::move(spec));
            }
        }

        Rng rng(opt.seed ^ 0x6b765f726f746174ULL);
        for (std::size_t p = 0; p < kPolicies.size(); ++p)
            rotation_.push_back(p);
        for (std::size_t i = rotation_.size(); i > 1; --i)
            std::swap(rotation_[i - 1], rotation_[rng.uniformInt(i)]);
    }

    ~KvServed() override { stopServer(); }

    void setup() override
    {
        stopServer();
        serve::ServerOptions options;
        options.socketPath = socket_;
        options.jobs = kServerJobs;
        server_ = std::make_unique<serve::Server>(options);
        std::string error;
        if (!server_->start(&error))
            fatal("kv_served: cannot start the server: ", error);
        for (auto &client : clients_) {
            client = serve::Client::connect(socket_, &error);
            if (!client)
                fatal("kv_served: cannot connect: ", error);
        }
        const serve::Client::RunOutcome warm =
            clients_[0]->run(specJson_[0][0]);
        if (!warm.ok)
            fatal("kv_served: warm-up request failed: ", warm.error);
        const auto doc = parseJson(warm.manifestJson);
        const JsonValue *config = doc ? doc->find("config") : nullptr;
        warmGroup_ = configUint(config, "coalesced_group");
        warmHit_ = configString(config, "resource_cache") == "hit";
    }

    void prepareReference(bool corrupt) override
    {
        serve::EngineOptions engine;
        engine.jobs = 1;
        for (std::size_t c = 0; c < kClients; ++c) {
            reference_[c].clear();
            for (const serve::ExperimentSpec &spec : specs_[c]) {
                const serve::ExperimentResult result =
                    serve::runExperiment(spec, engine);
                if (!result.error.empty())
                    fatal("kv_served reference: ", result.error);
                std::vector<CacheStats> curve;
                for (const SweepPoint &point : result.points)
                    curve.push_back(point.stats);
                reference_[c].push_back(std::move(curve));
            }
        }
        if (corrupt)
            reference_[0][0][0].demandFetches += 1;
    }

    LoopResult run(double seconds, std::size_t min_ops,
                   SpanLog *spans) override
    {
        /** One answered request, checked after the loop. */
        struct Answer
        {
            Served served;
            std::uint64_t request = 0;
            std::uint64_t round = 0;
            std::uint64_t span = 0;
            double end = 0.0;
            serve::Client::RunOutcome outcome;
        };
        std::array<std::vector<Answer>, kClients> answers;

        // The clients submit in rounds, both with the round's policy,
        // so that their requests meet in the server's batch window and
        // share one pass.  Outputs are checked after the loop, so that
        // checking never delays a submission.
        const auto start = Clock::now();
        std::size_t rounds = 0;
        bool stop = false;
        std::barrier sync(kClients, [&]() noexcept {
            ++rounds;
            stop = rounds * kClients >= min_ops &&
                   rounds % kPolicies.size() == 0 &&
                   secondsBetween(start, Clock::now()) >= seconds;
        });
        const auto client = [&](std::size_t c) {
            for (std::uint64_t k = 0; !stop; ++k) {
                Answer answer;
                answer.served.client = c;
                answer.served.policy = rotation_[k % kPolicies.size()];
                answer.request = k * kClients + c;
                answer.round = k;
                answer.span =
                    spans ? spans->begin("serve.request", 0, answer.request)
                          : 0;
                const auto sent = Clock::now();
                answer.outcome =
                    clients_[c]->run(specJson_[c][answer.served.policy]);
                const auto done = Clock::now();
                if (spans)
                    spans->end(answer.span);
                answer.served.rttMs = secondsBetween(sent, done) * 1e3;
                answer.end = secondsBetween(start, done);
                answers[c].push_back(std::move(answer));
                sync.arrive_and_wait();
            }
        };
        std::vector<std::thread> threads;
        for (std::size_t c = 0; c < kClients; ++c)
            threads.emplace_back(client, c);
        for (std::thread &thread : threads)
            thread.join();

        LoopResult result;
        result.wallSeconds = secondsBetween(start, Clock::now());
        result.cycle = kClients * kPolicies.size();
        served_.clear();
        std::vector<Answer> all;
        for (auto &list : answers)
            for (Answer &answer : list)
                all.push_back(std::move(answer));
        std::sort(all.begin(), all.end(),
                  [](const Answer &a, const Answer &b) {
                      return a.end < b.end;
                  });
        for (Answer &answer : all) {
            Served &served = answer.served;
            const bool ok = answer.outcome.ok &&
                            check(answer.outcome.manifestJson, served);
            // A pass is one round per policy; a slot is a (round of the
            // pass, client) pair.
            const std::size_t rounds = kPolicies.size();
            result.ops.push_back({served.rttMs / 1e3, ok ? served.refs : 0, ok,
                                  answer.end, answer.round / rounds,
                                  answer.round % rounds * kClients +
                                      served.client});
            if (!ok)
                continue;
            served_.push_back(served);
            if (spans) {
                // The server's queue wait includes the coalesce window.
                spans->addMeasured("serve.queue_wait", answer.span,
                                   answer.request,
                                   static_cast<std::int64_t>(
                                       (served.queueMs - served.coalesceMs) *
                                       1e6));
                spans->addMeasured("serve.coalesce_wait", answer.span,
                                   answer.request,
                                   static_cast<std::int64_t>(
                                       served.coalesceMs * 1e6));
                spans->addMeasured(
                    "serve.exec", answer.span, answer.request,
                    static_cast<std::int64_t>(served.execMs * 1e6));
            }
        }
        return result;
    }

    LayerReport layers(SpanLog &spans, const LoopResult &) override
    {
        // Probes run with the server idle: the generator the server
        // used, the drive loop alone, and every served point run
        // serially, one span per (client, policy).
        Trace trace;
        {
            ScopedSpan span(&spans, "workload.kv", 0, 0);
            trace = generateKvWorkload(kv_, "kv");
        }
        {
            NullSystem null;
            ScopedSpan span(&spans, "sim.drive", 0, 0);
            runTrace(trace, null);
        }
        std::array<std::vector<double>, kClients> serial_ns;
        for (std::size_t c = 0; c < kClients; ++c) {
            RunConfig run;
            run.purgeInterval = kPurgeInterval[c];
            for (std::size_t p = 0; p < kPolicies.size(); ++p) {
                const auto begin = Clock::now();
                {
                    ScopedSpan span(&spans,
                                    std::string("cache.access.") +
                                        kPolicies[p].metric,
                                    0, 0);
                    for (const std::uint64_t size : sizes_) {
                        CacheConfig config = specs_[c][p].base;
                        config.sizeBytes = size;
                        Cache cache(config);
                        runTrace(trace, cache, run);
                    }
                }
                serial_ns[c].push_back(secondsBetween(begin, Clock::now()) *
                                       1e9);
            }
        }

        // Self time by span name; a name never recorded reads 0.
        auto self = spans.selfNsByName();
        const double refs = static_cast<double>(trace.size());
        const double drive = self["sim.drive"] / refs;

        std::vector<double> queue, coalesce, exec, overhead;
        double efficiency = 0.0, explained_ns = 0.0;
        std::uint64_t coalesced = 0, hits = 0, served_refs = 0;
        for (const Served &s : served_) {
            queue.push_back(s.queueMs);
            coalesce.push_back(s.coalesceMs);
            exec.push_back(s.execMs);
            // The server's queue wait includes the coalesce window.
            const double other = s.rttMs - s.queueMs - s.execMs;
            overhead.push_back(other);
            // A coalesced pass holds both clients' points of the policy.
            double pass_ns = 0.0;
            for (std::size_t c = 0; c < kClients; ++c) {
                if (s.group > 1 || c == s.client)
                    pass_ns += serial_ns[c][s.policy];
            }
            efficiency += pass_ns / (kServerJobs * s.execMs * 1e6);
            explained_ns += (s.queueMs + other) * 1e6 + pass_ns / kServerJobs;
            coalesced += s.group > 1;
            hits += s.cacheHit;
            served_refs += s.refs;
        }
        const double n = static_cast<double>(served_.size());

        LayerReport report;
        report.metrics = {
            {"sim.drive_ns_per_ref", drive, "ns"},
            {"sim.fanout_efficiency", efficiency / n, "ratio"},
            {"serve.queue_wait_ms", median(queue), "ms"},
            {"serve.coalesce_wait_ms", median(coalesce), "ms"},
            {"serve.exec_ms", median(exec), "ms"},
            {"serve.overhead_ms", median(overhead), "ms"},
            {"serve.coalesced_share", static_cast<double>(coalesced) / n,
             "ratio"},
            {"serve.cache_hit_ratio", static_cast<double>(hits) / n,
             "ratio"},
            {"workload.kv_ns_per_ref", self["workload.kv"] / refs, "ns"},
        };
        const double point_refs = refs * static_cast<double>(sizes_.size() *
                                                             kClients);
        for (const PolicyChoice &policy : kPolicies) {
            const std::string name = std::string("cache.access.") +
                                     policy.metric;
            report.metrics.push_back(
                {std::string("cache.access_ns_per_ref.") + policy.metric,
                 self[name] / point_refs - drive, "ns"});
        }
        report.explainedNsPerRef =
            explained_ns / static_cast<double>(served_refs);
        return report;
    }

    std::vector<std::pair<std::string, std::uint64_t>>
    counters() const override
    {
        std::uint64_t misses = 0, dirty = 0, purges = 0;
        for (const auto &curves : reference_) {
            for (const auto &curve : curves) {
                for (const CacheStats &stats : curve) {
                    misses += stats.totalMisses();
                    dirty += stats.dirtyPushes();
                    purges += stats.purges;
                }
            }
        }
        return {{"input_refs_per_op", kv_.refCount},
                {"points_per_op", sizes_.size()},
                {"policies", kPolicies.size()},
                {"warmup_coalesced_group", warmGroup_},
                {"warmup_resource_cache_hit", warmHit_ ? 1u : 0u},
                {"reference_misses", misses},
                {"reference_dirty_pushes", dirty},
                {"reference_purges", purges}};
    }

    std::uint64_t digest() const override
    {
        std::uint64_t hash = kFnvBasis;
        for (const auto &curves : reference_)
            for (const auto &curve : curves)
                for (const CacheStats &stats : curve)
                    hash = hashStats(hash, stats);
        return hash;
    }

  private:
    std::string specJson(std::size_t client, const PolicyChoice &policy) const
    {
        std::ostringstream os;
        JsonWriter w(os, JsonWriter::Compact);
        w.beginObject();
        w.member("id", "kv-c" + std::to_string(client) + "-" + policy.metric);
        w.key("input").beginObject();
        w.member("kind", "kv");
        w.member("refs", kv_.refCount);
        w.member("key_count", kv_.keyCount);
        w.member("object_bytes", kv_.objectBytes);
        w.member("ref_bytes", kv_.refBytes);
        w.member("zipf_theta", kv_.zipfTheta);
        w.member("read_ratio", kv_.readRatio);
        w.member("scan_fraction", kv_.scanFraction);
        w.member("mean_scan_objects", kv_.meanScanObjects);
        w.member("drift_refs", kv_.driftRefs);
        w.member("seed", kv_.seed);
        w.endObject();
        w.key("cache").beginObject();
        w.member("line_bytes", 64);
        w.member("associativity", 8);
        w.member("write_policy", "copy-back");
        w.member("replacement", policy.replacement);
        if (*policy.admission)
            w.member("admission", policy.admission);
        w.endObject();
        w.key("sizes").beginArray();
        for (const std::uint64_t size : sizes_)
            w.value(size);
        w.endArray();
        w.member("purge_interval", kPurgeInterval[client]);
        w.endObject();
        return os.str();
    }

    /** Parse a served manifest into @p served; @return true when every
     *  point matches the reference bitwise. */
    bool check(const std::string &manifest, Served &served) const
    {
        const auto doc = parseJson(manifest);
        if (!doc)
            return false;
        const JsonValue *config = doc->find("config");
        served.group = configUint(config, "coalesced_group");
        served.cacheHit = configString(config, "resource_cache") == "hit";
        served.queueMs = configNsAsMs(config, "serve.timing.queue_wait_ns");
        served.coalesceMs =
            configNsAsMs(config, "serve.timing.coalesce_wait_ns");
        served.execMs = configNsAsMs(config, "serve.timing.exec_ns");
        served.refs = uintMember(doc->find("execution"), "refs_processed");

        const JsonValue *results = doc->find("results");
        const std::vector<CacheStats> &expected =
            reference_[served.client][served.policy];
        if (!results || !results->isArray() ||
            results->size() != expected.size())
            return false;
        for (std::size_t k = 0; k < expected.size(); ++k) {
            const JsonValue &point = results->at(k);
            const JsonValue *stats = point.find("stats");
            if (uintMember(&point, "cache_bytes") != sizes_[k] || !stats ||
                toCompactJson(*stats) != statsJson(expected[k]))
                return false;
        }
        return true;
    }

    void stopServer()
    {
        for (auto &client : clients_)
            client.reset();
        if (server_) {
            server_->requestShutdown();
            server_->serve();
            server_.reset();
        }
    }

    Options opt_;
    std::vector<std::uint64_t> sizes_;
    std::string socket_;
    KvWorkloadParams kv_;
    /** Per client, one spec per policy. */
    std::array<std::vector<std::string>, kClients> specJson_;
    std::array<std::vector<serve::ExperimentSpec>, kClients> specs_;
    std::vector<std::size_t> rotation_; ///< policy order of the rounds
    std::unique_ptr<serve::Server> server_;
    std::array<std::unique_ptr<serve::Client>, kClients> clients_;
    /** [client][policy][size] */
    std::array<std::vector<std::vector<CacheStats>>, kClients> reference_;
    std::vector<Served> served_;
    std::uint64_t warmGroup_ = 0;
    bool warmHit_ = false;
};

} // namespace

std::unique_ptr<Workload>
makeKvServed(const Options &options)
{
    return std::make_unique<KvServed>(options);
}

} // namespace perfbench
