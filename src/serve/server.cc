/**
 * @file
 * Implementation of the campaign server.
 */

#include "serve/server.hh"

#include <chrono>
#include <fstream>
#include <sstream>

#include "obs/metrics.hh"
#include "util/json_writer.hh"
#include "util/logging.hh"

namespace cachelab::serve
{

namespace
{

/** Progress cadence: one event per this many driven references. */
constexpr std::uint64_t kProgressEveryRefs = std::uint64_t{1} << 21;

/** Index-style name of an input kind ("file" | "profile" | "kv"). */
const char *
kindName(InputSpec::Kind kind)
{
    switch (kind) {
      case InputSpec::Kind::File:
        return "file";
      case InputSpec::Kind::Kv:
        return "kv";
      case InputSpec::Kind::Profile:
        break;
    }
    return "profile";
}

/** Milliseconds since the Unix epoch (registry / snapshot stamps). */
std::int64_t
unixMillis()
{
    using namespace std::chrono;
    return duration_cast<milliseconds>(
               system_clock::now().time_since_epoch())
        .count();
}

} // namespace

Server::Server(const ServerOptions &options)
    : options_(options), cache_(options.cacheBytes),
      startTime_(std::chrono::steady_clock::now())
{
    if (!options_.registryDir.empty()) {
        std::string error;
        registry_ = std::make_unique<RunRegistry>(
            options_.registryDir, options_.registryMaxRuns, &error);
        if (!error.empty()) {
            logStructured(LogLevel::Warn, "serve.registry",
                          "registry warning", {{"error", error}});
        }
    }
}

Server::~Server()
{
    requestShutdown();
    if (acceptThread_.joinable())
        acceptThread_.join();
    if (executorThread_.joinable())
        executorThread_.join();
    stopSnapshotThread();
    reapConnections(true);
}

bool
Server::start(std::string *error)
{
    listener_ =
        std::make_unique<UnixListener>(options_.socketPath, error);
    if (!listener_->valid()) {
        listener_.reset();
        return false;
    }
    startTime_ = std::chrono::steady_clock::now();
    acceptThread_ = std::thread([this] { acceptLoop(); });
    executorThread_ = std::thread([this] { executorLoop(); });
    if (!options_.metricsSnapshotPath.empty())
        snapshotThread_ = std::thread([this] { snapshotLoop(); });
    logStructured(LogLevel::Info, "serve.server", "server started",
                  {{"socket", options_.socketPath},
                   {"jobs", options_.jobs},
                   {"cache_bytes", options_.cacheBytes},
                   {"batch_window_ms", options_.batchWindowMs},
                   {"max_queue", options_.maxQueue}});
    return true;
}

void
Server::serve()
{
    if (acceptThread_.joinable())
        acceptThread_.join();
    if (executorThread_.joinable())
        executorThread_.join();
    stopSnapshotThread();
    reapConnections(true);
    logStructured(LogLevel::Info, "serve.server", "server stopped",
                  {{"completed", completed_.load()},
                   {"accepted", accepted_.load()}});
}

void
Server::requestShutdown()
{
    {
        std::lock_guard<std::mutex> lock(queueMutex_);
        stopping_ = true;
    }
    queueCv_.notify_all();
    if (listener_ != nullptr)
        listener_->shutdown();
}

void
Server::acceptLoop()
{
    while (true) {
        const int fd = listener_->acceptConnection();
        if (fd < 0)
            break; // listener shut down
        reapConnections(false);
        auto connection = std::make_shared<Connection>(fd);
        connection->id = nextConnectionId_.fetch_add(1);
        logStructured(LogLevel::Debug, "serve.server",
                      "connection accepted", {{"conn", connection->id}});
        connection->reader =
            std::thread([this, connection] { readerLoop(connection); });
        std::lock_guard<std::mutex> lock(connectionsMutex_);
        connections_.push_back(connection);
    }
    // Connections are deliberately NOT closed here: the executor may
    // still be draining in-flight requests whose results go out over
    // these channels.  reapConnections(true) — which runs after the
    // executor thread is joined — closes them, unblocking any reader
    // still parked in readLine().
}

void
Server::readerLoop(std::shared_ptr<Connection> connection)
{
    std::string line;
    while (connection->channel.readLine(line)) {
        if (line.empty())
            continue;
        const obs::RequestSpan::TimePoint received =
            obs::RequestSpan::now();
        std::string error;
        std::optional<Request> request = parseRequest(line, &error);
        if (!request) {
            obs::Registry::global().counter("serve.errors").add();
            logStructured(LogLevel::Warn, "serve.server",
                          "malformed request line",
                          {{"conn", connection->id}, {"error", error}});
            if (!connection->channel.writeLine(makeError(error)))
                break;
            continue;
        }
        handleRequest(connection, *request, received);
        if (request->op == Request::Op::Shutdown)
            break;
    }
    connection->done.store(true);
    logStructured(LogLevel::Debug, "serve.server", "connection closed",
                  {{"conn", connection->id}});
}

void
Server::handleRequest(const std::shared_ptr<Connection> &connection,
                      const Request &request,
                      obs::RequestSpan::TimePoint received)
{
    switch (request.op) {
      case Request::Op::Ping:
        connection->channel.writeLine(makePong());
        return;
      case Request::Op::Stats:
        connection->channel.writeLine(statsLine());
        return;
      case Request::Op::Shutdown:
        obs::Registry::global().counter("serve.bye").add();
        logStructured(LogLevel::Info, "serve.server",
                      "shutdown requested", {{"conn", connection->id}});
        connection->channel.writeLine(makeBye());
        requestShutdown();
        return;
      case Request::Op::Run:
        break;
    }

    obs::Registry::global().counter("serve.requests").add();
    ExperimentSpec spec;
    if (auto error = parseExperimentSpec(request.spec, spec)) {
        obs::Registry::global().counter("serve.errors").add();
        logStructured(LogLevel::Warn, "serve.server", "invalid spec",
                      {{"conn", connection->id}, {"error", *error}});
        connection->channel.writeLine(makeError(*error));
        return;
    }

    PendingRequest pending;
    pending.id = nextRequestId_.fetch_add(1);
    pending.spec = std::move(spec);
    pending.connection = connection;
    pending.span.received = received;
    pending.span.validated = obs::RequestSpan::now();

    {
        std::lock_guard<std::mutex> lock(queueMutex_);
        if (stopping_) {
            obs::Registry::global().counter("serve.rejected").add();
            logStructured(LogLevel::Warn, "serve.server",
                          "request rejected: shutting down",
                          {{"conn", connection->id},
                           {"request", pending.id}});
            connection->channel.writeLine(
                makeError("server is shutting down"));
            return;
        }
        if (queue_.size() >= options_.maxQueue) {
            obs::Registry::global().counter("serve.rejected").add();
            logStructured(LogLevel::Warn, "serve.server",
                          "request rejected: queue full",
                          {{"conn", connection->id},
                           {"request", pending.id},
                           {"queued", queue_.size()}});
            connection->channel.writeLine(
                makeError("server busy: request queue is full"));
            return;
        }
        logStructured(LogLevel::Debug, "serve.server", "request accepted",
                      {{"conn", connection->id},
                       {"request", pending.id},
                       {"tenant", pending.spec.id},
                       {"input", pending.spec.input.displayName()}});
        connection->channel.writeLine(makeAck(pending.id));
        connection->channel.writeLine(
            makeProgress(pending.id, "queued", 0,
                         pending.spec.input.knownRefs()));
        pending.span.queued = obs::RequestSpan::now();
        queue_.push_back(std::move(pending));
        accepted_.fetch_add(1);
    }
    queueCv_.notify_all();
}

std::vector<Server::PendingRequest>
Server::takeGroupLocked()
{
    std::vector<PendingRequest> group;
    group.push_back(std::move(queue_.front()));
    queue_.pop_front();
    const std::string key = group.front().spec.batchKey();
    for (auto it = queue_.begin(); it != queue_.end();) {
        if (it->spec.batchKey() == key) {
            group.push_back(std::move(*it));
            it = queue_.erase(it);
        } else {
            ++it;
        }
    }
    return group;
}

void
Server::executorLoop()
{
    while (true) {
        std::unique_lock<std::mutex> lock(queueMutex_);
        queueCv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) {
            if (stopping_)
                break;
            continue;
        }

        // Batch window: hold the pass open briefly so same-input
        // requests arriving together share it.  Skipped when draining.
        obs::RequestSpan::TimePoint window_opened{};
        if (options_.batchWindowMs != 0 && !stopping_) {
            window_opened = std::chrono::steady_clock::now();
            const auto deadline =
                window_opened +
                std::chrono::milliseconds(options_.batchWindowMs);
            while (!stopping_ &&
                   std::chrono::steady_clock::now() < deadline)
                queueCv_.wait_until(lock, deadline);
        }

        std::vector<PendingRequest> group = takeGroupLocked();
        for (PendingRequest &request : group)
            request.span.windowOpened = window_opened;
        lock.unlock();
        executeGroup(std::move(group));

        if (options_.maxRequests != 0 &&
            completed_.load() >= options_.maxRequests) {
            bool drained;
            {
                std::lock_guard<std::mutex> guard(queueMutex_);
                drained = queue_.empty();
            }
            if (drained) {
                requestShutdown();
                break;
            }
        }
    }

    // Drain leftovers (requests that raced in before stopping_ was
    // visible): every accepted request still gets its result.
    while (true) {
        std::vector<PendingRequest> group;
        {
            std::lock_guard<std::mutex> lock(queueMutex_);
            if (queue_.empty())
                break;
            group = takeGroupLocked();
        }
        executeGroup(std::move(group));
    }
}

void
Server::executeGroup(std::vector<PendingRequest> group)
{
    if (group.size() > 1) {
        coalesced_.fetch_add(group.size() - 1);
        obs::Registry::global()
            .counter("serve.batch.coalesced")
            .add(group.size() - 1);
    }
    obs::Registry::global().counter("serve.batch.groups").add();

    const auto execute_start = obs::RequestSpan::now();
    for (PendingRequest &request : group)
        request.span.executeStart = execute_start;

    const auto tellEach =
        [&group](const std::function<std::string(const PendingRequest &)>
                     &make) {
            for (const PendingRequest &request : group)
                request.connection->channel.writeLine(make(request));
        };

    /** Telemetry + registry + logging for one answered request;
     *  span.replied must already be stamped. */
    const auto account = [this](const PendingRequest &request,
                                const obs::RequestRecord &record,
                                std::string_view manifestJson) {
        telemetry_.recordRequest(request.span, record);
        obs::ServiceTelemetry::traceRequest(request.span, record.tenant,
                                            request.id);
        if (registry_ != nullptr) {
            RunRecord entry;
            entry.requestId = request.id;
            entry.tenant = record.tenant.empty()
                               ? "anonymous"
                               : std::string(record.tenant);
            entry.input = request.spec.input.displayName();
            entry.inputKind = std::string(record.inputKind);
            entry.specHash = specIdentityHash(request.spec);
            entry.outcome = record.error ? "error" : "ok";
            entry.refs = record.refs;
            entry.cacheHit = record.cacheHit;
            entry.queueWaitNs = request.span.queueWaitNs();
            entry.execNs = request.span.execNs();
            entry.e2eNs = request.span.endToEndNs();
            entry.unixMs = unixMillis();
            std::string error;
            if (!registry_->append(std::move(entry), manifestJson,
                                   &error)) {
                logStructured(LogLevel::Warn, "serve.registry",
                              "registry append failed",
                              {{"request", request.id},
                               {"error", error}});
            }
        }
        logStructured(LogLevel::Debug, "serve.server", "request answered",
                      {{"conn", request.connection->id},
                       {"request", request.id},
                       {"tenant", record.tenant},
                       {"outcome", record.error ? "error" : "ok"},
                       {"e2e_ns", request.span.endToEndNs()}});
    };

    tellEach([](const PendingRequest &r) {
        return makeProgress(r.id, "loading", 0, r.spec.input.knownRefs());
    });

    const ResourceCache::Stats before = cache_.stats();
    std::string load_error;
    std::shared_ptr<const Trace> trace =
        cache_.acquire(group.front().spec.input, &load_error);
    if (trace == nullptr) {
        obs::Registry::global().counter("serve.errors").add();
        logStructured(LogLevel::Warn, "serve.server", "input load failed",
                      {{"input", group.front().spec.input.displayName()},
                       {"error", load_error}});
        // Count before delivery, so a tenant that has its answer never
        // observes a completed count that excludes it.
        completed_.fetch_add(group.size());
        for (PendingRequest &request : group) {
            request.span.executeEnd = obs::RequestSpan::now();
            // Account before the reply goes out: a tenant that has its
            // answer must find its own run in the very next stats read.
            request.span.replied = obs::RequestSpan::now();
            obs::RequestRecord record;
            record.tenant = request.spec.id;
            record.inputKind = kindName(request.spec.input.kind);
            record.error = true;
            account(request, record, {});
            request.connection->channel.writeLine(
                makeRequestError(request.id, load_error));
        }
        return;
    }
    const bool cache_hit = cache_.stats().hits > before.hits;

    std::vector<ExperimentSpec> specs;
    specs.reserve(group.size());
    for (const PendingRequest &request : group)
        specs.push_back(request.spec);

    EngineOptions engine;
    engine.jobs = options_.jobs;
    std::uint64_t last_reported = 0;
    engine.progress = [&](std::uint64_t done, std::uint64_t total) {
        if (done - last_reported < kProgressEveryRefs && done != total)
            return;
        last_reported = done;
        tellEach([done, total](const PendingRequest &r) {
            return makeProgress(r.id, "running", done, total);
        });
    };

    MemorySource source(trace->refs(), trace->name());
    std::vector<ExperimentResult> results =
        runCoalesced(source, specs, engine);

    const auto execute_end = obs::RequestSpan::now();
    obs::Registry::global()
        .counter("serve.engine.refs")
        .add(results.front().refsProcessed);

    for (std::size_t i = 0; i < group.size(); ++i) {
        PendingRequest &request = group[i];
        const ExperimentResult &result = results[i];
        request.span.executeEnd = execute_end;
        request.connection->channel.writeLine(makeProgress(
            request.id, "finishing", result.refsProcessed,
            result.refsProcessed));
        obs::RunManifest manifest = buildExperimentManifest(
            request.spec, result, "cachelab_serve", "",
            {{"resource_cache", cache_hit ? "hit" : "miss"},
             {"request_id", std::to_string(request.id)},
             {"serve.timing.queue_wait_ns",
              std::to_string(request.span.queueWaitNs())},
             {"serve.timing.coalesce_wait_ns",
              std::to_string(request.span.coalesceWaitNs())},
             {"serve.timing.exec_ns",
              std::to_string(request.span.execNs())}});
        std::ostringstream os;
        obs::writeManifest(os, manifest, JsonWriter::Compact);
        completed_.fetch_add(1);
        // Account before the result line goes out (the "replied" stamp
        // marks reply-ready): once a tenant holds its manifest, every
        // stats read is guaranteed to include that run's histogram
        // sample and counters.
        request.span.replied = obs::RequestSpan::now();

        obs::RequestRecord record;
        record.tenant = request.spec.id;
        record.inputKind = kindName(request.spec.input.kind);
        record.refs = result.refsProcessed;
        record.bytes = trace->refs().size_bytes();
        record.cacheHit = cache_hit;
        account(request, record, os.str());
        request.connection->channel.writeLine(
            makeResult(request.id, os.str()));
    }
}

void
Server::reapConnections(bool all)
{
    std::list<std::shared_ptr<Connection>> stale;
    {
        std::lock_guard<std::mutex> lock(connectionsMutex_);
        for (auto it = connections_.begin(); it != connections_.end();) {
            if (all || (*it)->done.load()) {
                if (all)
                    (*it)->channel.close();
                stale.push_back(*it);
                it = connections_.erase(it);
            } else {
                ++it;
            }
        }
    }
    for (const auto &connection : stale)
        if (connection->reader.joinable())
            connection->reader.join();
}

std::string
Server::statsLine()
{
    const ResourceCache::Stats cache = cache_.stats();
    std::size_t queued;
    {
        std::lock_guard<std::mutex> lock(queueMutex_);
        queued = queue_.size();
    }
    const auto uptime = std::chrono::steady_clock::now() - startTime_;
    std::ostringstream os;
    JsonWriter w(os, JsonWriter::Compact);
    w.beginObject()
        .member("event", "stats")
        .member("accepted", accepted_.load())
        .member("completed", completed_.load())
        .member("coalesced", coalesced_.load())
        .member("queued", static_cast<std::uint64_t>(queued))
        .member("cache_hits", cache.hits)
        .member("cache_misses", cache.misses)
        .member("cache_evictions", cache.evictions)
        .member("cache_resident_bytes",
                static_cast<std::uint64_t>(cache.residentBytes))
        .member("cache_entries", static_cast<std::uint64_t>(cache.entries))
        .member("uptime_ns",
                static_cast<std::uint64_t>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        uptime)
                        .count()));
    // The full registry snapshot rides along so one stats round-trip
    // answers "what is the daemon doing" — including the latency
    // histograms' quantiles (metrics.histograms.*.p50 etc).
    w.key("metrics");
    obs::Registry::global().snapshot().writeJson(w);
    w.endObject();
    return os.str();
}

void
Server::snapshotLoop()
{
    std::unique_lock<std::mutex> lock(snapshotMutex_);
    while (!snapshotStop_) {
        if (options_.metricsIntervalS == 0) {
            // Flight recorder without a cadence: final line only.
            snapshotCv_.wait(lock, [this] { return snapshotStop_; });
            break;
        }
        snapshotCv_.wait_for(
            lock, std::chrono::seconds(options_.metricsIntervalS),
            [this] { return snapshotStop_; });
        if (snapshotStop_)
            break;
        lock.unlock();
        writeSnapshotLine();
        lock.lock();
    }
    lock.unlock();
    // Final snapshot: the last line always reflects the finished
    // campaign (stopSnapshotThread runs after the executor is joined).
    writeSnapshotLine();
}

void
Server::writeSnapshotLine()
{
    std::ofstream os(options_.metricsSnapshotPath,
                     std::ios::binary | std::ios::app);
    if (!os) {
        logStructured(LogLevel::Warn, "serve.snapshot",
                      "cannot append metrics snapshot",
                      {{"path", options_.metricsSnapshotPath}});
        return;
    }
    const auto uptime = std::chrono::steady_clock::now() - startTime_;
    obs::writeMetricsSnapshotLine(
        os, obs::Registry::global().snapshot(), ++snapshotSeq_,
        unixMillis(),
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(uptime)
                .count()));
}

void
Server::stopSnapshotThread()
{
    {
        std::lock_guard<std::mutex> lock(snapshotMutex_);
        snapshotStop_ = true;
    }
    snapshotCv_.notify_all();
    if (snapshotThread_.joinable())
        snapshotThread_.join();
}

} // namespace cachelab::serve
