/**
 * @file
 * Service telemetry for the campaign daemon: per-request lifecycle
 * spans, latency histograms, and the JSONL flight-recorder format.
 *
 * The single-run observability layers (obs/manifest, obs/metrics,
 * obs/phase, obs/trace_event) answer "what happened inside one
 * simulation"; this module answers "what is the *service* doing" —
 * where requests spend their time between the socket and the reply,
 * which tenants drive the load, and how the latency distribution
 * shifts over a campaign.
 *
 * Lifecycle: every request the server accepts carries a RequestSpan of
 * monotonic-clock stamps
 *
 *     received -> validated -> queued -> [windowOpened] ->
 *     executeStart -> executeEnd -> replied
 *
 * where windowOpened marks the start of the batch-coalescing window
 * the request joined (unset when coalescing is off).  On reply the
 * server feeds the span to ServiceTelemetry::recordRequest, which
 * populates four registry histograms
 *
 *     serve.latency.queue_wait_ns     queued       -> executeStart
 *     serve.latency.coalesce_wait_ns  window join  -> executeStart
 *     serve.latency.exec_ns           executeStart -> executeEnd
 *     serve.latency.e2e_ns            received     -> replied
 *
 * plus per-tenant and per-input-kind counters (requests, refs
 * simulated, resource-cache hits, trace bytes).  All of it lands in
 * the ordinary obs::Registry, so the NDJSON `stats` op and the
 * periodic --metrics-snapshot flight recorder both read one source of
 * truth.
 *
 * Cost discipline (same as PR 3): the span stamps are steady_clock
 * reads per *request*, never per memory reference; recordRequest is a
 * handful of wait-free obs::Histogram::record calls plus counter
 * adds.  With every telemetry flag off the serve hot path is
 * unchanged and manifests stay bitwise identical.
 */

#ifndef CACHELAB_OBS_TELEMETRY_HH
#define CACHELAB_OBS_TELEMETRY_HH

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string_view>

#include "obs/metrics.hh"

namespace cachelab::obs
{

/** Latency series names recorded by ServiceTelemetry. */
inline constexpr std::string_view kQueueWaitSeries =
    "serve.latency.queue_wait_ns";
inline constexpr std::string_view kCoalesceWaitSeries =
    "serve.latency.coalesce_wait_ns";
inline constexpr std::string_view kExecSeries = "serve.latency.exec_ns";
inline constexpr std::string_view kEndToEndSeries = "serve.latency.e2e_ns";

/**
 * Monotonic-clock stamps through one served request's lifecycle.
 * Default-constructed time_points mean "stage not reached"; the
 * duration accessors treat unset or out-of-order endpoints as 0 so a
 * request that errors out before executing still records cleanly.
 */
struct RequestSpan
{
    using Clock = std::chrono::steady_clock;
    using TimePoint = Clock::time_point;

    TimePoint received{};     ///< line read off the socket
    TimePoint validated{};    ///< spec parsed + admission checks passed
    TimePoint queued{};       ///< enqueued for the executor
    TimePoint windowOpened{}; ///< coalesce window joined (optional)
    TimePoint executeStart{}; ///< executor picked the request up
    TimePoint executeEnd{};   ///< simulation finished
    TimePoint replied{};      ///< result line handed to the channel

    static TimePoint now() { return Clock::now(); }

    /** queued -> executeStart. */
    std::uint64_t queueWaitNs() const;

    /** Time spent waiting on the coalesce window: from the later of
     *  queued/windowOpened to executeStart; 0 when no window. */
    std::uint64_t coalesceWaitNs() const;

    /** executeStart -> executeEnd. */
    std::uint64_t execNs() const;

    /** received -> replied. */
    std::uint64_t endToEndNs() const;
};

/**
 * Accounting facts about one completed request, alongside its span.
 * Everything is optional-by-zero: an error reply records with refs =
 * bytes = 0 and cacheHit = false.
 */
struct RequestRecord
{
    std::string_view tenant;    ///< empty -> "anonymous"
    std::string_view inputKind; ///< "file" | "profile" | "kv" | "error"
    std::uint64_t refs = 0;     ///< memory references simulated
    std::uint64_t bytes = 0;    ///< trace bytes touched
    bool cacheHit = false;      ///< resource cache hit
    bool error = false;         ///< request answered with an error
};

/**
 * Records request lifecycle facts into a metrics Registry.  One
 * instance per server; stateless apart from the registry reference,
 * so recording from the executor thread and the accept loop is safe.
 */
class ServiceTelemetry
{
  public:
    explicit ServiceTelemetry(Registry &registry = Registry::global());

    /** Feed one completed (answered) request. */
    void recordRequest(const RequestSpan &span, const RequestRecord &record);

    /**
     * Emit the span onto the global TraceRecorder as Chrome trace
     * events (no-op unless recording is enabled): one "request"
     * complete event covering received->replied plus "queue_wait" and
     * "execute" sub-spans, tagged with tenant and request id.
     */
    static void traceRequest(const RequestSpan &span, std::string_view tenant,
                             std::uint64_t requestId);

  private:
    Registry &registry_;
};

/**
 * Write one flight-recorder line: a schema-versioned, single-line JSON
 * document wrapping a full MetricsSnapshot.
 *
 *     {"schema":"cachelab.metrics_snapshot","schema_version":2,
 *      "seq":N,"unix_ms":...,"uptime_ns":...,"metrics":{...}}
 *
 * Version 2 writes every histogram, the latency series included,
 * under "histograms" as {count, mean, max, p50, p90, p99,
 * log2_buckets}; version 1 kept the latency series apart under
 * "latencies" (with _ns-suffixed keys).
 *
 * The server appends one line per --metrics-interval-s tick (plus a
 * final line at shutdown), making the snapshot file a JSONL time
 * series any line-oriented tool can consume.
 */
void writeMetricsSnapshotLine(std::ostream &os, const MetricsSnapshot &snap,
                              std::uint64_t seq, std::int64_t unixMs,
                              std::uint64_t uptimeNs);

} // namespace cachelab::obs

#endif // CACHELAB_OBS_TELEMETRY_HH
