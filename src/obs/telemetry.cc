/**
 * @file
 * Implementation of the service-telemetry recording layer.
 */

#include "obs/telemetry.hh"

#include <algorithm>
#include <string>

#include "obs/trace_event.hh"
#include "util/json_writer.hh"

namespace cachelab::obs
{

namespace
{

/** Non-negative ns between two stamps; 0 when either is unset. */
std::uint64_t
deltaNs(RequestSpan::TimePoint from, RequestSpan::TimePoint to)
{
    if (from == RequestSpan::TimePoint{} || to == RequestSpan::TimePoint{} ||
        to < from) {
        return 0;
    }
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
            .count());
}

} // namespace

std::uint64_t
RequestSpan::queueWaitNs() const
{
    return deltaNs(queued, executeStart);
}

std::uint64_t
RequestSpan::coalesceWaitNs() const
{
    if (windowOpened == TimePoint{})
        return 0;
    return deltaNs(std::max(queued, windowOpened), executeStart);
}

std::uint64_t
RequestSpan::execNs() const
{
    return deltaNs(executeStart, executeEnd);
}

std::uint64_t
RequestSpan::endToEndNs() const
{
    return deltaNs(received, replied);
}

ServiceTelemetry::ServiceTelemetry(Registry &registry) : registry_(registry)
{
}

void
ServiceTelemetry::recordRequest(const RequestSpan &span,
                                const RequestRecord &record)
{
    registry_.histogram(kEndToEndSeries).record(span.endToEndNs());
    // Stage histograms only for requests that reached the executor;
    // recording zeros for early rejections would drag the quantiles
    // toward stages the request never entered.
    if (span.executeStart != RequestSpan::TimePoint{}) {
        registry_.histogram(kQueueWaitSeries).record(span.queueWaitNs());
        registry_.histogram(kExecSeries).record(span.execNs());
        if (span.windowOpened != RequestSpan::TimePoint{}) {
            registry_.histogram(kCoalesceWaitSeries)
                .record(span.coalesceWaitNs());
        }
    }

    const std::string tenant(record.tenant.empty() ? "anonymous"
                                                   : record.tenant);
    const std::vector<Label> byTenant{{"tenant", tenant}};
    registry_.counter(Registry::key("serve.tenant.requests", byTenant))
        .add();
    if (record.refs) {
        registry_.counter(Registry::key("serve.tenant.refs", byTenant))
            .add(record.refs);
    }
    if (record.bytes) {
        registry_.counter(Registry::key("serve.tenant.bytes", byTenant))
            .add(record.bytes);
    }
    if (record.cacheHit) {
        registry_.counter(Registry::key("serve.tenant.cache_hits", byTenant))
            .add();
    }
    if (record.error) {
        registry_.counter(Registry::key("serve.tenant.errors", byTenant))
            .add();
    }

    if (!record.inputKind.empty()) {
        const std::vector<Label> byKind{
            {"kind", std::string(record.inputKind)}};
        registry_.counter(Registry::key("serve.input.requests", byKind))
            .add();
        if (record.refs) {
            registry_.counter(Registry::key("serve.input.refs", byKind))
                .add(record.refs);
        }
    }
}

void
ServiceTelemetry::traceRequest(const RequestSpan &span,
                               std::string_view tenant,
                               std::uint64_t requestId)
{
    TraceRecorder &recorder = TraceRecorder::global();
    if (!recorder.enabled())
        return;
    const std::vector<TraceArg> args{
        {"tenant", std::string(tenant.empty() ? "anonymous" : tenant)},
        {"request", std::to_string(requestId)},
    };
    recorder.complete("request", "serve", recorder.nsAt(span.received),
                      span.endToEndNs(), args);
    if (span.queueWaitNs()) {
        recorder.complete("queue_wait", "serve", recorder.nsAt(span.queued),
                          span.queueWaitNs(), args);
    }
    if (span.execNs()) {
        recorder.complete("execute", "serve",
                          recorder.nsAt(span.executeStart), span.execNs(),
                          args);
    }
}

void
writeMetricsSnapshotLine(std::ostream &os, const MetricsSnapshot &snap,
                         std::uint64_t seq, std::int64_t unixMs,
                         std::uint64_t uptimeNs)
{
    JsonWriter w(os, JsonWriter::Compact);
    w.beginObject();
    w.member("schema", "cachelab.metrics_snapshot");
    w.member("schema_version", 2);
    w.member("seq", seq);
    w.member("unix_ms", unixMs);
    w.member("uptime_ns", uptimeNs);
    w.key("metrics");
    snap.writeJson(w);
    w.endObject();
    os << '\n';
}

} // namespace cachelab::obs
