/**
 * @file
 * cachelab_serve: the long-running multi-tenant campaign daemon.
 *
 * Accepts declarative experiment specs as newline-delimited JSON over
 * a local Unix-domain socket, batches compatible requests into shared
 * engine passes, keeps inputs warm in a resource cache, and streams
 * progress plus the final run manifest back to each client.  See
 * src/serve/server.hh for the architecture and DESIGN.md §4h for the
 * protocol.
 */

#include <csignal>
#include <fstream>
#include <iostream>

#include "args.hh"
#include "obs/trace_event.hh"
#include "serve/server.hh"
#include "util/logging.hh"
#include "version.hh"

namespace
{

constexpr const char *kUsage = R"(cachelab_serve: campaign experiment daemon

Usage: cachelab_serve --socket PATH [options]

Options:
  --socket PATH        Unix-domain socket path to listen on (required)
  --jobs N             engine fan-out width (0 = shared pool width)
  --cache-mb N         resource-cache budget in MiB (default 256)
  --batch-window-ms N  coalescing window for compatible requests
                       (default 5)
  --max-queue N        pending-request cap (default 64)
  --max-requests N     exit after N completed run requests (0 = serve
                       until a shutdown request; used by tests/CI)

Telemetry (all off by default; see DESIGN.md §4i):
  --metrics-snapshot FILE   append schema-versioned metrics-snapshot
                            JSONL lines (a flight recorder); one final
                            line is always written at shutdown
  --metrics-interval-s N    seconds between snapshot lines (default 5;
                            0 = the final line only)
  --registry DIR            persist every completed run's manifest +
                            an index.json under DIR
  --registry-max-runs N     registry retention bound (default 256)
  --trace-out FILE          write request-lifecycle Chrome trace
                            events (chrome://tracing) at shutdown

  --version            print build provenance and exit
  --help               this text

The daemon prints one "listening on PATH" line once the socket is
ready, then serves until a client sends {"op": "shutdown"}.  Log
verbosity follows CACHELAB_LOG (silent|warn|info|debug); per-request
lines need debug.
)";

cachelab::serve::Server *g_server = nullptr;

void
handleSignal(int)
{
    // Signal-safe enough for our purpose: flip the stopping flag and
    // poke the threads; the drain logic runs on ordinary threads.
    if (g_server != nullptr)
        g_server->requestShutdown();
}

} // namespace

/** The flags kUsage documents; Args refuses any other. */
constexpr std::string_view kFlags[] = {
    "batch-window-ms", "cache-mb", "help", "jobs", "max-queue",
    "max-requests", "metrics-interval-s", "metrics-snapshot",
    "registry", "registry-max-runs", "socket", "trace-out"};

int
main(int argc, char **argv)
{
    using namespace cachelab;
    tools::handleVersionFlag(argc, argv, "cachelab_serve");
    tools::Args args(argc, argv, kFlags);

    if (args.has("help")) {
        std::cout << kUsage;
        return 0;
    }
    const std::string socket_path = args.get("socket");
    if (socket_path.empty())
        fatal("cachelab_serve requires --socket PATH (see --help)");

    serve::ServerOptions options;
    options.socketPath = socket_path;
    options.jobs = static_cast<unsigned>(args.getUint("jobs", 0));
    options.cacheBytes =
        static_cast<std::size_t>(args.getUint("cache-mb", 256)) << 20;
    options.batchWindowMs = args.getUint("batch-window-ms", 5);
    options.maxQueue =
        static_cast<std::size_t>(args.getUint("max-queue", 64));
    options.maxRequests = args.getUint("max-requests", 0);
    options.metricsSnapshotPath = args.get("metrics-snapshot");
    options.metricsIntervalS = args.getUint("metrics-interval-s", 5);
    options.registryDir = args.get("registry");
    options.registryMaxRuns =
        static_cast<std::size_t>(args.getUint("registry-max-runs", 256));

    const std::string trace_out = args.get("trace-out");
    if (!trace_out.empty())
        obs::TraceRecorder::global().setEnabled(true);

    serve::Server server(options);
    std::string error;
    if (!server.start(&error))
        fatal("cannot start server: ", error);

    g_server = &server;
    std::signal(SIGINT, handleSignal);
    std::signal(SIGTERM, handleSignal);

    // Scripts wait for this exact line before connecting.
    std::cout << "listening on " << server.socketPath() << std::endl;

    server.serve();
    g_server = nullptr;

    if (!trace_out.empty()) {
        std::ofstream os(trace_out, std::ios::binary);
        if (!os) {
            warn("cannot open trace output file: ", trace_out);
        } else {
            obs::TraceRecorder::global().write(os);
            logStructured(LogLevel::Info, "serve.trace",
                          "request trace written",
                          {{"path", trace_out},
                           {"events",
                            obs::TraceRecorder::global().eventCount()}});
        }
    }

    std::cout << "served " << server.completedRequests()
              << " requests; bye" << std::endl;
    return 0;
}
