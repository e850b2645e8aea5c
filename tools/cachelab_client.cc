/**
 * @file
 * cachelab_client: thin CLI for talking to a cachelab_serve daemon.
 *
 * Submits one experiment spec, streams the server's progress events to
 * stdout, and writes the final run manifest to stdout or --out FILE.
 * Also exposes the control ops (--ping, --stats, --shutdown) so
 * scripts can manage a daemon without speaking the wire protocol
 * themselves.
 */

#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>

#include "args.hh"
#include "serve/client.hh"
#include "util/format.hh"
#include "util/json_reader.hh"
#include "util/logging.hh"
#include "version.hh"

namespace
{

constexpr const char *kUsage = R"(cachelab_client: submit specs to cachelab_serve

Usage: cachelab_client --socket PATH (--spec FILE | --ping | --stats | --shutdown)

Options:
  --socket PATH   daemon socket (required)
  --spec FILE     experiment spec to submit; "-" reads stdin
  --out FILE      write the result manifest here instead of stdout
  --quiet         suppress progress lines
  --ping          liveness check; exits 0 on pong
  --stats         print the server's counters and latency quantiles
                  as a human-readable table
  --json          with --stats: print the raw JSON line instead
  --shutdown      ask the daemon to drain and exit
  --version       print build provenance and exit
  --help          this text

Exit status is non-zero with a one-line diagnostic on any failure:
unreachable socket, invalid spec, or a server-side error event.
)";

/** "1.234 ms"-style rendering of a nanosecond quantity. */
std::string
formatNs(double ns)
{
    const char *unit = "ns";
    double v = ns;
    if (v >= 1e9) {
        v /= 1e9;
        unit = "s";
    } else if (v >= 1e6) {
        v /= 1e6;
        unit = "ms";
    } else if (v >= 1e3) {
        v /= 1e3;
        unit = "us";
    }
    std::ostringstream os;
    os << cachelab::formatFixed(v, v >= 100 ? 0 : 2) << ' ' << unit;
    return os.str();
}

/** Render the stats reply as a table (counters, then latencies). */
void
printStatsTable(const cachelab::JsonValue &stats)
{
    std::cout << "server stats";
    if (const cachelab::JsonValue *uptime = stats.find("uptime_ns");
        uptime != nullptr && uptime->isUint()) {
        std::cout << " (uptime "
                  << formatNs(static_cast<double>(uptime->asUint())) << ")";
    }
    std::cout << "\n";
    for (const auto &[key, value] : stats.members()) {
        if (key == "event" || key == "metrics" || key == "uptime_ns")
            continue;
        std::cout << "  " << std::left << std::setw(22) << key
                  << (value.isUint()
                          ? cachelab::formatCount(value.asUint())
                          : std::to_string(value.asDouble()))
                  << "\n";
    }

    const cachelab::JsonValue *metrics = stats.find("metrics");
    const cachelab::JsonValue *latencies =
        metrics != nullptr ? metrics->find("latencies") : nullptr;
    if (latencies == nullptr || !latencies->isObject() ||
        latencies->size() == 0)
        return;
    std::cout << "\n  " << std::left << std::setw(34) << "latency"
              << std::right << std::setw(8) << "count" << std::setw(12)
              << "p50" << std::setw(12) << "p90" << std::setw(12) << "p99"
              << std::setw(12) << "max" << "\n";
    for (const auto &[name, series] : latencies->members()) {
        const auto quantile = [&series](std::string_view key) {
            const cachelab::JsonValue *v = series.find(key);
            return v != nullptr ? v->asDouble() : 0.0;
        };
        std::cout << "  " << std::left << std::setw(34) << name
                  << std::right << std::setw(8)
                  << series.at("count").asUint() << std::setw(12)
                  << formatNs(quantile("p50_ns")) << std::setw(12)
                  << formatNs(quantile("p90_ns")) << std::setw(12)
                  << formatNs(quantile("p99_ns")) << std::setw(12)
                  << formatNs(quantile("max_ns")) << "\n";
    }
}

std::string
readSpecFile(const std::string &path)
{
    if (path == "-") {
        std::ostringstream text;
        text << std::cin.rdbuf();
        return text.str();
    }
    std::ifstream in(path, std::ios::binary);
    if (!in)
        cachelab::fatal("cannot open spec file: ", path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

} // namespace

/** The flags kUsage documents; Args refuses any other. */
constexpr std::string_view kFlags[] = {
    "help", "json", "out", "ping", "quiet", "shutdown", "socket",
    "spec", "stats"};

int
main(int argc, char **argv)
{
    using namespace cachelab;
    tools::handleVersionFlag(argc, argv, "cachelab_client");
    tools::Args args(argc, argv, kFlags);

    if (args.has("help")) {
        std::cout << kUsage;
        return 0;
    }
    const std::string socket_path = args.get("socket");
    if (socket_path.empty())
        fatal("cachelab_client requires --socket PATH (see --help)");

    std::string error;
    std::unique_ptr<serve::Client> client =
        serve::Client::connect(socket_path, &error);
    if (!client)
        fatal("cannot connect to ", socket_path, ": ", error);

    if (args.has("ping")) {
        if (!client->ping())
            fatal("no pong from ", socket_path);
        std::cout << "pong\n";
        return 0;
    }
    if (args.has("stats")) {
        std::optional<std::string> stats = client->stats();
        if (!stats)
            fatal("no stats reply from ", socket_path);
        if (args.has("json")) {
            std::cout << *stats << "\n";
            return 0;
        }
        std::string parse_error;
        const std::optional<JsonValue> doc =
            parseJson(*stats, &parse_error);
        if (!doc)
            fatal("malformed stats reply: ", parse_error);
        printStatsTable(*doc);
        return 0;
    }
    if (args.has("shutdown")) {
        if (!client->shutdownServer())
            fatal("no shutdown acknowledgement from ", socket_path);
        std::cout << "server shutting down\n";
        return 0;
    }

    const std::string spec_path = args.get("spec");
    if (spec_path.empty())
        fatal("nothing to do: pass --spec FILE, --ping, --stats, "
              "or --shutdown");
    const std::string spec_json = readSpecFile(spec_path);

    const bool quiet = args.has("quiet");
    serve::Client::RunOutcome outcome = client->run(
        spec_json, [&](const JsonValue &event) {
            if (quiet)
                return;
            const JsonValue *name = event.find("event");
            if (name == nullptr || !name->isString() ||
                name->asString() == "result")
                return;
            std::cout << toCompactJson(event) << "\n";
        });
    if (!outcome.ok)
        fatal("run failed: ", outcome.error);

    const std::string out_path = args.get("out");
    if (out_path.empty()) {
        std::cout << outcome.manifestJson << "\n";
    } else {
        std::ofstream out(out_path, std::ios::binary);
        if (!out)
            fatal("cannot open output file: ", out_path);
        out << outcome.manifestJson << "\n";
        if (!out)
            fatal("write failed: ", out_path);
        if (!quiet)
            std::cout << "manifest written to " << out_path << "\n";
    }
    return 0;
}
