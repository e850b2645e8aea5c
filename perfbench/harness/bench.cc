/**
 * @file
 * cachelab_perfbench: the benchmark harness's entry point.
 *
 *   cachelab_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                      [--tiny] [--corrupt-reference]
 *
 * One run sets the workload up several times (the median is setup_s),
 * computes reference results through an independent engine, runs one
 * untimed pass over the schedule, then runs the closed loop.
 * --trace 0 reports the end-to-end metrics.  --trace 1 runs the loop
 * untraced for half the time and traced for the other half, and
 * reports the per-layer ledger.  The last line of standard output is
 * one JSON object with the result.
 */

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>

#include "bench.hh"

#include "util/logging.hh"
#include "util/random.hh"

namespace perfbench
{

std::uint64_t
LoopResult::failed() const
{
    return static_cast<std::uint64_t>(std::count_if(
        ops.begin(), ops.end(), [](const OpSample &op) { return !op.ok; }));
}

std::uint64_t
LoopResult::refs() const
{
    std::uint64_t total = 0;
    for (const OpSample &op : ops)
        total += op.refs;
    return total;
}

double
LoopResult::opSeconds() const
{
    double total = 0.0;
    for (const OpSample &op : ops)
        total += op.seconds;
    return total;
}

double
LoopResult::nsPerInputRef() const
{
    const std::uint64_t n = refs();
    return n == 0 ? 0.0 : opSeconds() * 1e9 / static_cast<double>(n);
}

std::uint64_t
fnv(std::uint64_t hash, std::uint64_t value)
{
    for (int i = 0; i < 8; ++i) {
        hash ^= (value >> (8 * i)) & 0xff;
        hash *= 1099511628211ULL;
    }
    return hash;
}

namespace
{

/** Every counter of a CacheStats, in declaration order. */
std::vector<std::uint64_t>
counterList(const cachelab::CacheStats &s)
{
    return {s.accesses[0],       s.accesses[1],
            s.accesses[2],       s.misses[0],
            s.misses[1],         s.misses[2],
            s.demandFetches,     s.prefetchFetches,
            s.bytesFromMemory,   s.bytesToMemory,
            s.replacementPushes, s.dirtyReplacementPushes,
            s.purgePushes,       s.dirtyPurgePushes,
            s.writeThroughs,     s.purges};
}

} // namespace

std::uint64_t
hashStats(std::uint64_t hash, const cachelab::CacheStats &stats)
{
    for (const std::uint64_t v : counterList(stats))
        hash = fnv(hash, v);
    return hash;
}

bool
sameStats(const cachelab::CacheStats &a, const cachelab::CacheStats &b)
{
    return counterList(a) == counterList(b);
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
peakRssMiB()
{
    rusage usage{};
    if (::getrusage(RUSAGE_SELF, &usage) != 0)
        return 0.0;
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

std::vector<cachelab::TraceProfile>
seededProfiles(std::vector<cachelab::TraceProfile> profiles,
               std::uint64_t seed)
{
    cachelab::Rng rng(seed);
    for (cachelab::TraceProfile &profile : profiles)
        profile.params.seed ^= rng();
    for (std::size_t i = profiles.size(); i > 1; --i)
        std::swap(profiles[i - 1], profiles[rng.uniformInt(i)]);
    return profiles;
}

SpanLog::SpanLog() : origin_(Clock::now())
{
    spans_.reserve(1 << 16);
}

std::uint64_t
SpanLog::begin(std::string name, std::uint64_t parent, std::uint64_t request)
{
    const std::int64_t now =
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             origin_)
            .count();
    std::lock_guard<std::mutex> lock(mutex_);
    Span span;
    span.name = std::move(name);
    span.id = spans_.size() + 1;
    span.parent = parent;
    span.request = request;
    span.startNs = now;
    span.endNs = now;
    spans_.push_back(std::move(span));
    return spans_.back().id;
}

void
SpanLog::end(std::uint64_t id)
{
    const std::int64_t now =
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             origin_)
            .count();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[id - 1].endNs = now;
}

void
SpanLog::addMeasured(std::string name, std::uint64_t parent,
                     std::uint64_t request, std::int64_t duration_ns)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Span span;
    span.name = std::move(name);
    span.id = spans_.size() + 1;
    span.parent = parent;
    span.request = request;
    span.startNs = parent != 0 ? spans_[parent - 1].startNs : 0;
    span.endNs = span.startNs + duration_ns;
    spans_.push_back(std::move(span));
}

std::map<std::string, double>
SpanLog::selfNsByName() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> childNs(spans_.size() + 1, 0.0);
    for (const Span &span : spans_) {
        if (span.parent != 0)
            childNs[span.parent] +=
                static_cast<double>(span.endNs - span.startNs);
    }
    std::map<std::string, double> out;
    for (const Span &span : spans_) {
        out[span.name] +=
            static_cast<double>(span.endNs - span.startNs) - childNs[span.id];
    }
    return out;
}

void
SpanLog::write(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path);
    for (const Span &span : spans_) {
        out << "{\"name\":\"" << span.name << "\",\"id\":" << span.id
            << ",\"parent\":" << span.parent << ",\"request\":"
            << span.request << ",\"start_ns\":" << span.startNs
            << ",\"end_ns\":" << span.endNs << "}\n";
    }
}

namespace
{

/** Per-layer metrics in BENCHMARK.json order, with units. */
const std::vector<std::pair<std::string, std::string>> kLayerMetrics = {
    {"trace.decode_ns_per_ref", "ns"},
    {"cache.stack_ns_per_ref", "ns"},
    {"cache.stack_query_us", "us"},
    {"cache.footprint_lines", "count"},
    {"sim.drive_ns_per_ref", "ns"},
    {"cache.access_ns_per_ref.lru", "ns"},
    {"cache.access_ns_per_ref.arc", "ns"},
    {"cache.access_ns_per_ref.2q", "ns"},
    {"cache.access_ns_per_ref.slru-tinylfu", "ns"},
    {"cache.access_ns_per_ref.cpu-lru4", "ns"},
    {"sim.fanout_efficiency", "ratio"},
    {"serve.queue_wait_ms", "ms"},
    {"serve.coalesce_wait_ms", "ms"},
    {"serve.exec_ms", "ms"},
    {"serve.overhead_ms", "ms"},
    {"serve.coalesced_share", "ratio"},
    {"serve.cache_hit_ratio", "ratio"},
    {"ckpt.write_ns_per_ref", "ns"},
    {"ckpt.load_ms", "ms"},
    {"ckpt.store_bytes", "bytes"},
    {"sample.sweep_ns_per_ref", "ns"},
    {"workload.program_ns_per_ref", "ns"},
    {"workload.kv_ns_per_ref", "ns"},
    {"reconcile.unexplained_share", "ratio"},
    {"tracing.overhead_share", "ratio"},
};

constexpr const char *kUsage =
    "usage: cachelab_perfbench --workload NAME --seed N --seconds S "
    "--trace 0|1 [--tiny] [--corrupt-reference]\n"
    "workloads: table1_curve kv_served cpu_ckpt_fanout\n";

[[noreturn]] void
usageError(const std::string &message)
{
    std::cerr << "cachelab_perfbench: " << message << '\n' << kUsage;
    std::exit(2);
}

std::uint64_t
parseUint(const std::string &flag, const std::string &text)
{
    std::size_t used = 0;
    unsigned long long value = 0;
    try {
        value = std::stoull(text, &used);
    } catch (const std::exception &) {
        usageError(flag + " needs a whole number, got '" + text + "'");
    }
    if (used != text.size() || text.front() == '-')
        usageError(flag + " needs a whole number, got '" + text + "'");
    return value;
}

Options
parseOptions(int argc, char **argv)
{
    Options opt;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usageError(flag + " needs a value");
            return argv[++i];
        };
        if (flag == "--workload") {
            opt.workload = value();
            have_workload = true;
        } else if (flag == "--seed") {
            opt.seed = parseUint(flag, value());
        } else if (flag == "--seconds") {
            const std::uint64_t s = parseUint(flag, value());
            if (s == 0 || s > 600)
                usageError("--seconds must be in 1..600");
            opt.seconds = static_cast<double>(s);
        } else if (flag == "--trace") {
            const std::string t = value();
            if (t != "0" && t != "1")
                usageError("--trace must be 0 or 1");
            opt.trace = t == "1";
        } else if (flag == "--tiny") {
            opt.tiny = true;
        } else if (flag == "--corrupt-reference") {
            opt.corruptReference = true;
        } else {
            usageError("unknown option '" + flag + "'");
        }
    }
    if (!have_workload)
        usageError("--workload is required");
    return opt;
}

std::unique_ptr<Workload>
makeWorkload(const Options &opt)
{
    if (opt.workload == "table1_curve")
        return makeTable1Curve(opt);
    if (opt.workload == "kv_served")
        return makeKvServed(opt);
    if (opt.workload == "cpu_ckpt_fanout")
        return makeCpuCkptFanout(opt);
    usageError("unknown workload '" + opt.workload + "'");
}

/** JSON number with all its digits; non-finite values become 0. */
std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        value = 0.0;
    std::ostringstream os;
    os << std::setprecision(std::numeric_limits<double>::max_digits10)
       << value;
    return os.str();
}

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        os << (i ? ", " : "") << '"' << metrics[i].name
           << "\": {\"value\": " << jsonNumber(metrics[i].value)
           << ", \"unit\": \"" << metrics[i].unit << "\"}";
    }
    os << "}}";
    std::cout << os.str() << std::endl;
}

/** The times of a run, with the host's slow-down divided out. */
struct HostNormalized
{
    std::vector<double> latenciesMs;
    double opSeconds = 0.0;
    double wallSeconds = 0.0;
    /** Plain operation time over normalized operation time. */
    double hostFactor = 1.0;
};

/**
 * Divide the host's slow-down out of a run.  Other tenants of a shared
 * host slow the whole machine down in bursts of a second or more, at
 * any time in a run, and a run's plain averages move with them.  Every
 * pass over the schedule runs each slot once.  The fastest time each
 * slot reached anywhere in the run makes up the floor pass.  A pass's
 * host factor is its operation time over the floor pass's (at least 1),
 * and every time measured in the pass, its operations' latencies and
 * its wall time, is divided by it.  A change that slows every
 * operation moves the floor, and so every figure, in full.
 */
HostNormalized
normalizeHost(const LoopResult &loop)
{
    std::size_t passes = 0;
    for (const OpSample &op : loop.ops)
        passes = std::max(passes, op.pass + 1);
    std::vector<double> best(loop.cycle,
                             std::numeric_limits<double>::infinity());
    std::vector<double> passOp(passes, 0.0), passEnd(passes, 0.0);
    for (const OpSample &op : loop.ops) {
        best[op.slot] = std::min(best[op.slot], op.seconds);
        passOp[op.pass] += op.seconds;
        passEnd[op.pass] = std::max(passEnd[op.pass], op.endSeconds);
    }
    double floor = 0.0;
    for (const double b : best)
        floor += b;

    HostNormalized out;
    std::vector<double> factor(passes);
    for (std::size_t p = 0; p < passes; ++p)
        factor[p] = passOp[p] / floor;
    for (const OpSample &op : loop.ops) {
        const double seconds = op.seconds / factor[op.pass];
        out.latenciesMs.push_back(seconds * 1e3);
        out.opSeconds += seconds;
    }
    for (std::size_t p = 0; p < passes; ++p)
        out.wallSeconds +=
            (passEnd[p] - (p ? passEnd[p - 1] : 0.0)) / factor[p];
    out.hostFactor = loop.opSeconds() / out.opSeconds;
    return out;
}

std::vector<Metric>
endToEnd(const LoopResult &loop, const HostNormalized &host, double setup_s)
{
    const double completed =
        static_cast<double>(loop.ops.size() - loop.failed());
    return {
        {"ops_per_s", completed / host.wallSeconds, "1/s"},
        {"op_p50_ms", quantile(host.latenciesMs, 0.5), "ms"},
        {"op_p90_ms", quantile(host.latenciesMs, 0.9), "ms"},
        {"ns_per_input_ref",
         host.opSeconds * 1e9 / static_cast<double>(loop.refs()), "ns"},
        {"peak_rss_mib", peakRssMiB(), "MiB"},
        {"setup_s", setup_s, "s"},
    };
}

/**
 * Fill the full per-layer list: a layer the workload does not pass
 * through reads 0.
 */
std::vector<Metric>
perLayer(const LayerReport &report, const LoopResult &untraced,
         const LoopResult &traced)
{
    std::map<std::string, double> given;
    for (const Metric &m : report.metrics)
        given[m.name] = m.value;
    const double base = untraced.nsPerInputRef();
    given["reconcile.unexplained_share"] =
        base > 0.0 ? 1.0 - report.explainedNsPerRef / base : 0.0;
    given["tracing.overhead_share"] =
        base > 0.0 ? traced.nsPerInputRef() / base - 1.0 : 0.0;

    std::vector<Metric> out;
    for (const auto &[name, unit] : kLayerMetrics) {
        const auto it = given.find(name);
        out.push_back({name, it == given.end() ? 0.0 : it->second, unit});
        if (it != given.end())
            given.erase(it);
    }
    for (const auto &[name, value] : given) {
        std::cerr << "cachelab_perfbench: workload reported unlisted "
                     "metric '"
                  << name << "'\n";
        std::exit(1);
    }
    return out;
}

int
run(int argc, char **argv)
{
    const Options opt = parseOptions(argc, argv);
    cachelab::setLogLevel(cachelab::LogLevel::Warn);
    // A fixed threshold keeps large buffers (traces, Zipf tables) out of
    // the per-thread arenas, which otherwise keep them after they are
    // freed; peak_rss_mib then measures live memory, not thread timing.
    mallopt(M_MMAP_THRESHOLD, 256 * 1024);
    std::error_code ec;
    std::filesystem::create_directories(opt.workDir, ec);
    if (ec) {
        std::cerr << "cachelab_perfbench: cannot create '" << opt.workDir
                  << "': " << ec.message() << '\n';
        return 1;
    }

    std::unique_ptr<Workload> workload = makeWorkload(opt);

    std::vector<double> setup_times;
    for (int i = 0; i < workload->setupRepetitions(); ++i) {
        const auto start = Clock::now();
        workload->setup();
        setup_times.push_back(secondsBetween(start, Clock::now()));
    }
    workload->prepareReference(opt.corruptReference);
    // One untimed pass over the schedule lets the host's caches fill and
    // first-touch costs (page faults, new files) finish before timing.
    // The simulated caches still start empty in every operation.
    const LoopResult warmup = workload->run(0.0, 1, nullptr);

    std::vector<Metric> metrics;
    LoopResult untraced;
    LoopResult traced;
    HostNormalized host;
    if (opt.trace) {
        // Untraced and traced slices alternate (untraced, traced,
        // traced, untraced), so a host that speeds up or slows down
        // during the run does not pass for tracing overhead.  The traced
        // run reports no percentiles and needs no minimum op count.
        SpanLog spans;
        for (const bool trace_slice : {false, true, true, false}) {
            LoopResult slice = workload->run(opt.seconds / 4.0, 1,
                                             trace_slice ? &spans : nullptr);
            LoopResult &into = trace_slice ? traced : untraced;
            into.ops.insert(into.ops.end(), slice.ops.begin(),
                            slice.ops.end());
            into.wallSeconds += slice.wallSeconds;
        }
        const LayerReport report = workload->layers(spans, traced);
        metrics = perLayer(report, untraced, traced);
        spans.write(opt.workDir + "/" + opt.workload + ".spans.jsonl");
    } else {
        untraced = workload->run(opt.seconds, kMinOps, nullptr);
        host = normalizeHost(untraced);
        metrics = endToEnd(untraced, host, median(setup_times));
        std::ofstream ops(opt.workDir + "/" + opt.workload + ".ops.csv");
        ops << "op,ms,refs,ok,end_s,pass,slot,normalized_ms\n";
        for (std::size_t i = 0; i < untraced.ops.size(); ++i) {
            const OpSample &op = untraced.ops[i];
            ops << i << ',' << op.seconds * 1e3 << ',' << op.refs << ','
                << op.ok << ',' << op.endSeconds << ',' << op.pass << ','
                << op.slot << ',' << host.latenciesMs[i] << '\n';
        }
    }

    const std::uint64_t attempted =
        warmup.ops.size() + untraced.ops.size() + traced.ops.size();
    const std::uint64_t failed =
        warmup.failed() + untraced.failed() + traced.failed();

    std::cout << "workload " << opt.workload << " seed " << opt.seed
              << (opt.trace ? " traced" : " untraced") << '\n';
    for (const auto &[name, value] : workload->counters())
        std::cout << "counter " << name << ' ' << value << '\n';
    char digest[32];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(workload->digest()));
    std::cout << "digest " << digest << '\n';
    if (!opt.trace) {
        std::cout << "host_factor " << jsonNumber(host.hostFactor)
                  << " (plain ns_per_input_ref "
                  << jsonNumber(untraced.nsPerInputRef()) << ")\n";
    }
    std::cout << "error_rate "
              << jsonNumber(attempted ? static_cast<double>(failed) /
                                            static_cast<double>(attempted)
                                      : 0.0)
              << " (" << failed << "/" << attempted << ")\n";
    printResult(failed == 0 && attempted > 0, attempted, failed, metrics);
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    return perfbench::run(argc, argv);
}
