/**
 * @file
 * cachelab_bench: the unified benchmark harness and the repository's
 * canonical performance record.
 *
 * Registers named scenarios that wrap the engine hot paths — the
 * single-pass Mattson sweep, the parallel per-size sweep, the
 * streamed out-of-core run, the sampled sweep, per-policy access
 * cost, the live-point store write, checkpoint fan-out, and KV
 * workload generation — and times each with untimed warm-up
 * repetitions followed by N measured repetitions.  Reported
 * statistics are robust (median + median absolute deviation): one
 * cold-page or scheduler outlier must not move the number a
 * regression gate compares against.
 *
 * Each scenario emits a schema-versioned `cachelab.bench` v1 JSON
 * document (`BENCH_<scenario>.json`) stamped with git SHA, hostname,
 * and config, optionally carrying perf-counter totals (`--perf`,
 * obs/perf_counters).  `cachelab_report --bench-compare BASELINE
 * CURRENT` consumes pairs of these documents and gates CI on the
 * median wall-time delta.
 */

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "ckpt/live_points.hh"
#include "obs/manifest.hh"
#include "obs/perf_counters.hh"
#include "obs/profile.hh"
#include "sim/run.hh"
#include "sim/sampled.hh"
#include "sim/sweep.hh"
#include "stats/summary.hh"
#include "stats/table.hh"
#include "trace/source.hh"
#include "util/format.hh"
#include "util/json_writer.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"
#include "workload/kv_model.hh"
#include "workload/profiles.hh"

#include "args.hh"
#include "version.hh"

namespace cachelab
{
namespace
{

using tools::Args;
using tools::handleVersionFlag;

constexpr int kBenchSchemaVersion = 1;

constexpr const char *kUsage = R"(usage: cachelab_bench [options]

Unified benchmark harness: runs named scenarios wrapping the engine
hot paths with warmup + N repetitions and writes one schema-versioned
cachelab.bench v1 JSON document per scenario (BENCH_<scenario>.json),
the baseline/current inputs of `cachelab_report --bench-compare`.

scenarios (--list for descriptions):
  throughput per_size_sweep streamed_run sampled_sweep policy_access
  livepoint_write checkpoint_fanout kv_generate

options:
  --list                print the scenario registry and exit
  --scenario NAMES      comma-separated subset to run (default: all)
  --refs N              workload length per scenario (default 200000)
  --reps N              timed repetitions per scenario (default 5)
  --warmup N            untimed warm-up repetitions (default 1)
  --out-dir DIR         where BENCH_<scenario>.json files go
                        (default '.'; scratch state goes under it too)
  --perf                attach hardware counters (perf_event_open) to
                        the timed repetitions; totals and IPC/MPKI
                        land in each document's "perf" section, or
                        "available": false on restricted hosts
  --jobs N              pool parallelism for sweep scenarios
                        (0 = shared pool width, 1 = serial; default 0)
  --seed S              workload generation seed (default 1)
)";

/** Everything a scenario needs to build its workload. */
struct BenchContext
{
    std::uint64_t refs = 200000;
    std::uint64_t seed = 1;
    unsigned jobs = 0;
    std::string outDir = ".";
};

/**
 * One registered scenario.  prepare() does all untimed setup
 * (generate the trace, write the checkpoint store) and returns the
 * repetition body, which returns the references it processed — the
 * denominator of the reported refs/s.
 */
struct Scenario
{
    const char *name;
    const char *description;
    std::function<std::function<std::uint64_t()>(const BenchContext &)>
        prepare;
};

/** Capacity axis shared by the sweep scenarios. */
std::vector<std::uint64_t>
benchSizes()
{
    return powersOfTwo(4 * 1024, 128 * 1024);
}

/** The corpus trace the CPU-trace scenarios replay. */
Trace
benchTrace(const BenchContext &ctx)
{
    return generateTraceExactly(*findTraceProfile("VSPICE"), ctx.refs);
}

/** The live-point store the checkpoint scenarios write. */
ckpt::LivePointWriteSpec
benchStoreSpec()
{
    ckpt::LivePointWriteSpec spec;
    spec.sample = SampleConfig{};
    spec.base = CacheConfig{};
    spec.sizes = benchSizes();
    spec.jobs = 1;
    spec.createdBy = "cachelab_bench";
    return spec;
}

const std::vector<Scenario> &
scenarios()
{
    static const std::vector<Scenario> all = {
        {"throughput",
         "single-pass Mattson sweep (whole miss-ratio curve, one pass)",
         [](const BenchContext &ctx) {
             auto trace = std::make_shared<Trace>(benchTrace(ctx));
             return [trace, sizes = benchSizes()] {
                 const auto points =
                     sweepUnified(*trace, sizes, CacheConfig{}, RunConfig{},
                                  SweepEngine::SinglePass);
                 CACHELAB_ASSERT(points.size() == sizes.size(),
                                 "sweep dropped points");
                 return trace->size();
             };
         }},
        {"per_size_sweep",
         "parallel per-size sweep (one full cache run per capacity)",
         [](const BenchContext &ctx) {
             auto trace = std::make_shared<Trace>(benchTrace(ctx));
             RunConfig run;
             run.jobs = ctx.jobs;
             return [trace, run, sizes = benchSizes()] {
                 const auto points =
                     sweepUnified(*trace, sizes, CacheConfig{}, run,
                                  SweepEngine::PerSize);
                 CACHELAB_ASSERT(points.size() == sizes.size(),
                                 "sweep dropped points");
                 return trace->size() * sizes.size();
             };
         }},
        {"streamed_run",
         "out-of-core single run over a streaming TraceSource",
         [](const BenchContext &ctx) {
             auto source = std::shared_ptr<TraceSource>(streamTraceExactly(
                 *findTraceProfile("VSPICE"), ctx.refs));
             return [source, refs = ctx.refs] {
                 source->reset();
                 Cache cache(CacheConfig{});
                 runTrace(*source, cache, RunConfig{});
                 return refs;
             };
         }},
        {"sampled_sweep",
         "sampled per-size sweep (systematic 10%, functional warming)",
         [](const BenchContext &ctx) {
             auto trace = std::make_shared<Trace>(benchTrace(ctx));
             RunConfig run;
             run.jobs = ctx.jobs;
             return [trace, run, sizes = benchSizes()] {
                 const auto points = sweepUnifiedSampled(
                     *trace, sizes, CacheConfig{}, SampleConfig{}, run);
                 CACHELAB_ASSERT(points.size() == sizes.size(),
                                 "sweep dropped points");
                 // Functional warming applies every ref at every size.
                 return trace->size() * sizes.size();
             };
         }},
        {"policy_access",
         "per-access cost of an adaptive policy (4-way ARC, one run)",
         [](const BenchContext &ctx) {
             auto trace = std::make_shared<Trace>(benchTrace(ctx));
             CacheConfig cfg;
             cfg.sizeBytes = 16 * 1024;
             cfg.associativity = 4;
             cfg.replacement = policySpec("arc");
             cfg.validate();
             return [trace, cfg] {
                 Cache cache(cfg);
                 runTrace(*trace, cache, RunConfig{});
                 return trace->size();
             };
         }},
        {"livepoint_write",
         "live-point store write (the producer checkpoint_fanout reads)",
         [](const BenchContext &ctx) {
             auto trace = std::make_shared<Trace>(benchTrace(ctx));
             return [trace, dir = ctx.outDir + "/.bench_ckpt_write",
                     spec = benchStoreSpec()] {
                 trace->reset();
                 ckpt::writeLivePoints(*trace, dir, spec);
                 return trace->size();
             };
         }},
        {"checkpoint_fanout",
         "store-backed sampled sweep (load live points + fan out)",
         [](const BenchContext &ctx) {
             auto trace = std::make_shared<Trace>(benchTrace(ctx));
             const std::string dir = ctx.outDir + "/.bench_ckpt_store";
             trace->reset();
             ckpt::writeLivePoints(*trace, dir, benchStoreSpec()); // untimed
             SampleConfig sample;
             sample.warming = WarmingPolicy::Checkpoint;
             RunConfig run;
             run.jobs = ctx.jobs;
             return [trace, dir, sample, run, sizes = benchSizes()] {
                 trace->reset();
                 const ckpt::LivePointStore store =
                     ckpt::LivePointStore::load(dir);
                 const auto points = sweepUnifiedSampled(
                     *trace, sizes, CacheConfig{}, sample, run, store);
                 CACHELAB_ASSERT(points.size() == sizes.size(),
                                 "sweep dropped points");
                 return trace->size();
             };
         }},
        {"kv_generate",
         "KV/CDN workload synthesis (Zipf popularity, scans, drift)",
         [](const BenchContext &ctx) {
             KvWorkloadParams params;
             params.refCount = ctx.refs;
             params.seed = ctx.seed;
             params.driftRefs = 50000;
             params.validate();
             return [params, refs = ctx.refs] {
                 const Trace t = generateKvWorkload(params, "bench-kv");
                 CACHELAB_ASSERT(t.size() == refs, "generator fell short");
                 return refs;
             };
         }},
    };
    return all;
}

/** Robust statistics over one scenario's timed repetitions. */
struct ScenarioStats
{
    std::vector<double> wallSeconds; ///< one per timed repetition
    std::uint64_t workRefs = 0;      ///< refs processed per repetition
    obs::PerfTotals perf;            ///< totals across timed reps

    double medianWall() const { return median(wallSeconds); }
    double madWall() const { return medianAbsoluteDeviation(wallSeconds); }

    double refsPerSecond() const
    {
        const double m = medianWall();
        return m > 0.0 ? static_cast<double>(workRefs) / m : 0.0;
    }
};

/** Run one scenario: warmup reps, timed reps, perf accounting. */
ScenarioStats
runScenario(const Scenario &scenario, const BenchContext &ctx,
            std::uint64_t reps, std::uint64_t warmup, bool perf)
{
    auto body = scenario.prepare(ctx);
    for (std::uint64_t i = 0; i < warmup; ++i)
        body();

    // Counter totals must cover exactly the timed repetitions; the
    // scope around each body feeds them (per thread, outermost-only)
    // and gives the phase table a "bench.<scenario>" row.
    if (perf)
        obs::resetPerf();
    const std::string phase = std::string("bench.") + scenario.name;

    ScenarioStats stats;
    for (std::uint64_t i = 0; i < reps; ++i) {
        const auto start = std::chrono::steady_clock::now();
        {
            obs::ProfileScope scope(phase);
            stats.workRefs = body();
        }
        stats.wallSeconds.push_back(
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count());
    }
    if (perf)
        stats.perf = obs::perfTotals();
    return stats;
}

/** Write one scenario's cachelab.bench v1 document. */
void
writeBenchJson(std::ostream &os, const Scenario &scenario,
               const BenchContext &ctx, std::uint64_t reps,
               std::uint64_t warmup, bool perf, const std::string &argv,
               const ScenarioStats &stats)
{
    const obs::BuildInfo build = obs::buildInfo();
    JsonWriter w(os, 2);
    w.beginObject();
    w.member("schema", "cachelab.bench");
    w.member("schema_version", kBenchSchemaVersion);
    w.member("tool", "cachelab_bench");
    w.member("scenario", scenario.name);
    w.member("description", scenario.description);
    w.key("build").beginObject();
    w.member("git", build.gitDescribe);
    w.member("git_sha", build.gitSha);
    w.member("compiler", build.compiler);
    w.member("build_type", build.buildType);
    w.endObject();
    w.key("provenance").beginObject();
    w.member("git_sha", build.gitSha);
    w.member("hostname", obs::hostName());
    w.member("argv", argv);
    w.endObject();
    w.key("config").beginObject();
    w.member("refs", ctx.refs);
    w.member("reps", reps);
    w.member("warmup", warmup);
    w.member("jobs", static_cast<std::uint64_t>(ctx.jobs));
    w.member("seed", ctx.seed);
    w.endObject();
    w.member("work_refs", stats.workRefs);
    w.key("samples").beginObject();
    w.key("wall_s").beginArray();
    for (const double s : stats.wallSeconds)
        w.value(s);
    w.endArray();
    w.endObject();
    w.key("stats").beginObject();
    w.member("median_wall_s", stats.medianWall());
    w.member("mad_wall_s", stats.madWall());
    w.member("min_wall_s",
             *std::min_element(stats.wallSeconds.begin(),
                               stats.wallSeconds.end()));
    w.member("max_wall_s",
             *std::max_element(stats.wallSeconds.begin(),
                               stats.wallSeconds.end()));
    w.member("refs_per_s_median", stats.refsPerSecond());
    w.endObject();
    if (perf) {
        w.key("perf");
        obs::writePerfJson(w, stats.perf);
    }
    w.endObject();
    os << '\n';
}

std::vector<std::string>
splitCommaList(const std::string &text)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= text.size()) {
        const std::size_t comma = text.find(',', pos);
        const std::size_t end =
            comma == std::string::npos ? text.size() : comma;
        if (end > pos)
            out.push_back(text.substr(pos, end - pos));
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return out;
}

/** The flags kUsage documents; Args refuses any other. */
constexpr std::string_view kFlags[] = {
    "help", "jobs", "list", "out-dir", "perf", "refs", "reps",
    "scenario", "seed", "warmup"};

int
run(int argc, char **argv)
{
    handleVersionFlag(argc, argv, "cachelab_bench");
    const Args args(argc, argv, kFlags);
    if (args.has("help")) {
        std::cout << kUsage;
        return 0;
    }
    if (args.has("list")) {
        TextTable table("Registered scenarios");
        table.setHeader({"scenario", "what it times"});
        table.setAlignment(
            {TextTable::Align::Left, TextTable::Align::Left});
        for (const Scenario &s : scenarios())
            table.addRow({s.name, s.description});
        std::cout << table;
        return 0;
    }

    BenchContext ctx;
    ctx.refs = args.getUint("refs", ctx.refs);
    ctx.seed = args.getUint("seed", ctx.seed);
    ctx.jobs = static_cast<unsigned>(args.getUint("jobs", 0));
    ctx.outDir = args.get("out-dir", ".");
    std::error_code dirError;
    std::filesystem::create_directories(ctx.outDir, dirError);
    if (dirError)
        fatal("--out-dir: cannot create '", ctx.outDir, "': ",
              dirError.message());
    const std::uint64_t reps = args.getUint("reps", 5);
    const std::uint64_t warmup = args.getUint("warmup", 1);
    const bool perf = args.has("perf");
    if (reps == 0)
        fatal("--reps must be at least 1");
    if (ctx.refs == 0)
        fatal("--refs must be at least 1");

    std::vector<const Scenario *> selected;
    if (args.has("scenario")) {
        for (const std::string &name :
             splitCommaList(args.get("scenario"))) {
            const Scenario *found = nullptr;
            for (const Scenario &s : scenarios()) {
                if (name == s.name)
                    found = &s;
            }
            if (!found)
                fatal("unknown scenario '", name,
                      "' (--list shows the registry)");
            selected.push_back(found);
        }
    } else {
        for (const Scenario &s : scenarios())
            selected.push_back(&s);
    }
    if (selected.empty())
        fatal("--scenario selected nothing");

    // Perf rides on the profiler's scopes; enabling profiling also
    // gives each repetition a "bench.<scenario>" phase row.
    obs::setPerfEnabled(perf);
    obs::setProfilingEnabled(true);

    const std::string argvJoined = obs::joinArgv(argc, argv);
    TextTable table("cachelab_bench: " + std::to_string(reps) +
                    " reps (+" + std::to_string(warmup) + " warmup), " +
                    formatCount(ctx.refs) + " refs" +
                    (perf ? ", perf counters on" : ""));
    std::vector<std::string> header = {"scenario", "median", "mad",
                                       "refs/s"};
    if (perf)
        header.insert(header.end(), {"ipc", "llc mpki"});
    std::vector<TextTable::Align> align(header.size(),
                                        TextTable::Align::Right);
    align[0] = TextTable::Align::Left;
    table.setHeader(header);
    table.setAlignment(align);

    for (const Scenario *scenario : selected) {
        const ScenarioStats stats =
            runScenario(*scenario, ctx, reps, warmup, perf);

        const std::string path = ctx.outDir + "/BENCH_" +
                                 std::string(scenario->name) + ".json";
        std::ofstream out(path);
        if (!out)
            fatal("cannot open '", path, "'");
        writeBenchJson(out, *scenario, ctx, reps, warmup, perf,
                       argvJoined, stats);
        inform("wrote ", path);

        std::vector<std::string> row = {
            scenario->name,
            formatFixed(stats.medianWall() * 1e3, 3) + " ms",
            formatFixed(stats.madWall() * 1e3, 3) + " ms",
            formatCount(static_cast<std::uint64_t>(stats.refsPerSecond()))};
        if (perf) {
            row.push_back(stats.perf.hasIpc()
                              ? formatFixed(stats.perf.ipc(), 2)
                              : "-");
            row.push_back(stats.perf.hasLlcMpki()
                              ? formatFixed(stats.perf.llcMpki(), 2)
                              : "-");
        }
        table.addRow(row);
    }
    std::cout << table;
    if (perf) {
        const std::string reason = obs::perfUnavailableReason();
        if (!reason.empty())
            inform("perf counters degraded: ", reason);
    }
    return 0;
}

} // namespace
} // namespace cachelab

int
main(int argc, char **argv)
{
    return cachelab::run(argc, argv);
}
