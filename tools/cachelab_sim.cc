/**
 * @file
 * cachelab-sim: the Dinero-flavored command-line cache simulator.
 *
 * Input is either a trace file (din text or binary) or a named corpus
 * profile; the cache is fully parameterizable; sweeps (per size or in
 * one Mattson pass), split organizations, sector caches and the OPT
 * bound are available, plus CSV emission for scripting and a full
 * observability surface: run manifests (--metrics-json), Chrome trace
 * export (--trace-out), phase profiling (--phase-profile) and periodic
 * progress lines (--progress).
 *
 * Examples:
 *   cachelab_sim --profile VSPICE --size 16384 --assoc 2
 *   cachelab_sim --trace prog.din --size 8192 --line 32 \
 *                --write writethrough --write-miss noallocate
 *   cachelab_sim --profile MVS1 --sweep 32:65536 --purge 20000 --csv -
 *   cachelab_sim --profile FGO1 --size 4096 --opt
 *   cachelab_sim --profile ZGREP --sector 4 --size 256
 *   cachelab_sim --profile VSPICE --sweep 32:65536 \
 *                --metrics-json run.json --trace-out trace.json \
 *                --phase-profile --progress
 *   cachelab_sim --profile MVS2 --refs 100000000 --stream \
 *                --sweep 32:65536 --engine single-pass
 */

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <type_traits>

#include "cache/belady.hh"
#include "cache/cache.hh"
#include "cache/organization.hh"
#include "cache/sector_cache.hh"
#include "ckpt/live_points.hh"
#include "obs/classify.hh"
#include "obs/event_log.hh"
#include "obs/event_stats.hh"
#include "obs/manifest.hh"
#include "obs/metrics.hh"
#include "obs/perf_counters.hh"
#include "obs/profile.hh"
#include "obs/progress.hh"
#include "obs/trace_event.hh"
#include "serve/engine.hh"
#include "serve/spec.hh"
#include "sim/run.hh"
#include "sim/sampled.hh"
#include "sim/sweep.hh"
#include "sim/timing.hh"
#include "stats/table.hh"
#include "trace/io.hh"
#include "trace/source.hh"
#include "trace/transforms.hh"
#include "util/csv.hh"
#include "util/format.hh"
#include "util/json_writer.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"
#include "workload/profiles.hh"

#include "args.hh"
#include "version.hh"

using namespace cachelab;
using namespace cachelab::tools;

namespace
{

constexpr const char *kUsage = R"(usage: cachelab_sim [options]

input (one required):
  --spec FILE           run a declarative experiment spec (the same
                        JSON cachelab_serve accepts; see serve/spec.hh)
                        standalone and write its manifest to
                        --metrics-json (default '-'); exclusive with
                        every other input/mode flag
  --trace FILE          regular trace file: din text (.din),
                        delta-compressed CLT2 (.ctr) or packed binary
                        CLT1 (any other extension); see trace/io.hh
  --profile NAME        named corpus workload (see cachelab_gen --list)
  --refs N              run exactly N references: truncates a trace
                        file; for --profile the generator runs to N,
                        extending past the calibrated length if asked
  --stream              out-of-core: stream the input (mapped decode
                        for files, on-the-fly generation for
                        profiles) instead of materializing it; memory
                        is O(batch), results are bit-identical.
                        Unsupported: --opt, --sector
  --batch N             streaming batch size in refs (default 65536);
                        results never depend on it

cache parameters:
  --size BYTES          capacity (default 16384)
  --line BYTES          line size (default 16)
  --assoc N             ways; 0 = fully associative (default 0)
  --replacement P       replacement policy, name[:key=value,...]:
                        lru | fifo | random | slru[:probation=F] |
                        lfu | lfuda | 2q[:kin=F,kout=F] | arc
                        (default lru)
  --admission P         admission filter consulted before installing a
                        missing line: none | tinylfu[:counters=N,window=N]
                        (default none)
  --write P             copyback | writethrough (default copyback)
  --write-miss P        allocate | noallocate (default allocate)
  --fetch P             demand | prefetch (default demand)
  --split               split I/D organization (size per side); with
                        --sweep, one row of I and D miss ratios per size
  --sector BYTES        sector cache with this sub-block size
  --purge N             purge every N refs (default 0 = never)
  --timing SPEC         AMAT timing model as key=value list (keys hit,
                        l2hit, mem in cycles; width in bytes/cycle;
                        empty = hit=1,l2hit=10,mem=100,width=8).  Adds
                        AMAT and traffic-limited throughput to the
                        report, sweep CSV and manifest; unified runs
                        and plain --sweep only

modes:
  --sweep LO:HI         sweep power-of-two sizes LO..HI
  --engine E            sweep engine: auto | per-size | single-pass |
                        verify | sampled (default auto; see sim/sweep.hh).
                        single-pass is one Mattson pass over every size;
                        it and verify need the Table 1 shape (fully
                        associative LRU, demand fetch, copy-back with
                        fetch-on-write, no --purge, no --warmup)
  --opt                 also report the Belady OPT bound
  --csv FILE            write unified sweep results as CSV ('-' =
                        stdout); split sweeps write none

sampled simulation (estimates with confidence intervals; all flags in
this family start with --sample):
  --sample F            measure only fraction F of the trace (0 < F <= 1)
  --sample-unit U       measured interval length in refs (default 1000)
  --sample-select P     systematic | random (default systematic)
  --sample-warming P    functional | fixed | cold | checkpoint
                        (default functional; checkpoint needs --ckpt)
  --sample-warmup W     warm-up refs per interval (fixed warming;
                        default = interval length).  Per-interval
                        warming is clamped to the refs available before
                        the interval — never fatal, unlike the whole-run
                        --warmup, which must leave at least one
                        measured reference
  --sample-confidence C confidence level (default 0.95)
  --sample-error R      sequential mode: stop when the miss-ratio CI is
                        within +/- R relative (e.g. 0.05)

warm-state checkpoints (campaign fan-out; see DESIGN.md section 4g):
  --ckpt-write DIR      one functional pass writes a live-point store:
                        the warmed cache state at every interval of the
                        --sample plan, for every --sweep size (and the
                        --purge schedule; --split for per-side stores).
                        LRU + demand fetch + fetch-on-write only
  --ckpt DIR            sampled --sweep that restores warmed state from
                        the store instead of replaying the gaps; the
                        results are bitwise identical to functional
                        warming.  Implies --sample-warming checkpoint;
                        the store must match the trace, plan and purge
                        schedule (checked by key and content hash)

cache-event introspection (probe sinks; see DESIGN.md section 4f):
  --classify            split misses into compulsory / capacity /
                        conflict (3C) and print the breakdown; with
                        --sweep, one breakdown per size
  --classify-interval N per-interval 3C granularity in refs (default
                        65536); with --events the intervals are
                        appended as {"type":"interval"} records
  --events FILE         write sampled cache events as JSONL; with
                        --sweep each size writes FILE.<size>, with
                        --split each side writes FILE.icache/.dcache
  --events-sample N     log every Nth event (default 1 = all; purge
                        events are always logged)
  --set-heatmap FILE    write a per-set hit/miss/fill/eviction CSV;
                        suffixed like --events under --sweep/--split
                        Instrumentation needs a real simulated cache:
                        --sample and the single-pass / sampled engines
                        reject it, and so do split sweeps (their I and
                        D files would share names); --sector supports
                        --events only

observability:
  --metrics-json FILE   write a schema-versioned run manifest as JSON
                        ('-' = stdout): config, build, per-phase wall
                        clock, pool utilization, metrics, exact stats
  --trace-out FILE      write a Chrome trace-event file (load it in
                        chrome://tracing or ui.perfetto.dev)
  --phase-profile       print the per-phase profile table after the
                        run (--profile with no value also works)
  --perf                sample hardware counters (perf_event_open:
                        cycles, instructions, task-clock, LLC
                        loads/misses, branch misses) per phase: adds
                        IPC and LLC-MPKI columns to the profile table,
                        a "perf" manifest section, and perf.* metrics;
                        never fatal — restricted hosts report the
                        counters as unavailable
  --progress            periodic progress lines (refs done, ETA)

execution:
  --jobs N              concurrency of per-size and sampled sweeps:
                        0 = shared pool width, 1 = serial, N = a
                        dedicated pool of N workers (default 0)
  --seed S              seed for random replacement and random interval
                        selection (default 1)
  --warmup N            whole-run warm-up: exclude the first N refs
                        from statistics; must leave at least one
                        measured reference (fatal otherwise)
)";

Trace
loadInput(const Args &args)
{
    if (args.has("trace")) {
        Trace t = openTraceSource(args.get("trace"))->materialize();
        if (args.has("refs"))
            return cachelab::truncate(t, args.getUint("refs", t.size()));
        return t;
    }
    // A bare --profile (empty value) means phase profiling, not a
    // workload; the workload spelling is --profile NAME.
    if (!args.get("profile").empty()) {
        const TraceProfile *p = findTraceProfile(args.get("profile"));
        if (p == nullptr)
            fatal("unknown profile '", args.get("profile"),
                  "' (cachelab_gen --list shows the corpus)");
        if (args.has("refs"))
            return generateTraceExactly(*p, args.getUint("refs", 0));
        return generateTrace(*p);
    }
    fatal("need --trace FILE or --profile NAME\n", kUsage);
}

/** Out-of-core input: the stream behind --stream. */
std::unique_ptr<TraceSource>
streamInput(const Args &args)
{
    if (args.has("trace")) {
        std::unique_ptr<TraceSource> src =
            openTraceSource(args.get("trace"));
        if (args.has("refs"))
            src = std::make_unique<LimitSource>(std::move(src),
                                                args.getUint("refs", 0));
        return src;
    }
    if (!args.get("profile").empty()) {
        const TraceProfile *p = findTraceProfile(args.get("profile"));
        if (p == nullptr)
            fatal("unknown profile '", args.get("profile"),
                  "' (cachelab_gen --list shows the corpus)");
        if (args.has("refs"))
            return streamTraceExactly(*p, args.getUint("refs", 0));
        return streamTrace(*p);
    }
    fatal("need --trace FILE or --profile NAME\n", kUsage);
}

/** Total refs of a stream (0 when it can't say). */
std::uint64_t
inputRefs(TraceSource &source)
{
    return source.lengthKnown() ? source.knownLength() : 0;
}

/** @return true when --engine names the sampled sweeps. */
bool
sampledEngine(const Args &args)
{
    return args.get("engine") == "sampled";
}

/** @return the bitwise sweep engine the --engine flag names. */
SweepEngine
engineFrom(const Args &args)
{
    const std::string name = args.get("engine", "auto");
    if (name == "auto")
        return SweepEngine::Auto;
    if (name == "per-size")
        return SweepEngine::PerSize;
    if (name == "single-pass")
        return SweepEngine::SinglePass;
    if (name == "verify")
        return SweepEngine::Verify;
    fatal("--engine: unknown engine '", name,
          "' (auto | per-size | single-pass | verify | sampled)");
}

CacheConfig
configFrom(const Args &args)
{
    CacheConfig cfg;
    cfg.sizeBytes = args.getUint("size", 16384);
    cfg.lineBytes = static_cast<std::uint32_t>(args.getUint("line", 16));
    cfg.associativity =
        static_cast<std::uint32_t>(args.getUint("assoc", 0));

    if (auto error = parseReplacementPolicy(
            args.get("replacement", "lru"), cfg.replacement))
        fatal("--replacement: ", *error);
    if (args.has("admission"))
        if (auto error = parseAdmissionPolicy(args.get("admission"),
                                              cfg.admission))
            fatal("--admission: ", *error);

    const std::string write = args.get("write", "copyback");
    if (write == "copyback")
        cfg.writePolicy = WritePolicy::CopyBack;
    else if (write == "writethrough")
        cfg.writePolicy = WritePolicy::WriteThrough;
    else
        fatal("--write: unknown policy '", write, "'");

    const std::string miss = args.get("write-miss", "allocate");
    if (miss == "allocate")
        cfg.writeMiss = WriteMissPolicy::FetchOnWrite;
    else if (miss == "noallocate")
        cfg.writeMiss = WriteMissPolicy::NoAllocate;
    else
        fatal("--write-miss: unknown policy '", miss, "'");

    const std::string fetch = args.get("fetch", "demand");
    if (fetch == "demand")
        cfg.fetchPolicy = FetchPolicy::Demand;
    else if (fetch == "prefetch")
        cfg.fetchPolicy = FetchPolicy::PrefetchAlways;
    else
        fatal("--fetch: unknown policy '", fetch, "'");

    cfg.randomSeed = args.getUint("seed", cfg.randomSeed);

    cfg.validate();
    return cfg;
}

/** @return the AMAT model the --timing flag describes (or disabled). */
TimingConfig
timingFrom(const Args &args)
{
    TimingConfig timing;
    if (!args.has("timing"))
        return timing;
    if (auto error = parseTimingConfig(args.get("timing"), timing))
        fatal("--timing: ", *error);
    return timing;
}

/** @return the sampling plan described by the --sample-* flags. */
SampleConfig
sampleConfigFrom(const Args &args)
{
    SampleConfig cfg;
    cfg.fraction = args.getDouble("sample", cfg.fraction);
    cfg.unitRefs = args.getUint("sample-unit", cfg.unitRefs);
    cfg.seed = args.getUint("seed", cfg.seed);

    const std::string select = args.get("sample-select", "systematic");
    if (select == "systematic")
        cfg.selection = IntervalSelection::Systematic;
    else if (select == "random")
        cfg.selection = IntervalSelection::Random;
    else
        fatal("--sample-select: unknown policy '", select, "'");

    // --ckpt restores warmed state from a live-point store, so its
    // natural (and only meaningful) warming policy is checkpoint.
    const std::string warming = args.get(
        "sample-warming", args.has("ckpt") ? "checkpoint" : "functional");
    if (warming == "functional")
        cfg.warming = WarmingPolicy::Functional;
    else if (warming == "fixed")
        cfg.warming = WarmingPolicy::FixedWarmup;
    else if (warming == "cold")
        cfg.warming = WarmingPolicy::Cold;
    else if (warming == "checkpoint") {
        if (!args.has("ckpt"))
            fatal("--sample-warming checkpoint needs --ckpt DIR (the "
                  "live-point store to restore from)");
        cfg.warming = WarmingPolicy::Checkpoint;
    } else
        fatal("--sample-warming: unknown policy '", warming, "'");
    if (cfg.warming == WarmingPolicy::FixedWarmup)
        cfg.warmupRefs = args.getUint("sample-warmup", cfg.unitRefs);
    else if (args.has("sample-warmup"))
        fatal("--sample-warmup requires --sample-warming fixed");

    cfg.confidence = args.getDouble("sample-confidence", cfg.confidence);
    cfg.targetRelativeError =
        args.getDouble("sample-error", cfg.targetRelativeError);
    cfg.validate();
    return cfg;
}

/** Print a sampled-run report (estimate, CI, speedup). */
void
printSampled(const std::string &what, const SampledRunResult &r)
{
    std::cout << what << " [sampled " << r.config.describe() << "]\n"
              << "  " << r.summarize() << "\n"
              << "  estimated: " << r.estimated.summarize() << "\n"
              << "  ifetch miss "
              << formatPercent(r.instructionMissRatio.mean) << " +/- "
              << formatPercent(r.instructionMissRatio.halfWidth)
              << "; data miss " << formatPercent(r.dataMissRatio.mean)
              << " +/- " << formatPercent(r.dataMissRatio.halfWidth)
              << "; traffic "
              << formatFixed(r.trafficPerRef.mean, 2) << " +/- "
              << formatFixed(r.trafficPerRef.halfWidth, 2) << " B/ref\n";
}

std::pair<std::uint64_t, std::uint64_t>
sweepRange(const Args &args)
{
    const std::string spec = args.get("sweep");
    const auto colon = spec.find(':');
    if (colon == std::string::npos)
        fatal("--sweep expects LO:HI, got '", spec, "'");
    try {
        return {std::stoull(spec.substr(0, colon)),
                std::stoull(spec.substr(colon + 1))};
    } catch (const std::exception &) {
        fatal("--sweep: bad range '", spec, "'");
    }
}

void
printStats(const std::string &what, const CacheStats &s)
{
    std::cout << what << "\n  " << s.summarize() << "\n"
              << "  fetches: " << formatCount(s.demandFetches) << " demand"
              << (s.prefetchFetches
                      ? " + " + formatCount(s.prefetchFetches) + " prefetch"
                      : std::string{})
              << "; pushes: " << formatCount(s.totalPushes()) << " ("
              << formatCount(s.dirtyPushes()) << " dirty)\n";
}

/** The --classify/--events/--set-heatmap flag bundle. */
struct InstrumentFlags
{
    bool classify = false;
    std::uint64_t classifyInterval = 65536;
    std::string eventsPath;  ///< empty = no event log
    std::uint64_t eventsSample = 1;
    std::string heatmapPath; ///< empty = no heatmap

    bool
    any() const
    {
        return classify || !eventsPath.empty() || !heatmapPath.empty();
    }
};

InstrumentFlags
instrumentFrom(const Args &args)
{
    InstrumentFlags instr;
    instr.classify = args.has("classify");
    instr.classifyInterval =
        args.getUint("classify-interval", instr.classifyInterval);
    if (instr.classifyInterval == 0)
        fatal("--classify-interval must be positive");
    if (args.has("classify-interval") && !instr.classify)
        fatal("--classify-interval requires --classify");
    instr.eventsPath = args.get("events");
    if (args.has("events") && instr.eventsPath.empty())
        fatal("--events needs a file path");
    instr.eventsSample = args.getUint("events-sample", instr.eventsSample);
    if (instr.eventsSample == 0)
        fatal("--events-sample must be positive");
    if (args.has("events-sample") && instr.eventsPath.empty())
        fatal("--events-sample requires --events FILE");
    instr.heatmapPath = args.get("set-heatmap");
    if (args.has("set-heatmap") && instr.heatmapPath.empty())
        fatal("--set-heatmap needs a file path");
    return instr;
}

/**
 * First record of an events file: identifies the run, so the file is
 * self-describing for cachelab_report and ad-hoc jq.
 */
void
writeEventsHeader(std::ostream &os, const InstrumentFlags &instr,
                  const CacheConfig &cfg, std::string_view trace_name,
                  std::string_view role)
{
    JsonWriter w(os, JsonWriter::Compact);
    w.beginObject();
    w.member("type", "run");
    w.member("tool", "cachelab_sim");
    w.member("trace", trace_name);
    w.member("role", role);
    w.member("cache", cfg.describe());
    w.member("size_bytes", cfg.sizeBytes);
    w.member("line_bytes", cfg.lineBytes);
    w.member("associativity", cfg.associativity);
    w.member("sample_every", instr.eventsSample);
    w.endObject();
    os << '\n';
}

/** Append per-interval and whole-run 3C records to an events file. */
void
writeClassifierRecords(std::ostream &os, const MissClassifier &c)
{
    for (const ClassifiedInterval &iv : c.intervals()) {
        JsonWriter w(os, JsonWriter::Compact);
        w.beginObject();
        w.member("type", "interval");
        w.member("start_ref", iv.startRef);
        w.member("refs", iv.refs);
        w.member("misses", iv.misses);
        w.member("compulsory", iv.compulsory);
        w.member("capacity", iv.capacity);
        w.member("conflict", iv.conflict);
        w.endObject();
        os << '\n';
    }
    const ClassifiedTotals &t = c.totals();
    JsonWriter w(os, JsonWriter::Compact);
    w.beginObject();
    w.member("type", "totals");
    w.member("refs", c.refsObserved());
    w.member("misses", t.misses);
    w.member("compulsory", t.compulsory);
    w.member("capacity", t.capacity);
    w.member("conflict", t.conflict);
    w.endObject();
    os << '\n';
}

/** Final record of an events file: the sink's own volume accounting. */
void
writeLogSummary(std::ostream &os, const EventLogSink &log)
{
    JsonWriter w(os, JsonWriter::Compact);
    w.beginObject();
    w.member("type", "log_summary");
    w.member("seen", log.seen());
    w.member("logged", log.logged());
    w.member("dropped", log.dropped());
    w.endObject();
    os << '\n';
}

/**
 * The sink bundle for one instrumented cache (a unified cache, one
 * side of a split, or a sector cache).  Attach probe() before the
 * run; finish() finalizes the sinks, writes the file artifacts and
 * publishes into the global registry.
 */
class SinkSet
{
  public:
    SinkSet(const InstrumentFlags &flags, const CacheConfig &cfg,
            std::string_view trace_name, std::string_view role,
            const std::string &events_path, const std::string &heatmap_path)
        : eventsPath_(events_path), heatmapPath_(heatmap_path)
    {
        if (flags.classify)
            classifier_ =
                std::make_unique<MissClassifier>(cfg, flags.classifyInterval);
        if (!heatmap_path.empty())
            stats_ = std::make_unique<EventStatsSink>();
        if (!events_path.empty()) {
            eventsOut_.open(events_path);
            if (!eventsOut_)
                fatal("cannot open '", events_path, "'");
            writeEventsHeader(eventsOut_, flags, cfg, trace_name, role);
            log_ =
                std::make_unique<EventLogSink>(eventsOut_, flags.eventsSample);
        }
        fanout_.add(classifier_.get());
        fanout_.add(stats_.get());
        fanout_.add(log_.get());
    }

    /** @return the probe to attach, or nullptr when nothing is on. */
    CacheProbe *
    probe()
    {
        return fanout_.empty() ? nullptr : &fanout_;
    }

    /**
     * Finalize and write every artifact.  @p total_refs is the
     * instrumented cache's accessClock() (0 = trust the event
     * stream); @p labels qualify the published metric keys.
     */
    void
    finish(std::uint64_t total_refs, const std::vector<obs::Label> &labels)
    {
        if (classifier_) {
            classifier_->finalize(total_refs);
            classifier_->publish(obs::Registry::global(), labels);
            if (eventsOut_.is_open())
                writeClassifierRecords(eventsOut_, *classifier_);
        }
        if (stats_) {
            stats_->publish(obs::Registry::global(), labels);
            std::ofstream out(heatmapPath_);
            if (!out)
                fatal("cannot open '", heatmapPath_, "'");
            stats_->writeHeatmapCsv(out);
            inform("wrote per-set heatmap to ", heatmapPath_);
        }
        if (log_) {
            writeLogSummary(eventsOut_, *log_);
            inform("wrote ", log_->logged(), " of ", log_->seen(),
                   " cache events to ", eventsPath_);
        }
    }

    const MissClassifier *classifier() const { return classifier_.get(); }
    const EventStatsSink *stats() const { return stats_.get(); }

  private:
    std::string eventsPath_;
    std::string heatmapPath_;
    std::ofstream eventsOut_;
    std::unique_ptr<MissClassifier> classifier_;
    std::unique_ptr<EventStatsSink> stats_;
    std::unique_ptr<EventLogSink> log_;
    ProbeFanout fanout_;
};

/** Print the one-line 3C summary for a finished classifier. */
void
print3C(const MissClassifier &c, std::string_view tag)
{
    const ClassifiedTotals &t = c.totals();
    const auto share = [&](std::uint64_t v) {
        return t.misses == 0 ? std::string("-")
                             : formatPercent(static_cast<double>(v) /
                                             static_cast<double>(t.misses));
    };
    std::cout << "  " << (tag.empty() ? "" : std::string(tag) + " ")
              << "3C: " << formatCount(t.misses) << " misses = "
              << formatCount(t.compulsory) << " compulsory ("
              << share(t.compulsory) << ") + " << formatCount(t.capacity)
              << " capacity (" << share(t.capacity) << ") + "
              << formatCount(t.conflict) << " conflict ("
              << share(t.conflict) << ")\n";
}

/** Print where conflict pressure concentrates. */
void
printConflictSets(const EventStatsSink &stats, std::string_view tag)
{
    const auto top = stats.topConflictSets(4);
    if (top.empty())
        return;
    std::cout << "  " << (tag.empty() ? "" : std::string(tag) + " ")
              << "hottest sets (evictions):";
    for (std::uint64_t set : top)
        std::cout << " " << set << " ("
                  << formatCount(stats.sets()[set].evictions) << ")";
    std::cout << "\n";
}

/** Print the human-readable sink lines for one finished cache. */
void
printSinkLines(const SinkSet &sinks, std::string_view tag)
{
    if (sinks.classifier() != nullptr)
        print3C(*sinks.classifier(), tag);
    if (sinks.stats() != nullptr)
        printConflictSets(*sinks.stats(), tag);
}

/**
 * Instrumentation for --sweep: one SinkSet per swept size, created
 * serially by the engine's factory pass.  File artifacts get a
 * ".<size>" suffix so each cache's stream stays self-contained.
 */
class SweepProbeFactory : public CacheProbeFactory
{
  public:
    SweepProbeFactory(const InstrumentFlags &flags, std::string trace_name)
        : flags_(flags), traceName_(std::move(trace_name))
    {}

    CacheProbe *
    probeFor(const CacheConfig &cfg, std::string_view role) override
    {
        const std::string suffix = "." + std::to_string(cfg.sizeBytes);
        entries_.push_back(
            {cfg.sizeBytes,
             std::make_unique<SinkSet>(
                 flags_, cfg, traceName_, role,
                 flags_.eventsPath.empty() ? std::string{}
                                           : flags_.eventsPath + suffix,
                 flags_.heatmapPath.empty() ? std::string{}
                                            : flags_.heatmapPath + suffix)});
        return entries_.back().sinks->probe();
    }

    /** Finalize every size's sinks; print the per-size 3C table. */
    void
    finish()
    {
        for (Entry &e : entries_)
            e.sinks->finish(0, {{"size", std::to_string(e.sizeBytes)}});
        if (!flags_.classify)
            return;
        TextTable table("3C breakdown: " + traceName_ + " (size varied)");
        table.setHeader(
            {"size", "misses", "compulsory", "capacity", "conflict"});
        table.setAlignment(
            {TextTable::Align::Right, TextTable::Align::Right,
             TextTable::Align::Right, TextTable::Align::Right,
             TextTable::Align::Right});
        for (const Entry &e : entries_) {
            const ClassifiedTotals &t = e.sinks->classifier()->totals();
            const auto cell = [&](std::uint64_t v) {
                return t.misses == 0
                    ? formatCount(v)
                    : formatCount(v) + " (" +
                        formatPercent(static_cast<double>(v) /
                                      static_cast<double>(t.misses)) +
                        ")";
            };
            table.addRow({formatSize(e.sizeBytes), formatCount(t.misses),
                          cell(t.compulsory), cell(t.capacity),
                          cell(t.conflict)});
        }
        std::cout << table;
    }

  private:
    struct Entry
    {
        std::uint64_t sizeBytes;
        std::unique_ptr<SinkSet> sinks;
    };

    InstrumentFlags flags_;
    std::string traceName_;
    std::vector<Entry> entries_;
};

/** Print (and CSV/manifest) the points of a sampled size sweep. */
int
reportSampledSweep(const Args &args, const std::string &input_name,
                   const CacheConfig &base, const SampleConfig &sample,
                   const std::vector<SampledSweepPoint> &points,
                   obs::RunManifest &manifest)
{
    for (const SampledSweepPoint &pt : points)
        manifest.sampledResults.push_back(
            {"sweep", pt.cacheBytes, pt.result});

    std::ofstream csv_file;
    std::unique_ptr<CsvWriter> csv;
    if (args.has("csv")) {
        std::ostream *os = &std::cout;
        if (args.get("csv") != "-") {
            csv_file.open(args.get("csv"));
            if (!csv_file)
                fatal("cannot open '", args.get("csv"), "'");
            os = &csv_file;
        }
        csv = std::make_unique<CsvWriter>(*os);
        csv->header({"size", "miss_ratio", "ci_low", "ci_high", "std_error",
                     "intervals", "measured_fraction", "est_speedup"});
    }

    TextTable table("Sampled sweep: " + input_name + " on " +
                    base.describe() + " [" + sample.describe() + "]");
    table.setHeader({"size", "miss", "95% CI", "intervals", "measured",
                     "est speedup"});
    table.setAlignment({TextTable::Align::Right, TextTable::Align::Right,
                        TextTable::Align::Right, TextTable::Align::Right,
                        TextTable::Align::Right, TextTable::Align::Right});
    for (const SampledSweepPoint &pt : points) {
        const SampledRunResult &r = pt.result;
        table.addRow({formatSize(pt.cacheBytes),
                      formatPercent(r.missRatio.mean),
                      "+/- " + formatPercent(r.missRatio.halfWidth),
                      std::to_string(r.missRatio.samples),
                      formatPercent(r.measuredFraction()),
                      formatFixed(r.speedupEstimate(), 1) + "x"});
        if (csv) {
            csv->field(pt.cacheBytes)
                .field(r.missRatio.mean, 6)
                .field(r.missRatio.low, 6)
                .field(r.missRatio.high, 6)
                .field(r.missRatio.stdError, 6)
                .field(r.missRatio.samples)
                .field(r.measuredFraction(), 4)
                .field(r.speedupEstimate(), 2);
            csv->endRow();
        }
    }
    if (!csv || args.get("csv") != "-")
        std::cout << table;
    return 0;
}

/** Print (and manifest) the per-side points of a split sampled sweep. */
int
reportSplitSampledSweep(const std::string &title,
                        const std::vector<SplitSampledSweepPoint> &points,
                        obs::RunManifest &manifest)
{
    TextTable table(title);
    table.setHeader({"size/side", "I miss", "D miss", "intervals"});
    table.setAlignment(
        {TextTable::Align::Right, TextTable::Align::Right,
         TextTable::Align::Right, TextTable::Align::Right});
    for (const SplitSampledSweepPoint &pt : points) {
        table.addRow(
            {formatSize(pt.cacheBytes),
             formatPercent(pt.icache.missRatio.mean) + " +/- " +
                 formatPercent(pt.icache.missRatio.halfWidth),
             formatPercent(pt.dcache.missRatio.mean) + " +/- " +
                 formatPercent(pt.dcache.missRatio.halfWidth),
             std::to_string(pt.icache.intervalsMeasured) + "/" +
                 std::to_string(pt.dcache.intervalsMeasured)});
        manifest.sampledResults.push_back(
            {"icache", pt.cacheBytes, pt.icache});
        manifest.sampledResults.push_back(
            {"dcache", pt.cacheBytes, pt.dcache});
    }
    std::cout << table;
    return 0;
}

/**
 * @p input is a const Trace (materialized) or a TraceSource.  With
 * --split each side runs its own plan over its sub-stream, as a --ckpt
 * split sweep does.
 */
template <typename Input>
int
runSampledSweep(const Args &args, Input &input,
                const CacheConfig &base, const RunConfig &run,
                const SampleConfig &sample, obs::RunManifest &manifest)
{
    const auto [lo, hi] = sweepRange(args);
    const auto sizes = powersOfTwo(lo, hi);
    if (args.has("split")) {
        if (run.purgeInterval != 0)
            fatal("--split --sample --sweep runs a plan per side; the "
                  "purge schedule applies to unified caches only");
        return reportSplitSampledSweep(
            "Sampled split sweep: " + input.name() + " on " +
                base.describe() + " per side [" + sample.describe() + "]",
            sweepSplitSampled(input, sizes, base, sample, run), manifest);
    }
    const auto points = sweepUnifiedSampled(input, sizes, base, sample, run);
    return reportSampledSweep(args, input.name(), base, sample, points,
                              manifest);
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** --ckpt-write: one functional pass producing a live-point store. */
int
runCkptWrite(const Args &args, TraceSource &source, const CacheConfig &base,
             const RunConfig &run, obs::RunManifest &manifest)
{
    const auto [lo, hi] = sweepRange(args);
    const std::string dir = args.get("ckpt-write");

    ckpt::LivePointWriteSpec spec;
    spec.sample = sampleConfigFrom(args);
    spec.purgeInterval = run.purgeInterval;
    spec.split = args.has("split");
    spec.base = base;
    spec.sizes = powersOfTwo(lo, hi);
    spec.jobs = run.jobs;
    spec.createdBy = "cachelab_sim";

    const ckpt::LivePointWriteSummary s =
        ckpt::writeLivePoints(source, dir, spec);
    std::cout << "checkpoint store " << dir << " ["
              << (spec.split ? "split" : "unified") << ", "
              << spec.sample.describe() << "]\n"
              << "  key " << hex64(s.keyHash) << ", content "
              << hex64(s.contentHash) << "\n"
              << "  " << formatCount(s.traceRefs) << " refs -> "
              << s.intervals << " interval images x " << s.groups
              << " group(s), " << formatSize(s.bytesWritten) << "\n";

    manifest.config.emplace_back("ckpt_action", "write");
    manifest.config.emplace_back("ckpt_dir", dir);
    manifest.config.emplace_back("ckpt_key_hash", hex64(s.keyHash));
    manifest.config.emplace_back("ckpt_content_hash", hex64(s.contentHash));
    return 0;
}

/** --ckpt: sampled sweep restoring warmed state from a store. */
int
runCkptSweep(const Args &args, TraceSource &source, const CacheConfig &base,
             const RunConfig &run, obs::RunManifest &manifest)
{
    const auto [lo, hi] = sweepRange(args);
    const auto sizes = powersOfTwo(lo, hi);
    const SampleConfig sample = sampleConfigFrom(args);

    const ckpt::LivePointStore store =
        ckpt::LivePointStore::load(args.get("ckpt"));
    manifest.config.emplace_back("ckpt_action", "fanout");
    manifest.config.emplace_back("ckpt_dir", store.directory());
    manifest.config.emplace_back("ckpt_key_hash", hex64(store.keyHash()));
    manifest.config.emplace_back("ckpt_content_hash",
                                 hex64(store.contentHash()));

    if (args.has("split"))
        return reportSplitSampledSweep(
            "Checkpoint split sweep: " + source.name() + " on " +
                base.describe() + " per side [" + sample.describe() + "]",
            sweepSplitSampled(source, sizes, base, sample, run, store),
            manifest);

    const auto points =
        sweepUnifiedSampled(source, sizes, base, sample, run, store);
    return reportSampledSweep(args, source.name(), base, sample, points,
                              manifest);
}

/** Print (and manifest) the per-side points of a split sweep. */
int
reportSplitSweep(const std::string &title,
                 const std::vector<SplitSweepPoint> &points,
                 obs::RunManifest &manifest)
{
    TextTable table(title);
    table.setHeader({"size/side", "I miss", "D miss"});
    table.setAlignment(std::vector<TextTable::Align>(
        3, TextTable::Align::Right));
    for (const SplitSweepPoint &pt : points) {
        table.addRow({formatSize(pt.cacheBytes),
                      formatPercent(pt.icache.missRatio()),
                      formatPercent(pt.dcache.missRatio())});
        manifest.results.push_back({"icache", pt.cacheBytes, pt.icache, {}});
        manifest.results.push_back({"dcache", pt.cacheBytes, pt.dcache, {}});
    }
    std::cout << table;
    return 0;
}

/**
 * @p input is a const Trace (materialized) or a TraceSource.  With
 * --split the sweep runs sweepSplit() and reports each side.
 */
template <typename Input>
int
runSweep(const Args &args, Input &input, const CacheConfig &base,
         const RunConfig &run, SweepEngine engine,
         const InstrumentFlags &instr, const TimingConfig &timing,
         obs::RunManifest &manifest)
{
    const auto [lo, hi] = sweepRange(args);
    const auto sizes = powersOfTwo(lo, hi);
    if (args.has("split"))
        return reportSplitSweep(
            "Split sweep: " + input.name() + " on " + base.describe() +
                " per side (size varied)",
            sweepSplit(input, sizes, base, run, engine), manifest);

    std::vector<std::string> csv_columns = {"size", "miss_ratio", "imiss",
                                            "dmiss", "traffic_bytes"};
    std::vector<std::string> table_columns = {"size", "miss",
                                              "ifetch miss", "data miss",
                                              "traffic B/ref"};
    if (timing.enabled()) {
        csv_columns.insert(csv_columns.end(),
                           {"amat", "traffic_limited_refs_per_cycle"});
        table_columns.insert(table_columns.end(),
                             {"AMAT", "refs/cycle"});
    }

    TextTable table("Sweep: " + input.name() + " on " + base.describe() +
                    " (size varied)");
    table.setHeader(table_columns);
    table.setAlignment(std::vector<TextTable::Align>(
        table_columns.size(), TextTable::Align::Right));

    std::unique_ptr<SweepProbeFactory> probes;
    RunConfig instrumented = run;
    if (instr.any()) {
        probes = std::make_unique<SweepProbeFactory>(instr, input.name());
        instrumented.probeFactory = probes.get();
    }
    const auto points = sweepUnified(input, sizes, base, instrumented, engine);

    // Only a sweep that ran writes CSV: a refused one leaves no header
    // on stdout and no file.
    std::ofstream csv_file;
    std::unique_ptr<CsvWriter> csv;
    if (args.has("csv")) {
        std::ostream *os = &std::cout;
        if (args.get("csv") != "-") {
            csv_file.open(args.get("csv"));
            if (!csv_file)
                fatal("cannot open '", args.get("csv"), "'");
            os = &csv_file;
        }
        csv = std::make_unique<CsvWriter>(*os);
        csv->header(csv_columns);
    }
    for (const SweepPoint &pt : points) {
        TimingResult cycles;
        if (timing.enabled())
            cycles = computeTiming(timing, pt.stats, base.lineBytes);

        obs::ManifestResult entry{"sweep", pt.cacheBytes, pt.stats, {}};
        if (timing.enabled())
            applyTimingResult(entry, cycles);
        manifest.results.push_back(std::move(entry));

        std::vector<std::string> row = {
            formatSize(pt.cacheBytes), formatPercent(pt.stats.missRatio()),
            formatPercent(pt.stats.missRatio(AccessKind::IFetch)),
            formatPercent(pt.stats.dataMissRatio()),
            formatFixed(static_cast<double>(pt.stats.trafficBytes()) /
                            static_cast<double>(pt.stats.totalAccesses()),
                        2)};
        if (timing.enabled()) {
            row.push_back(formatFixed(cycles.amat, 2));
            row.push_back(formatFixed(cycles.trafficLimitedRefsPerCycle, 4));
        }
        table.addRow(row);
        if (csv) {
            csv->field(pt.cacheBytes)
                .field(pt.stats.missRatio(), 6)
                .field(pt.stats.missRatio(AccessKind::IFetch), 6)
                .field(pt.stats.dataMissRatio(), 6)
                .field(pt.stats.trafficBytes());
            if (timing.enabled())
                csv->field(cycles.amat, 4)
                    .field(cycles.trafficLimitedRefsPerCycle, 6);
            csv->endRow();
        }
    }
    if (!csv || args.get("csv") != "-")
        std::cout << table;
    if (probes)
        probes->finish();
    return 0;
}

/**
 * Simulate per the mode flags, appending results to @p manifest.
 * @p input is a const Trace (materialized) or a TraceSource (the
 * --stream path); modes that fundamentally need random access to the
 * whole trace (--opt, --sector) are materialized-only.
 */
template <typename Input>
int
runModes(const Args &args, Input &input, const CacheConfig &base,
         const RunConfig &run, bool sampling, const InstrumentFlags &instr,
         const TimingConfig &timing, obs::RunManifest &manifest)
{
    constexpr bool materialized =
        std::is_same_v<std::remove_const_t<Input>, Trace>;

    if constexpr (!materialized) {
        // Reject materialized-only modes before any simulation runs.
        if (args.has("opt"))
            fatal("--opt does not support --stream (Belady needs the "
                  "whole trace)");
        if (args.has("sector"))
            fatal("--sector does not support --stream yet");
    }

    if (instr.any()) {
        // Instrumentation needs a real simulated cache to emit events.
        if (sampling)
            fatal("--classify/--events/--set-heatmap do not support "
                  "--sample: sampled estimates are stitched from measured "
                  "intervals, so the event stream would have gaps");
        if (args.has("sector") &&
            (instr.classify || !instr.heatmapPath.empty()))
            fatal("--sector supports --events only: sector events carry "
                  "sub-block addresses without set geometry, so 3C "
                  "classification and set heatmaps are undefined");
    }

    if (args.has("sweep")) {
        if (sampling && args.has("engine") && !sampledEngine(args))
            fatal("--sample with --sweep implies the sampled engine; "
                  "drop --engine or pass --engine sampled");
        if (sampling || sampledEngine(args)) {
            if (instr.any())
                fatal("--classify/--events/--set-heatmap do not support "
                      "the sampled engine; use --engine per-size");
            return runSampledSweep(args, input, base, run,
                                   sampleConfigFrom(args), manifest);
        }
        return runSweep(args, input, base, run, engineFrom(args), instr,
                        timing, manifest);
    }

    if (sampling && args.has("sector"))
        fatal("--sample does not support sector caches yet");

    if (args.has("sector")) {
        if constexpr (!materialized) {
            fatal("--sector does not support --stream yet");
        } else {
            SectorCacheConfig cfg;
            cfg.sizeBytes = base.sizeBytes;
            cfg.sectorBytes = base.lineBytes;
            cfg.subblockBytes =
                static_cast<std::uint32_t>(args.getUint("sector", 4));
            SectorCache cache(cfg);
            SinkSet sinks(instr, base, input.name(), "sector",
                          instr.eventsPath, std::string{});
            cache.setProbe(sinks.probe());
            std::uint64_t since_purge = 0;
            for (const MemoryRef &ref : input) {
                if (run.purgeInterval && since_purge == run.purgeInterval) {
                    cache.purge();
                    since_purge = 0;
                }
                cache.access(ref);
                ++since_purge;
            }
            printStats("sector cache " + formatSize(cfg.sizeBytes) + "/" +
                           std::to_string(cfg.sectorBytes) + "B sectors/" +
                           std::to_string(cfg.subblockBytes) +
                           "B blocks on " + input.name(),
                       cache.stats());
            sinks.finish(cache.accessClock(), {{"role", "sector"}});
            manifest.results.push_back(
                {"sector", cfg.sizeBytes, cache.stats(), {}});
            return 0;
        }
    }

    if (args.has("split")) {
        SplitCache split(base, base);
        if (sampling) {
            const SampledRunResult r = runSampled(
                input, split, sampleConfigFrom(args), run);
            printSampled("split " + base.describe() + " on " + input.name(),
                         r);
            manifest.sampledResults.push_back(
                {"split", base.sizeBytes, r});
            return 0;
        }
        const auto side_path = [&](const std::string &path,
                                   const char *side) {
            return path.empty() ? std::string{} : path + side;
        };
        SinkSet isinks(instr, base, input.name(), "icache",
                       side_path(instr.eventsPath, ".icache"),
                       side_path(instr.heatmapPath, ".icache"));
        SinkSet dsinks(instr, base, input.name(), "dcache",
                       side_path(instr.eventsPath, ".dcache"),
                       side_path(instr.heatmapPath, ".dcache"));
        split.setProbes(isinks.probe(), dsinks.probe());
        const CacheStats s = runTrace(input, split, run);
        printStats("split " + base.describe() + " on " + input.name(), s);
        std::cout << "  I-cache: " << split.icache().stats().summarize()
                  << "\n  D-cache: " << split.dcache().stats().summarize()
                  << "\n";
        isinks.finish(split.icache().accessClock(), {{"role", "icache"}});
        dsinks.finish(split.dcache().accessClock(), {{"role", "dcache"}});
        printSinkLines(isinks, "I-cache");
        printSinkLines(dsinks, "D-cache");
        manifest.results.push_back({"combined", base.sizeBytes, s, {}});
        manifest.results.push_back(
            {"icache", base.sizeBytes, split.icache().stats(), {}});
        manifest.results.push_back(
            {"dcache", base.sizeBytes, split.dcache().stats(), {}});
        return 0;
    }

    if (sampling) {
        if (args.has("opt"))
            fatal("--sample does not support the OPT bound");
        Cache cache(base);
        const SampledRunResult r =
            runSampled(input, cache, sampleConfigFrom(args), run);
        printSampled(base.describe() + " on " + input.name(), r);
        manifest.sampledResults.push_back({"unified", base.sizeBytes, r});
        return 0;
    }

    Cache cache(base);
    SinkSet sinks(instr, base, input.name(), "unified", instr.eventsPath,
                  instr.heatmapPath);
    cache.setProbe(sinks.probe());
    const CacheStats s = runTrace(input, cache, run);
    printStats(base.describe() + " on " + input.name(), s);
    sinks.finish(cache.accessClock(), {});
    printSinkLines(sinks, {});
    obs::ManifestResult unified{"unified", base.sizeBytes, s, {}};
    if (timing.enabled()) {
        const TimingResult cycles = computeTiming(timing, s, base.lineBytes);
        applyTimingResult(unified, cycles);
        std::cout << "  AMAT " << formatFixed(cycles.amat, 2)
                  << " cycles/ref; bus busy "
                  << formatCount(
                         static_cast<std::uint64_t>(cycles.busCycles))
                  << " cycles";
        if (cycles.trafficLimitedRefsPerCycle > 0)
            std::cout << "; traffic-limited ceiling "
                      << formatFixed(cycles.trafficLimitedRefsPerCycle, 3)
                      << " refs/cycle";
        std::cout << "\n";
    }
    manifest.results.push_back(std::move(unified));

    if (args.has("opt")) {
        if constexpr (!materialized) {
            fatal("--opt does not support --stream (Belady needs the "
                  "whole trace)");
        } else {
            const CacheStats opt =
                simulateOptimal(input, base.sizeBytes, base.lineBytes);
            std::cout << "  OPT bound: miss "
                      << formatPercent(opt.missRatio()) << " ("
                      << formatCount(opt.demandFetches) << " fetches vs "
                      << formatCount(s.demandFetches) << ")\n";
            manifest.results.push_back({"opt_bound", base.sizeBytes, opt, {}});
        }
    }
    return 0;
}

/**
 * --spec FILE: run one declarative experiment spec — the exact JSON a
 * cachelab_serve tenant submits — standalone, through the same engine
 * and manifest builder the server uses.  This is the reproducibility
 * escape hatch: re-running a server answer here must produce a
 * bitwise-identical "results" section.
 */
int
runSpecMode(const Args &args, int argc, char **argv)
{
    // The spec carries its own input, cache axes and run parameters;
    // mixing it with the flag-driven modes would be ambiguous.
    for (const char *flag :
         {"trace", "profile", "refs", "stream", "sweep", "sample", "opt",
          "sector", "split", "ckpt", "ckpt-write", "size",
          "line", "assoc", "warmup", "purge", "classify", "events",
          "set-heatmap", "replacement", "admission", "timing"})
        if (args.has(flag) &&
            !(std::string_view(flag) == "profile" &&
              args.get("profile").empty()))
            fatal("--spec is exclusive with --", flag,
                  " (the spec file carries the whole experiment)");

    const std::string path = args.get("spec");
    std::string text;
    if (path == "-") {
        std::ostringstream buf;
        buf << std::cin.rdbuf();
        text = buf.str();
    } else {
        std::ifstream in(path, std::ios::binary);
        if (!in)
            fatal("cannot open spec file: ", path);
        std::ostringstream buf;
        buf << in.rdbuf();
        text = buf.str();
    }

    serve::ExperimentSpec spec;
    if (std::optional<std::string> error =
            serve::parseExperimentSpec(text, spec))
        fatal("invalid spec ", path, ": ", *error);

    serve::EngineOptions engine;
    engine.jobs = static_cast<unsigned>(args.getUint("jobs", 0));
    engine.batchRefs = args.getUint("batch", 0);
    const serve::ExperimentResult result = serve::runExperiment(spec, engine);
    if (!result.error.empty())
        fatal("spec ", path, ": ", result.error);

    obs::RunManifest manifest = serve::buildExperimentManifest(
        spec, result, "cachelab_sim", obs::joinArgv(argc, argv));

    const std::string out_path = args.get("metrics-json", "-");
    if (out_path == "-") {
        obs::writeManifest(std::cout, manifest);
    } else {
        std::ofstream out(out_path);
        if (!out)
            fatal("cannot open '", out_path, "'");
        obs::writeManifest(out, manifest);
        inform("wrote run manifest to ", out_path);
    }
    return 0;
}

/** @return the descriptive mode name for the manifest config. */
std::string
modeName(const Args &args, bool sampling)
{
    if (args.has("ckpt-write"))
        return "ckpt-write";
    if (args.has("ckpt"))
        return "ckpt-sweep";
    if (args.has("sweep"))
        return sampling ? "sampled-sweep" : "sweep";
    if (args.has("sector"))
        return "sector";
    if (args.has("split"))
        return sampling ? "sampled-split" : "split";
    return sampling ? "sampled" : "single";
}

} // namespace

/** The flags kUsage documents; Args refuses any other. */
constexpr std::string_view kFlags[] = {
    "admission", "assoc", "batch", "ckpt", "ckpt-write", "classify",
    "classify-interval", "csv", "engine", "events", "events-sample",
    "fetch", "help", "jobs", "line", "metrics-json", "opt", "perf",
    "phase-profile", "profile", "progress", "purge", "refs",
    "replacement", "sample", "sample-confidence", "sample-error",
    "sample-select", "sample-unit", "sample-warming", "sample-warmup",
    "sector", "seed", "set-heatmap", "size", "spec", "split", "stream",
    "sweep", "timing", "trace", "trace-out", "warmup", "write",
    "write-miss"};

int
main(int argc, char **argv)
{
    handleVersionFlag(argc, argv, "cachelab_sim");
    const Args args(argc, argv, kFlags);
    if (args.has("help")) {
        std::cout << kUsage;
        return 0;
    }
    if (args.has("spec"))
        return runSpecMode(args, argc, argv);

    // Observability switches, decided before any work happens.  A
    // bare --profile (no value) is accepted as a --phase-profile
    // alias; --profile NAME keeps meaning a corpus workload.
    const bool phase_profile = args.has("phase-profile") ||
        (args.has("profile") && args.get("profile").empty());
    const bool want_manifest = args.has("metrics-json");
    const bool want_trace = args.has("trace-out");
    const bool want_perf = args.has("perf");
    // Phase timings feed the manifest too, so either flag turns the
    // profiler on; the table only prints under --phase-profile.
    // --perf rides on the profiler's scopes (that is where counters
    // are sampled) and prints the table — IPC/MPKI columns are its
    // primary human-readable surface.
    obs::setPerfEnabled(want_perf);
    obs::setProfilingEnabled(phase_profile || want_manifest || want_perf);
    obs::TraceRecorder::global().setEnabled(want_trace);

    const auto wall_start = std::chrono::steady_clock::now();

    // --stream keeps the input out of core: a TraceSource is opened
    // (a file mapped and decoded in place, or on-the-fly generation)
    // and every driver consumes it in O(batch) memory.  The default path
    // materializes, which the random-access modes (--opt, --sector)
    // require.
    const bool stream = args.has("stream");
    std::unique_ptr<Trace> trace;
    std::unique_ptr<TraceSource> source;
    {
        obs::ProfileScope load_scope("load_input");
        obs::TraceSpan load_span("load_input", "tool");
        if (stream)
            source = streamInput(args);
        else
            trace = std::make_unique<Trace>(loadInput(args));
    }

    const CacheConfig base = configFrom(args);
    RunConfig run;
    run.purgeInterval = args.getUint("purge", 0);
    run.warmupRefs = args.getUint("warmup", 0);
    run.jobs = static_cast<unsigned>(args.getUint("jobs", 0));
    run.batchRefs = args.getUint("batch", 0);

    const InstrumentFlags instr = instrumentFrom(args);
    const TimingConfig timing = timingFrom(args);
    const bool sampling = args.has("sample");
    if (timing.enabled() &&
        (sampling || args.has("sector") || args.has("split") ||
         args.has("opt") || args.has("ckpt") || args.has("ckpt-write")))
        fatal("--timing supports unified runs and plain --sweep only "
              "(no --sample/--sector/--split/--opt/--ckpt modes)");
    // Every split sweep (plain, sampled or --ckpt) prints per-side rows
    // only, and per-size probe files would collide across the sides.
    if (args.has("sweep") && args.has("split") &&
        (args.has("csv") || instr.any()))
        fatal("--split --sweep writes no --csv and supports no "
              "--classify/--events/--set-heatmap");
    if (sampling && args.has("warmup"))
        fatal("--sample replaces --warmup with --sample-warming/"
              "--sample-warmup");
    if (args.has("engine") && !args.has("sweep"))
        fatal("--engine only applies to --sweep");

    const bool ckpt_write = args.has("ckpt-write");
    const bool ckpt_read = args.has("ckpt");
    if (ckpt_write && ckpt_read)
        fatal("--ckpt-write and --ckpt are mutually exclusive (write the "
              "store first, then fan out with --ckpt)");
    if (ckpt_write || ckpt_read) {
        const char *flag = ckpt_write ? "--ckpt-write" : "--ckpt";
        if (args.get(ckpt_write ? "ckpt-write" : "ckpt").empty())
            fatal(flag, " needs a store directory");
        if (!args.has("sweep"))
            fatal(flag, " needs --sweep LO:HI (the store serves a size "
                  "sweep; a single size is a one-point sweep)");
        if (args.has("engine"))
            fatal(flag, " picks its own engine; drop --engine");
        if (args.has("opt") || args.has("sector"))
            fatal(flag, " supports plain --sweep only (no --opt/--sector)");
        if (args.has("warmup"))
            fatal(flag, " replaces --warmup with the sampling plan's "
                  "warming");
        if (instr.any())
            fatal(flag, " does not support --classify/--events/"
                  "--set-heatmap");
    }

    if (args.has("progress")) {
        std::uint64_t expected =
            stream ? inputRefs(*source) : trace->size();
        // A per-size sweep replays the input once per point; verify
        // adds a single-pass run on top; the single-pass engine costs
        // one pass.
        if (args.has("sweep") && !sampling && !sampledEngine(args)) {
            SweepEngine engine = engineFrom(args);
            if (engine == SweepEngine::Auto)
                engine = sweepSinglePassEligible(base, run)
                    ? SweepEngine::SinglePass
                    : SweepEngine::PerSize;
            const auto [lo, hi] = sweepRange(args);
            const std::uint64_t points = powersOfTwo(lo, hi).size();
            if (engine == SweepEngine::PerSize)
                expected *= points;
            else if (engine == SweepEngine::Verify)
                expected *= points + 1;
        }
        obs::ProgressMeter::global().start(
            expected, stream ? source->name() : trace->name());
    }

    obs::RunManifest manifest;
    manifest.tool = "cachelab_sim";
    manifest.argv = obs::joinArgv(argc, argv);
    manifest.traceName = stream ? source->name() : trace->name();
    manifest.traceRefs = stream ? inputRefs(*source) : trace->size();
    manifest.seed = args.getUint("seed", 1);
    manifest.config = {
        {"mode", modeName(args, sampling)},
        {"input", stream ? "stream" : "materialized"},
        {"cache", base.describe()},
        {"size_bytes", std::to_string(base.sizeBytes)},
        {"line_bytes", std::to_string(base.lineBytes)},
        {"associativity", std::to_string(base.associativity)},
        {"purge_interval", std::to_string(run.purgeInterval)},
        {"warmup_refs", std::to_string(run.warmupRefs)},
        {"jobs", std::to_string(run.jobs ? run.jobs
                                         : ThreadPool::defaultJobs())},
    };
    if (args.has("sweep")) {
        manifest.config.emplace_back("sweep", args.get("sweep"));
        manifest.config.emplace_back("engine", args.get("engine", "auto"));
    }
    if (stream)
        manifest.config.emplace_back(
            "batch_refs", std::to_string(run.resolvedBatchRefs()));
    if (sampling || ckpt_write || ckpt_read)
        manifest.config.emplace_back("sample",
                                     sampleConfigFrom(args).describe());
    manifest.replacement = base.replacement;
    manifest.admission = base.admission;
    applyTimingConfig(manifest, timing);

    int rc = 0;
    {
        obs::ProfileScope sim_scope("simulate");
        if (ckpt_write || ckpt_read) {
            // Both checkpoint modes stream; a materialized Trace is its
            // own TraceSource.
            TraceSource &input =
                stream ? *source : static_cast<TraceSource &>(*trace);
            rc = ckpt_write
                ? runCkptWrite(args, input, base, run, manifest)
                : runCkptSweep(args, input, base, run, manifest);
        } else {
            rc = stream
                ? runModes(args, *source, base, run, sampling, instr,
                           timing, manifest)
                : runModes(args, static_cast<const Trace &>(*trace), base,
                           run, sampling, instr, timing, manifest);
        }
    }

    if (args.has("progress"))
        obs::ProgressMeter::global().finish();

    if (want_trace) {
        obs::ProfileScope report_scope("report.trace");
        std::ofstream out(args.get("trace-out"));
        if (!out)
            fatal("cannot open '", args.get("trace-out"), "'");
        obs::TraceRecorder::global().write(out);
        inform("wrote Chrome trace (",
               obs::TraceRecorder::global().eventCount(), " events) to ",
               args.get("trace-out"));
    }

    if (phase_profile || want_perf)
        std::cout << "\n" << obs::renderProfileTable(obs::profileReport());
    if (want_perf) {
        const std::string reason = obs::perfUnavailableReason();
        if (!reason.empty())
            inform("perf counters degraded: ", reason);
    }

    if (want_manifest) {
        const double wall =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          wall_start)
                .count();
        manifest.wallSeconds = wall;
        obs::Registry &registry = obs::Registry::global();
        manifest.refsProcessed =
            registry.snapshot().counterValue("sim.refs") +
            registry.snapshot().counterValue("sample.refs_processed");
        // Local pools (--jobs N) publish their own utilization before
        // they die; only the shared-pool path needs a publish here, and
        // doing it unconditionally would wipe a local pool's totals.
        if (run.jobs == 0)
            obs::publishThreadPool(registry, ThreadPool::shared());
        if (want_perf)
            obs::publishPerfMetrics(registry, obs::perfTotals());

        if (args.get("metrics-json") == "-") {
            obs::writeManifest(std::cout, manifest);
        } else {
            std::ofstream out(args.get("metrics-json"));
            if (!out)
                fatal("cannot open '", args.get("metrics-json"), "'");
            obs::writeManifest(out, manifest);
            inform("wrote run manifest to ", args.get("metrics-json"));
        }
    }
    return rc;
}
