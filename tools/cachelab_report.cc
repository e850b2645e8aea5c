/**
 * @file
 * cachelab-report: render a run's manifest + event-log artifacts into
 * CSV and Markdown.
 *
 * Input is the pair a classified, event-logged cachelab_sim run
 * leaves behind — the --metrics-json manifest and the --events JSONL
 * file (one per cache; pick one of the FILE.<size> files after a
 * sweep).  Output is an out-dir with:
 *
 *   intervals.csv     per-interval miss-ratio time series with the 3C
 *                     split and the cumulative miss ratio ("what
 *                     would a shorter trace have concluded?")
 *   breakdown_3c.csv  the whole-run stacked 3C breakdown
 *   report.md         a Markdown summary: provenance, totals, the
 *                     interval table, logged event volume by type,
 *                     and the top conflict sets seen in the log
 *
 * Examples:
 *   cachelab_sim --profile ZGREP --size 4096 --assoc 2 --stream \
 *                --classify --events run.jsonl --metrics-json run.json
 *   cachelab_report --manifest run.json --events run.jsonl --out-dir rpt
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "util/csv.hh"
#include "util/format.hh"
#include "util/json_reader.hh"
#include "util/logging.hh"

#include "args.hh"
#include "version.hh"

using namespace cachelab;
using namespace cachelab::tools;

namespace
{

constexpr const char *kUsage = R"(usage: cachelab_report [options]

single-run mode (all three required):
  --manifest FILE       run manifest from cachelab_sim --metrics-json
  --events FILE         JSONL event log from cachelab_sim --events
                        (after a sweep, one of the FILE.<size> files)
  --out-dir DIR         output directory (created if missing)

campaign mode:
  --registry DIR        render a campaign summary from a cachelab_serve
                        run registry (DIR/index.json) to stdout:
                        per-tenant latency table, slowest runs,
                        cache-hit ratios

bench-compare mode (the perf regression gate):
  --bench-compare BASELINE CURRENT
                        compare cachelab_bench documents: each side is
                        one BENCH_<scenario>.json file or a directory
                        of them; renders a markdown delta table on
                        stdout and exits non-zero when any scenario's
                        median wall time slowed beyond the threshold
  --bench-threshold F   slowdown tolerance as a fraction of the
                        baseline median (default 0.10 = +10%)
  --bench-csv FILE      also write the delta table as CSV

options:
  --top N               conflict sets / slowest runs listed (default 8)
)";

/** One {"type":"interval"} record from the events file. */
struct Interval
{
    std::uint64_t startRef = 0;
    std::uint64_t refs = 0;
    std::uint64_t misses = 0;
    std::uint64_t compulsory = 0;
    std::uint64_t capacity = 0;
    std::uint64_t conflict = 0;
};

/** Everything extracted from one events JSONL file. */
struct EventLog
{
    // from the {"type":"run"} header
    std::string trace;
    std::string role;
    std::string cache;
    std::uint64_t sampleEvery = 1;

    std::vector<Interval> intervals;
    bool haveTotals = false;
    Interval totals; ///< startRef unused; refs = run length
    std::map<std::string, std::uint64_t> eventCounts; ///< by record type
    std::map<std::uint64_t, std::uint64_t> evictionsBySet; ///< non-purge
    std::uint64_t seen = 0;   ///< from the log_summary trailer
    std::uint64_t logged = 0;
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("cannot open '", path, "'");
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::uint64_t
uintField(const JsonValue &record, std::string_view key)
{
    const JsonValue *v = record.find(key);
    return v != nullptr ? v->asUint() : 0;
}

/** Parse an events JSONL file (fatal on any malformed line). */
EventLog
loadEvents(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open '", path, "'");
    EventLog log;
    std::string line;
    std::uint64_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty())
            continue;
        std::string err;
        const std::optional<JsonValue> record = parseJson(line, &err);
        if (!record)
            fatal(path, ":", lineno, ": ", err);
        const std::string &type = record->at("type").asString();
        if (type == "run") {
            log.trace = record->at("trace").asString();
            log.role = record->at("role").asString();
            log.cache = record->at("cache").asString();
            log.sampleEvery = uintField(*record, "sample_every");
        } else if (type == "interval") {
            log.intervals.push_back(
                {uintField(*record, "start_ref"), uintField(*record, "refs"),
                 uintField(*record, "misses"),
                 uintField(*record, "compulsory"),
                 uintField(*record, "capacity"),
                 uintField(*record, "conflict")});
        } else if (type == "totals") {
            log.haveTotals = true;
            log.totals = {0, uintField(*record, "refs"),
                          uintField(*record, "misses"),
                          uintField(*record, "compulsory"),
                          uintField(*record, "capacity"),
                          uintField(*record, "conflict")};
        } else if (type == "log_summary") {
            log.seen = uintField(*record, "seen");
            log.logged = uintField(*record, "logged");
        } else {
            ++log.eventCounts[type];
            if (type == "evict" && !record->at("purge").asBool())
                ++log.evictionsBySet[record->at("set").asUint()];
        }
    }
    return log;
}

/** Sets ranked by logged replacement evictions, descending. */
std::vector<std::pair<std::uint64_t, std::uint64_t>>
topConflictSets(const EventLog &log, std::size_t n)
{
    std::vector<std::pair<std::uint64_t, std::uint64_t>> sets(
        log.evictionsBySet.begin(), log.evictionsBySet.end());
    std::sort(sets.begin(), sets.end(), [](const auto &a, const auto &b) {
        return a.second != b.second ? a.second > b.second
                                    : a.first < b.first;
    });
    if (sets.size() > n)
        sets.resize(n);
    return sets;
}

void
writeIntervalsCsv(const std::string &path, const EventLog &log)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot open '", path, "'");
    CsvWriter csv(out);
    csv.header({"start_ref", "refs", "misses", "miss_ratio", "compulsory",
                "capacity", "conflict", "cumulative_miss_ratio"});
    std::uint64_t refs = 0;
    std::uint64_t misses = 0;
    for (const Interval &iv : log.intervals) {
        refs += iv.refs;
        misses += iv.misses;
        csv.field(iv.startRef)
            .field(iv.refs)
            .field(iv.misses)
            .field(iv.refs ? static_cast<double>(iv.misses) /
                       static_cast<double>(iv.refs)
                           : 0.0,
                   6)
            .field(iv.compulsory)
            .field(iv.capacity)
            .field(iv.conflict)
            .field(refs ? static_cast<double>(misses) /
                       static_cast<double>(refs)
                        : 0.0,
                   6);
        csv.endRow();
    }
}

void
writeBreakdownCsv(const std::string &path, const Interval &t)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot open '", path, "'");
    CsvWriter csv(out);
    csv.header({"class", "misses", "share"});
    const auto row = [&](const char *name, std::uint64_t v) {
        csv.field(std::string(name)).field(v);
        csv.field(t.misses ? static_cast<double>(v) /
                      static_cast<double>(t.misses)
                           : 0.0,
                  6);
        csv.endRow();
    };
    row("compulsory", t.compulsory);
    row("capacity", t.capacity);
    row("conflict", t.conflict);
    row("total", t.misses);
}

/** A manifest string reached by @p path, or "" when absent. */
std::string
manifestString(const JsonValue &manifest,
               std::initializer_list<std::string_view> path)
{
    const JsonValue *v = &manifest;
    for (std::string_view key : path) {
        v = v->find(key);
        if (v == nullptr)
            return {};
    }
    return v->isString() ? v->asString() : std::string{};
}

std::string
pct(std::uint64_t part, std::uint64_t whole)
{
    return whole == 0 ? std::string("-")
                      : formatPercent(static_cast<double>(part) /
                                      static_cast<double>(whole));
}

void
writeReportMd(const std::string &path, const JsonValue &manifest,
              const EventLog &log, std::size_t top_n)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot open '", path, "'");

    out << "# cachelab run report\n\n";
    out << "- trace: **" << log.trace << "**";
    if (const JsonValue *refs = manifest.find("input");
        refs != nullptr && refs->find("refs") != nullptr)
        out << " (" << formatCount(refs->at("refs").asUint()) << " refs)";
    out << "\n";
    out << "- cache: `" << log.cache << "` (role " << log.role << ")\n";
    if (const std::string tool = manifestString(manifest, {"tool"});
        !tool.empty())
        out << "- tool: " << tool << "\n";
    if (const std::string sha =
            manifestString(manifest, {"provenance", "git_sha"});
        !sha.empty())
        out << "- build: " << sha << " on "
            << manifestString(manifest, {"provenance", "hostname"}) << "\n";
    if (const std::string argv =
            manifestString(manifest, {"provenance", "argv"});
        !argv.empty())
        out << "- command: `" << argv << "`\n";
    // Schema v2 carries the policy as a structured object; v1
    // manifests spell it only inside the cache describe() string
    // already shown above, so these lines simply stay absent.
    if (const std::string policy =
            manifestString(manifest, {"policy", "canonical"});
        !policy.empty())
        out << "- replacement policy: `" << policy << "`\n";
    if (const std::string admission =
            manifestString(manifest, {"admission", "canonical"});
        !admission.empty())
        out << "- admission filter: `" << admission << "`\n";
    out << "\n";

    if (const JsonValue *timing = manifest.find("timing");
        timing != nullptr && timing->isObject()) {
        out << "## Timing model (AMAT)\n\n";
        out << "Configured latencies: hit "
            << timing->at("hit_cycles").asDouble() << ", L2 hit "
            << timing->at("l2_hit_cycles").asDouble() << ", memory "
            << timing->at("memory_cycles").asDouble()
            << " cycles; interface width "
            << timing->at("width_bytes").asDouble() << " B/cycle.\n\n";
        if (const JsonValue *results = manifest.find("results");
            results != nullptr && results->isArray()) {
            out << "| result | cache | AMAT (cycles/ref) | bus cycles | "
                   "traffic-limited refs/cycle |\n"
                   "|---|---:|---:|---:|---:|\n";
            for (const JsonValue &result : results->items()) {
                const JsonValue *cycles = result.find("timing");
                if (cycles == nullptr)
                    continue;
                out << "| " << result.at("name").asString() << " | "
                    << formatSize(result.at("cache_bytes").asUint())
                    << " | " << cycles->at("amat").asDouble() << " | "
                    << cycles->at("bus_cycles").asDouble() << " | "
                    << cycles->at("traffic_limited_refs_per_cycle")
                           .asDouble()
                    << " |\n";
            }
            out << "\n";
        }
    }

    if (log.haveTotals) {
        const Interval &t = log.totals;
        out << "## 3C miss breakdown\n\n";
        out << "| class | misses | share |\n|---|---:|---:|\n";
        out << "| compulsory | " << t.compulsory << " | "
            << pct(t.compulsory, t.misses) << " |\n";
        out << "| capacity | " << t.capacity << " | "
            << pct(t.capacity, t.misses) << " |\n";
        out << "| conflict | " << t.conflict << " | "
            << pct(t.conflict, t.misses) << " |\n";
        out << "| **total** | **" << t.misses << "** | "
            << pct(t.misses, t.refs) << " of refs |\n\n";
    }

    if (!log.intervals.empty()) {
        out << "## Interval time series\n\n"
            << log.intervals.size()
            << " intervals (full series in intervals.csv):\n\n";
        out << "| start_ref | refs | miss ratio | compulsory | capacity "
               "| conflict |\n|---:|---:|---:|---:|---:|---:|\n";
        for (const Interval &iv : log.intervals) {
            out << "| " << iv.startRef << " | " << iv.refs << " | "
                << pct(iv.misses, iv.refs) << " | " << iv.compulsory
                << " | " << iv.capacity << " | " << iv.conflict << " |\n";
        }
        out << "\n";
    }

    if (!log.eventCounts.empty()) {
        out << "## Logged events\n\n";
        if (log.sampleEvery > 1)
            out << "Sampled 1-in-" << log.sampleEvery
                << ": counts below are of *logged* events, not all "
                   "events.\n\n";
        out << "| type | count |\n|---|---:|\n";
        for (const auto &[type, count] : log.eventCounts)
            out << "| " << type << " | " << count << " |\n";
        out << "| **total** | **" << log.logged << "** of " << log.seen
            << " seen |\n\n";
    }

    const auto top = topConflictSets(log, top_n);
    if (!top.empty()) {
        out << "## Top conflict sets\n\n"
            << "Sets ranked by replacement evictions in the log — where "
               "set-mapping pressure concentrates.\n\n";
        out << "| set | evictions |\n|---:|---:|\n";
        for (const auto &[set, evictions] : top)
            out << "| " << set << " | " << evictions << " |\n";
        out << "\n";
    }
}

// ---- campaign mode: cachelab_report --registry DIR -----------------

/** One index.json entry, as written by serve::RunRegistry. */
struct RegistryRun
{
    std::uint64_t seq = 0;
    std::string tenant;
    std::string input;
    std::string inputKind;
    std::string outcome;
    std::uint64_t refs = 0;
    bool cacheHit = false;
    std::uint64_t queueWaitNs = 0;
    std::uint64_t execNs = 0;
    std::uint64_t e2eNs = 0;
};

std::string
stringField(const JsonValue &record, std::string_view key)
{
    const JsonValue *v = record.find(key);
    return v != nullptr && v->isString() ? v->asString() : std::string{};
}

std::vector<RegistryRun>
loadRegistryIndex(const std::string &dir)
{
    const std::string index_path = dir + "/index.json";
    std::string err;
    const std::optional<JsonValue> doc =
        parseJson(readFile(index_path), &err);
    if (!doc)
        fatal(index_path, ": ", err);
    if (const JsonValue *schema = doc->find("schema");
        schema == nullptr || schema->asString() != "cachelab.run_registry")
        fatal(index_path, ": not a cachelab run registry index");
    std::vector<RegistryRun> runs;
    for (const JsonValue &entry : doc->at("runs").items()) {
        RegistryRun run;
        run.seq = uintField(entry, "seq");
        run.tenant = stringField(entry, "tenant");
        run.input = stringField(entry, "input");
        run.inputKind = stringField(entry, "input_kind");
        run.outcome = stringField(entry, "outcome");
        run.refs = uintField(entry, "refs");
        const JsonValue *hit = entry.find("cache_hit");
        run.cacheHit = hit != nullptr && hit->isBool() && hit->asBool();
        run.queueWaitNs = uintField(entry, "queue_wait_ns");
        run.execNs = uintField(entry, "exec_ns");
        run.e2eNs = uintField(entry, "e2e_ns");
        runs.push_back(std::move(run));
    }
    return runs;
}

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
    return formatFixed(v, v >= 100 ? 0 : 2) + " " + unit;
}

int
campaignReport(const std::string &dir, std::size_t top_n)
{
    const std::vector<RegistryRun> runs = loadRegistryIndex(dir);
    std::cout << "# cachelab campaign summary\n\n";
    std::cout << "- registry: `" << dir << "` (" << runs.size()
              << " retained runs)\n";

    std::uint64_t ok = 0;
    std::uint64_t errors = 0;
    std::uint64_t hits = 0;
    for (const RegistryRun &run : runs) {
        (run.outcome == "ok" ? ok : errors) += 1;
        hits += run.cacheHit ? 1 : 0;
    }
    std::cout << "- outcomes: " << ok << " ok, " << errors << " error\n";
    std::cout << "- resource-cache hit ratio: " << pct(hits, runs.size())
              << "\n\n";
    if (runs.empty())
        return 0;

    // Per-tenant accounting, in first-seen order.
    struct TenantRow
    {
        std::uint64_t runs = 0;
        std::uint64_t errors = 0;
        std::uint64_t hits = 0;
        std::uint64_t refs = 0;
        std::uint64_t sumE2e = 0;
        std::uint64_t maxE2e = 0;
    };
    std::vector<std::pair<std::string, TenantRow>> tenants;
    for (const RegistryRun &run : runs) {
        auto it = std::find_if(
            tenants.begin(), tenants.end(),
            [&run](const auto &t) { return t.first == run.tenant; });
        if (it == tenants.end())
            it = tenants.insert(tenants.end(), {run.tenant, {}});
        TenantRow &row = it->second;
        ++row.runs;
        row.errors += run.outcome == "ok" ? 0 : 1;
        row.hits += run.cacheHit ? 1 : 0;
        row.refs += run.refs;
        row.sumE2e += run.e2eNs;
        row.maxE2e = std::max(row.maxE2e, run.e2eNs);
    }
    std::cout << "## Per-tenant latency\n\n";
    std::cout << "| tenant | runs | errors | cache hits | refs | mean e2e "
                 "| max e2e |\n|---|---:|---:|---:|---:|---:|---:|\n";
    for (const auto &[tenant, row] : tenants) {
        std::cout << "| " << tenant << " | " << row.runs << " | "
                  << row.errors << " | " << pct(row.hits, row.runs)
                  << " | " << formatCount(row.refs) << " | "
                  << formatNs(static_cast<double>(row.sumE2e) /
                              static_cast<double>(row.runs))
                  << " | "
                  << formatNs(static_cast<double>(row.maxE2e)) << " |\n";
    }
    std::cout << "\n";

    std::vector<RegistryRun> slowest = runs;
    std::sort(slowest.begin(), slowest.end(),
              [](const RegistryRun &a, const RegistryRun &b) {
                  return a.e2eNs != b.e2eNs ? a.e2eNs > b.e2eNs
                                            : a.seq < b.seq;
              });
    if (slowest.size() > top_n)
        slowest.resize(top_n);
    std::cout << "## Slowest runs\n\n";
    std::cout << "| seq | tenant | input | outcome | queue wait | exec | "
                 "e2e |\n|---:|---|---|---|---:|---:|---:|\n";
    for (const RegistryRun &run : slowest) {
        std::cout << "| " << run.seq << " | " << run.tenant << " | "
                  << run.input << " | " << run.outcome << " | "
                  << formatNs(static_cast<double>(run.queueWaitNs))
                  << " | " << formatNs(static_cast<double>(run.execNs))
                  << " | " << formatNs(static_cast<double>(run.e2eNs))
                  << " |\n";
    }
    std::cout << "\n";
    return 0;
}

// ---- bench-compare mode: the performance regression gate -----------

/** One cachelab.bench v1 document, reduced to what the gate needs. */
struct BenchDoc
{
    std::string scenario;
    std::string git;
    double medianWallS = 0.0;
    double madWallS = 0.0;
    double refsPerSecond = 0.0;
    std::uint64_t workRefs = 0;
};

BenchDoc
loadBenchDoc(const std::string &path)
{
    std::string err;
    const std::optional<JsonValue> doc = parseJson(readFile(path), &err);
    if (!doc)
        fatal(path, ": ", err);
    if (const JsonValue *schema = doc->find("schema");
        schema == nullptr || schema->asString() != "cachelab.bench")
        fatal(path, ": not a cachelab.bench document");
    if (const JsonValue *version = doc->find("schema_version");
        version != nullptr && version->isUint() && version->asUint() > 1)
        fatal(path, ": bench schema_version ", version->asUint(),
              " is newer than this tool (knows 1)");
    BenchDoc out;
    out.scenario = doc->at("scenario").asString();
    out.git = manifestString(*doc, {"build", "git"});
    const JsonValue &stats = doc->at("stats");
    out.medianWallS = stats.at("median_wall_s").asDouble();
    out.madWallS = stats.at("mad_wall_s").asDouble();
    out.refsPerSecond = stats.at("refs_per_s_median").asDouble();
    out.workRefs = uintField(*doc, "work_refs");
    return out;
}

/** @p path is one document or a directory of BENCH_*.json files. */
std::vector<BenchDoc>
loadBenchSide(const std::string &path)
{
    std::vector<BenchDoc> docs;
    if (std::filesystem::is_directory(path)) {
        std::vector<std::string> files;
        for (const auto &entry :
             std::filesystem::directory_iterator(path)) {
            const std::string name = entry.path().filename().string();
            if (entry.is_regular_file() &&
                name.rfind("BENCH_", 0) == 0 &&
                name.size() > 5 + 6 &&
                name.compare(name.size() - 5, 5, ".json") == 0)
                files.push_back(entry.path().string());
        }
        std::sort(files.begin(), files.end());
        for (const std::string &file : files)
            docs.push_back(loadBenchDoc(file));
        if (docs.empty())
            fatal(path, ": no BENCH_*.json documents found");
    } else {
        docs.push_back(loadBenchDoc(path));
    }
    return docs;
}

const BenchDoc *
findScenario(const std::vector<BenchDoc> &docs, const std::string &name)
{
    for (const BenchDoc &doc : docs) {
        if (doc.scenario == name)
            return &doc;
    }
    return nullptr;
}

int
benchCompare(const std::string &baseline_path,
             const std::string &current_path, double threshold,
             const std::string &csv_path)
{
    if (threshold <= 0.0)
        fatal("--bench-threshold must be positive");
    const std::vector<BenchDoc> baseline = loadBenchSide(baseline_path);
    const std::vector<BenchDoc> current = loadBenchSide(current_path);

    std::cout << "# cachelab bench comparison\n\n";
    std::cout << "- baseline: `" << baseline_path << "`";
    if (!baseline.front().git.empty())
        std::cout << " (build " << baseline.front().git << ")";
    std::cout << "\n- current: `" << current_path << "`";
    if (!current.front().git.empty())
        std::cout << " (build " << current.front().git << ")";
    std::cout << "\n- gate: median wall time must not slow by more than "
              << formatPercent(threshold) << "\n\n";

    std::ofstream csv_out;
    std::unique_ptr<CsvWriter> csv;
    if (!csv_path.empty()) {
        csv_out.open(csv_path);
        if (!csv_out)
            fatal("cannot open '", csv_path, "'");
        csv = std::make_unique<CsvWriter>(csv_out);
        csv->header({"scenario", "baseline_median_s", "current_median_s",
                     "delta_fraction", "baseline_mad_s", "current_mad_s",
                     "status"});
    }

    std::cout << "| scenario | baseline median | current median | delta | "
                 "status |\n|---|---:|---:|---:|---|\n";
    std::vector<std::string> regressions;
    std::size_t compared = 0;
    for (const BenchDoc &base : baseline) {
        const BenchDoc *cur = findScenario(current, base.scenario);
        if (cur == nullptr) {
            std::cout << "| " << base.scenario << " | "
                      << formatFixed(base.medianWallS * 1e3, 3)
                      << " ms | - | - | missing from current |\n";
            continue;
        }
        ++compared;
        const double delta =
            base.medianWallS > 0.0
                ? (cur->medianWallS - base.medianWallS) / base.medianWallS
                : 0.0;
        const bool regressed = delta > threshold;
        const char *status = regressed ? "**REGRESSION**"
                             : delta < -threshold ? "improved"
                                                  : "ok";
        if (regressed)
            regressions.push_back(base.scenario);
        std::cout << "| " << base.scenario << " | "
                  << formatFixed(base.medianWallS * 1e3, 3) << " ms | "
                  << formatFixed(cur->medianWallS * 1e3, 3) << " ms | "
                  << (delta >= 0 ? "+" : "") << formatPercent(delta)
                  << " | " << status << " |\n";
        if (csv) {
            csv->field(base.scenario)
                .field(base.medianWallS, 9)
                .field(cur->medianWallS, 9)
                .field(delta, 6)
                .field(base.madWallS, 9)
                .field(cur->madWallS, 9)
                .field(std::string(regressed ? "regression"
                                             : delta < -threshold
                                                   ? "improved"
                                                   : "ok"));
            csv->endRow();
        }
    }
    for (const BenchDoc &cur : current) {
        if (findScenario(baseline, cur.scenario) == nullptr)
            std::cout << "| " << cur.scenario << " | - | "
                      << formatFixed(cur.medianWallS * 1e3, 3)
                      << " ms | - | missing from baseline |\n";
    }
    std::cout << "\n";
    if (compared == 0)
        fatal("no scenario appears on both sides; nothing to gate");
    if (csv)
        inform("wrote delta table to ", csv_path);

    if (!regressions.empty()) {
        std::cout << "Gate **FAILED**: ";
        for (std::size_t i = 0; i < regressions.size(); ++i)
            std::cout << (i ? ", " : "") << regressions[i];
        std::cout << " slowed beyond " << formatPercent(threshold)
                  << ".\n";
        return 1;
    }
    std::cout << "Gate passed: " << compared
              << " scenario(s) within threshold.\n";
    return 0;
}

} // namespace

/** The flags kUsage documents; Args refuses any other. */
constexpr std::string_view kFlags[] = {
    "bench-compare", "bench-csv", "bench-threshold", "events", "help",
    "manifest", "out-dir", "registry", "top"};

int
main(int argc, char **argv)
{
    handleVersionFlag(argc, argv, "cachelab_report");
    const Args args(argc, argv, kFlags);
    if (args.has("help")) {
        std::cout << kUsage;
        return 0;
    }
    const std::size_t top_n =
        static_cast<std::size_t>(args.getUint("top", 8));
    if (args.has("bench-compare")) {
        // The parser binds BASELINE to the option; CURRENT lands in
        // the positional list.
        const std::string baseline = args.get("bench-compare");
        if (baseline.empty() || args.positional().empty())
            fatal("--bench-compare needs BASELINE and CURRENT (each a "
                  "BENCH_*.json file or a directory of them)\n",
                  kUsage);
        return benchCompare(baseline, args.positional().front(),
                            args.getDouble("bench-threshold", 0.10),
                            args.get("bench-csv"));
    }
    if (const std::string registry_dir = args.get("registry");
        !registry_dir.empty())
        return campaignReport(registry_dir, top_n);

    const std::string manifest_path = args.get("manifest");
    const std::string events_path = args.get("events");
    const std::string out_dir = args.get("out-dir");
    if (manifest_path.empty() || events_path.empty() || out_dir.empty())
        fatal("need --manifest, --events and --out-dir "
              "(or --registry DIR)\n",
              kUsage);

    std::string err;
    const std::optional<JsonValue> manifest =
        parseJson(readFile(manifest_path), &err);
    if (!manifest)
        fatal(manifest_path, ": ", err);
    if (const JsonValue *schema = manifest->find("schema");
        schema == nullptr || schema->asString() != "cachelab.run_manifest")
        fatal(manifest_path, ": not a cachelab run manifest");
    // Both manifest generations are readable: v1 (flat describe()
    // string only) and v2 (structured policy + optional timing).
    if (const JsonValue *version = manifest->find("schema_version");
        version != nullptr && version->isUint() && version->asUint() > 2)
        fatal(manifest_path, ": manifest schema_version ",
              version->asUint(), " is newer than this tool (knows 1-2)");

    const EventLog log = loadEvents(events_path);

    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    if (ec)
        fatal("cannot create '", out_dir, "': ", ec.message());

    writeIntervalsCsv(out_dir + "/intervals.csv", log);
    writeBreakdownCsv(out_dir + "/breakdown_3c.csv",
                      log.haveTotals ? log.totals : Interval{});
    writeReportMd(out_dir + "/report.md", *manifest, log, top_n);

    inform("wrote intervals.csv (", log.intervals.size(),
           " intervals), breakdown_3c.csv and report.md to ", out_dir);
    return 0;
}
