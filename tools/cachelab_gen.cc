/**
 * @file
 * cachelab-gen: workload generation and characterization CLI.
 *
 * Generates traces from the calibrated corpus or from explicit
 * workload parameters, writes them in din or binary format, and
 * characterizes existing traces (Table 2 columns).
 *
 * Examples:
 *   cachelab_gen --list
 *   cachelab_gen --profile MVS1 --out mvs1.din
 *   cachelab_gen --machine vax --refs 100000 --code 8192 --data 16384 \
 *                --seed 7 --out custom.trace
 *   cachelab_gen --analyze mvs1.din
 */

#include <iostream>

#include "arch/profile.hh"
#include "stats/table.hh"
#include "trace/analyzer.hh"
#include "trace/io.hh"
#include "util/format.hh"
#include "workload/profiles.hh"

#include "args.hh"
#include "version.hh"

using namespace cachelab;
using namespace cachelab::tools;

namespace
{

constexpr const char *kUsage = R"(usage: cachelab_gen [options]

modes (one required):
  --list                list the 57-profile corpus
  --profile NAME        generate a corpus workload
  --machine M           generate a custom workload
                        (370|360|vax|z8000|cdc|m68000|z80000)
  --analyze FILE        characterize an existing trace (Table 2 columns)

generation options:
  --out FILE            output path; .din = text, else binary (required
                        with --profile / --machine)
  --refs N              trace length; a profile runs on past its own
                        length (default: the profile's length, or
                        250000 with --machine)
  --seed S              PRNG seed for --machine (default 1)
  --code BYTES          code region size (default 16384)
  --data BYTES          data region size (default 24576)
  --ifetch F            target instruction-fetch fraction (default:
                        machine profile)
  --branch F            target taken-branch fraction (default: machine
                        profile)
)";

Machine
machineFromName(const std::string &name)
{
    if (name == "370")
        return Machine::IBM370;
    if (name == "360")
        return Machine::IBM360_91;
    if (name == "vax")
        return Machine::VAX;
    if (name == "z8000")
        return Machine::Z8000;
    if (name == "cdc")
        return Machine::CDC6400;
    if (name == "m68000")
        return Machine::M68000;
    if (name == "z80000")
        return Machine::Z80000;
    fatal("unknown machine '", name, "'");
}

int
cmdList()
{
    TextTable table("The trace corpus (57 profiles, 49 distinct traces)");
    table.setHeader({"name", "group", "lang", "refs", "code", "data",
                     "description"});
    table.setAlignment({TextTable::Align::Left, TextTable::Align::Left,
                        TextTable::Align::Left, TextTable::Align::Right,
                        TextTable::Align::Right, TextTable::Align::Right,
                        TextTable::Align::Left});
    TraceGroup last = allTraceProfiles().front().group;
    for (const TraceProfile &p : allTraceProfiles()) {
        if (p.group != last) {
            table.addRule();
            last = p.group;
        }
        table.addRow({p.name, std::string(toString(p.group)), p.language,
                      formatCount(p.params.refCount),
                      formatSize(p.params.codeBytes),
                      formatSize(p.params.dataBytes), p.description});
    }
    std::cout << table;
    return 0;
}

int
cmdAnalyze(const std::string &path)
{
    const Trace t = openTraceSource(path)->materialize();
    const TraceCharacteristics c = analyzeTrace(t);
    TextTable table("Characteristics of " + t.name());
    table.setHeader({"metric", "value"});
    table.setAlignment({TextTable::Align::Left, TextTable::Align::Right});
    table.addRow({"references", formatCount(c.refCount)});
    table.addRow({"%ifetch", formatPercent(c.ifetchFraction)});
    table.addRow({"%read", formatPercent(c.readFraction)});
    table.addRow({"%write", formatPercent(c.writeFraction)});
    table.addRow({"%branch (of ifetches)", formatPercent(c.branchFraction)});
    table.addRow({"#Ilines (16B)", std::to_string(c.ilines)});
    table.addRow({"#Dlines (16B)", std::to_string(c.dlines)});
    table.addRow({"A-space (bytes)", formatCount(c.aspaceBytes)});
    table.addRow({"mean sequential run (bytes)",
                  formatFixed(c.meanSequentialRunBytes, 1)});
    std::cout << table;
    return 0;
}

} // namespace

/** The flags kUsage documents; Args refuses any other. */
constexpr std::string_view kFlags[] = {
    "analyze", "branch", "code", "data", "help", "ifetch", "list",
    "machine", "out", "profile", "refs", "seed"};

int
main(int argc, char **argv)
{
    handleVersionFlag(argc, argv, "cachelab_gen");
    const Args args(argc, argv, kFlags);
    if (args.has("help") || argc == 1) {
        std::cout << kUsage;
        return args.has("help") ? 0 : 2;
    }
    if (args.has("list"))
        return cmdList();
    if (args.has("analyze"))
        return cmdAnalyze(args.get("analyze"));

    if (!args.has("out"))
        fatal("generation needs --out FILE\n", kUsage);

    Trace trace;
    if (args.has("profile")) {
        const TraceProfile *p = findTraceProfile(args.get("profile"));
        if (p == nullptr)
            fatal("unknown profile '", args.get("profile"), "'");
        trace = args.has("refs")
            ? generateTraceExactly(*p, args.getUint("refs", 0))
            : generateTrace(*p);
    } else if (args.has("machine")) {
        WorkloadParams params;
        params.machine = machineFromName(args.get("machine"));
        params.refCount = args.getUint("refs", 250000);
        params.seed = args.getUint("seed", 1);
        params.codeBytes = args.getUint("code", params.codeBytes);
        params.dataBytes = args.getUint("data", params.dataBytes);
        if (args.has("ifetch"))
            params.ifetchFraction = args.getDouble("ifetch", -1.0);
        if (args.has("branch"))
            params.branchFraction = args.getDouble("branch", -1.0);
        trace = generateWorkload(params, "custom");
    } else {
        fatal("need --list, --analyze, --profile or --machine\n", kUsage);
    }

    saveTrace(trace, args.get("out"),
              formatForPath(args.get("out")));
    std::cout << "wrote " << formatCount(trace.size()) << " references to "
              << args.get("out") << "\n";
    return 0;
}
