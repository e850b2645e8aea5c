/**
 * @file
 * Ablation: replacement policy.  Table 1 fixes LRU; this bench
 * quantifies the choice by comparing the policy zoo (LRU, FIFO,
 * random, SLRU, LFUDA, 2Q, ARC) against Belady's offline optimum
 * (OPT) — the floor no demand-fetch policy can beat — across cache
 * sizes, and demonstrates the one-pass Mattson stack analysis
 * against direct simulation.
 */

#include "bench_util.hh"

#include <string_view>

#include "cache/belady.hh"
#include "cache/cache.hh"
#include "sim/run.hh"
#include "sim/sweep.hh"

using namespace cachelab;
using namespace cachelab::bench;

int
main()
{
    banner("Ablation — replacement policy (with OPT bound)",
           "fully associative, copy-back, demand fetch, 16-byte lines, "
           "no purges; line fetches per 1000 refs");

    TraceCorpus corpus;
    const std::vector<const TraceProfile *> sample = {
        findTraceProfile("MVS1"), findTraceProfile("FGO1"),
        findTraceProfile("VCCOM"), findTraceProfile("LISP1"),
        findTraceProfile("TWOD1"), findTraceProfile("ZVI")};

    for (std::uint64_t size : {1024u, 4096u, 16384u}) {
        TextTable table("Cache " + formatSize(size) +
                        ": line fetches per 1000 refs by policy");
        table.setHeader({"trace", "OPT", "LRU", "FIFO", "random", "SLRU",
                         "LFUDA", "2Q", "ARC", "LRU/OPT"});
        std::vector<TextTable::Align> align(10, TextTable::Align::Right);
        align.front() = TextTable::Align::Left;
        table.setAlignment(align);
        Summary lru_over_opt;
        for (const TraceProfile *p : sample) {
            const Trace &t = corpus.get(*p);
            const double per_ref =
                1000.0 / static_cast<double>(t.size());
            const CacheStats opt = simulateOptimal(t, size, 16);
            std::vector<std::string> row = {
                p->name,
                formatFixed(static_cast<double>(opt.demandFetches) *
                                per_ref,
                            1)};
            double lru_fetches = 0;
            for (const char *policy :
                 {"lru", "fifo", "random", "slru", "lfuda", "2q",
                  "arc"}) {
                CacheConfig cfg = table1Config(size);
                cfg.replacement = policySpec(policy);
                Cache cache(cfg);
                const CacheStats s = runTrace(t, cache);
                row.push_back(formatFixed(
                    static_cast<double>(s.demandFetches) * per_ref, 1));
                if (std::string_view(policy) == "lru")
                    lru_fetches = static_cast<double>(s.demandFetches);
            }
            const double ratio = opt.demandFetches
                ? lru_fetches / static_cast<double>(opt.demandFetches)
                : 1.0;
            lru_over_opt.add(ratio);
            row.push_back(formatFixed(ratio, 2));
            table.addRow(row);
        }
        std::cout << table;
        std::cout << "mean LRU/OPT fetch ratio: "
                  << formatFixed(lru_over_opt.mean(), 2) << "\n\n";
    }

    // One-pass stack analysis demo: Table 1's whole size axis from a
    // single pass, checked against direct simulation at three sizes.
    const Trace &t = corpus.get(*findTraceProfile("VSPICE"));
    const auto &sizes = paperCacheSizes();
    const std::vector<SweepPoint> curve = sweepUnified(
        t, sizes, table1Config(32), {}, SweepEngine::SinglePass);
    TextTable mattson("Mattson one-pass LRU curve (VSPICE) vs direct "
                      "simulation");
    mattson.setHeader({"size", "one-pass", "direct"});
    mattson.setAlignment({TextTable::Align::Right, TextTable::Align::Right,
                          TextTable::Align::Right});
    for (std::size_t i = 0; i < sizes.size(); ++i) {
        std::string direct = "-";
        if (sizes[i] == 256 || sizes[i] == 4096 || sizes[i] == 65536) {
            Cache cache(table1Config(sizes[i]));
            direct = pct(runTrace(t, cache).missRatio());
        }
        mattson.addRow({formatSize(sizes[i]),
                        pct(curve[i].stats.missRatio()), direct});
    }
    std::cout << mattson << "\n";
    return 0;
}
