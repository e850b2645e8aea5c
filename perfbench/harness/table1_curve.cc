/**
 * @file
 * table1_curve: the paper's central experiment as a closed loop with
 * one caller.  Set-up writes the whole corpus as compressed trace
 * files; one operation is the full Table 1 curve (32 B to 64 KiB) of
 * one file through sweepUnified().  This is the only workload where
 * trace decode and the Mattson stack core do the work.
 */

#include <algorithm>
#include <filesystem>
#include <thread>

#include "bench.hh"

#include "cache/cache.hh"
#include "cache/stack_analysis.hh"
#include "sim/run.hh"
#include "sim/sweep.hh"
#include "trace/io.hh"
#include "util/thread_pool.hh"

namespace perfbench
{
namespace
{

using namespace cachelab;

/** Per-profile length of a --tiny run. */
constexpr std::uint64_t kTinyRefs = 5000;

class Table1Curve : public Workload
{
  public:
    explicit Table1Curve(const Options &opt)
        : opt_(opt), corpus_(seededProfiles(allTraceProfiles(), opt.seed)),
          sizes_(paperCacheSizes())
    {
        const std::string dir = opt.workDir + "/corpus";
        std::filesystem::create_directories(dir);
        for (const TraceProfile &profile : corpus_)
            paths_.push_back(dir + "/" + profile.name + ".ctr");
    }

    int setupRepetitions() const override { return 5; }

    void setup() override
    {
        for (std::size_t f = 0; f < corpus_.size(); ++f)
            saveTrace(*stream(f), paths_[f], TraceFormat::Compressed);
    }

    void prepareReference(bool corrupt) override
    {
        const std::size_t n = corpus_.size();
        reference_.assign(n, std::vector<CacheStats>(sizes_.size()));
        lines_.assign(n, 0);
        refs_.assign(n, 0);
        // One trace resident at a time, its sizes in parallel: the
        // peak memory then does not depend on thread timing.
        ThreadPool pool(std::clamp(std::thread::hardware_concurrency(), 1u,
                                   4u));
        for (std::size_t f = 0; f < n; ++f) {
            const Trace trace = stream(f)->materialize();
            refs_[f] = trace.size();
            pool.parallelFor(sizes_.size(), [&](std::size_t k) {
                CacheConfig config;
                config.sizeBytes = sizes_[k];
                config.validate();
                Cache cache(config);
                reference_[f][k] = runTrace(trace, cache);
            });
            StackAnalyzer analyzer(CacheConfig{}.lineBytes);
            analyzer.accessAll(trace);
            lines_[f] = analyzer.distinctLineCount();
        }
        fileBytes_ = 0;
        for (const std::string &path : paths_)
            fileBytes_ += std::filesystem::file_size(path);
        if (corrupt)
            reference_[0][0].demandFetches += 1;
    }

    LoopResult run(double seconds, std::size_t min_ops,
                   SpanLog *spans) override
    {
        return runSingleCaller(seconds, min_ops, corpus_.size(),
                               [&](std::size_t i) {
                                   return spans ? tracedOp(i, *spans) : op(i);
                               });
    }

    LayerReport layers(SpanLog &spans, const LoopResult &traced) override
    {
        // The generator is what set-up pays per reference.
        std::uint64_t generated = 0;
        for (std::size_t f = 0; f < corpus_.size(); ++f) {
            ScopedSpan span(&spans, "workload.program", 0, 0);
            generated += stream(f)->forEachBatch(
                [](std::span<const MemoryRef>) {});
        }

        // Self time by span name; a name never recorded reads 0.
        auto self = spans.selfNsByName();
        const double refs = static_cast<double>(traced.refs());
        const double ops = static_cast<double>(traced.ops.size());
        std::uint64_t footprint = 0;
        for (const std::uint64_t lines : lines_)
            footprint += lines;

        LayerReport report;
        report.metrics = {
            {"trace.decode_ns_per_ref", self["trace.decode"] / refs, "ns"},
            {"cache.stack_ns_per_ref", self["cache.stack"] / refs, "ns"},
            {"cache.stack_query_us", self["cache.stack_query"] / ops / 1e3,
             "us"},
            {"cache.footprint_lines", static_cast<double>(footprint),
             "count"},
            {"workload.program_ns_per_ref",
             self["workload.program"] / static_cast<double>(generated), "ns"},
        };
        report.explainedNsPerRef = (self["trace.decode"] + self["cache.stack"] +
                                    self["cache.stack_query"]) /
                                   refs;
        return report;
    }

    std::vector<std::pair<std::string, std::uint64_t>>
    counters() const override
    {
        std::uint64_t refs = 0, lines = 0, misses = 0;
        for (std::size_t f = 0; f < corpus_.size(); ++f) {
            refs += refs_[f];
            lines += lines_[f];
            for (const CacheStats &stats : reference_[f])
                misses += stats.totalMisses();
        }
        return {{"corpus_files", corpus_.size()},
                {"input_refs_per_cycle", refs},
                {"points_per_op", sizes_.size()},
                {"distinct_lines_per_cycle", lines},
                {"compressed_bytes", fileBytes_},
                {"reference_misses", misses}};
    }

    std::uint64_t digest() const override
    {
        std::uint64_t hash = kFnvBasis;
        for (const auto &curve : reference_)
            for (const CacheStats &stats : curve)
                hash = hashStats(hash, stats);
        return hash;
    }

  private:
    /**
     * The generator as a stream: set-up never holds a whole trace, and
     * the peak memory does not depend on where a profile's last
     * generator step ends.
     */
    std::unique_ptr<TraceSource> stream(std::size_t f) const
    {
        return opt_.tiny ? streamTrace(corpus_[f], kTinyRefs)
                         : streamTrace(corpus_[f]);
    }

    bool matches(std::size_t f, const std::vector<CacheStats> &curve) const
    {
        if (curve.size() != reference_[f].size())
            return false;
        for (std::size_t k = 0; k < curve.size(); ++k) {
            if (!sameStats(curve[k], reference_[f][k]))
                return false;
        }
        return true;
    }

    OpSample op(std::size_t i)
    {
        const std::size_t f = i % corpus_.size();
        RunConfig run;
        run.jobs = 1;
        const auto start = Clock::now();
        std::unique_ptr<TraceSource> source = openTraceSource(paths_[f]);
        const std::vector<SweepPoint> points =
            sweepUnified(*source, sizes_, CacheConfig{}, run);
        OpSample sample;
        sample.seconds = secondsBetween(start, Clock::now());

        std::vector<CacheStats> curve;
        for (const SweepPoint &point : points)
            curve.push_back(point.stats);
        sample.refs = curve.empty() ? 0 : curve.front().totalAccesses();
        sample.ok = matches(f, curve);
        return sample;
    }

    /** The same operation, replayed as decode, stack pass, queries. */
    OpSample tracedOp(std::size_t i, SpanLog &spans)
    {
        const std::size_t f = i % corpus_.size();
        std::vector<CacheStats> curve(sizes_.size());
        OpSample sample;
        const auto start = Clock::now();
        {
            ScopedSpan op(&spans, "table1.op", 0, i);
            std::unique_ptr<TraceSource> source;
            {
                ScopedSpan span(&spans, "trace.decode", op.id(), i);
                source = openTraceSource(paths_[f]);
            }
            StackAnalyzer analyzer(CacheConfig{}.lineBytes);
            std::vector<MemoryRef> buffer(TraceSource::kDefaultBatchRefs);
            while (true) {
                std::size_t got = 0;
                {
                    ScopedSpan span(&spans, "trace.decode", op.id(), i);
                    got = source->nextBatch(buffer);
                }
                if (got == 0)
                    break;
                ScopedSpan span(&spans, "cache.stack", op.id(), i);
                analyzer.accessAll(
                    std::span<const MemoryRef>(buffer.data(), got));
            }
            ScopedSpan span(&spans, "cache.stack_query", op.id(), i);
            for (std::size_t k = 0; k < sizes_.size(); ++k)
                curve[k] = analyzer.table1StatsFor(sizes_[k]);
            sample.refs = analyzer.refCount();
        }
        sample.seconds = secondsBetween(start, Clock::now());
        sample.ok = matches(f, curve);
        return sample;
    }

    Options opt_;
    std::vector<TraceProfile> corpus_;
    std::vector<std::uint64_t> sizes_;
    std::vector<std::string> paths_;
    std::vector<std::vector<CacheStats>> reference_; ///< [file][size]
    std::vector<std::uint64_t> refs_;
    std::vector<std::uint64_t> lines_;
    std::uint64_t fileBytes_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeTable1Curve(const Options &options)
{
    return std::make_unique<Table1Curve>(options);
}

} // namespace perfbench
