/**
 * @file
 * cpu_ckpt_fanout: the --ckpt-write then --ckpt campaign as a closed
 * loop with one caller.  Set-up generates four CPU profiles to 250k
 * references each and holds them in memory.  One operation
 * writes a live-point store for one trace, loads it, and runs the
 * checkpoint-warmed sampled sweep over a family of 4-way LRU sizes.
 *
 * This is the only workload for the ckpt and sample layers.  It drives
 * the same Cache layer as kv_served in the opposite regime:
 * read-dominated hits on a small footprint under LRU.
 */

#include <bit>
#include <optional>

#include "bench.hh"

#include "cache/cache.hh"
#include "ckpt/live_points.hh"
#include "sim/run.hh"
#include "sim/sampled.hh"
#include "sim/sweep.hh"

namespace perfbench
{
namespace
{

using namespace cachelab;

/** Profiles from four machine groups: compiler, Lisp, OS, Fortran. */
const std::vector<std::string> kProfiles = {"VSPICE", "LISP1", "MVS1",
                                            "TWOD1"};

/**
 * Short enough that a 30 s run makes many passes over the four traces:
 * the live-point writer tracks eight set-count groups for every
 * reference.
 */
constexpr std::uint64_t kTraceRefs = 250000;
constexpr std::uint64_t kTinyRefs = 20000;

bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool
sameInterval(const ConfidenceInterval &a, const ConfidenceInterval &b)
{
    return sameBits(a.mean, b.mean) && sameBits(a.stdError, b.stdError) &&
           sameBits(a.halfWidth, b.halfWidth) && sameBits(a.low, b.low) &&
           sameBits(a.high, b.high) && a.samples == b.samples;
}

/**
 * Bitwise agreement of two sampled results.  processedRefs is left out
 * on purpose: restoring from a checkpoint skips the references that
 * functional warming replays.
 */
bool
sameSampled(const SampledRunResult &a, const SampledRunResult &b)
{
    return a.traceRefs == b.traceRefs && a.measuredRefs == b.measuredRefs &&
           a.intervalsMeasured == b.intervalsMeasured &&
           sameStats(a.measured, b.measured) &&
           sameStats(a.estimated, b.estimated) &&
           sameInterval(a.missRatio, b.missRatio) &&
           sameInterval(a.instructionMissRatio, b.instructionMissRatio) &&
           sameInterval(a.dataMissRatio, b.dataMissRatio) &&
           sameInterval(a.trafficPerRef, b.trafficPerRef);
}

class CpuCkptFanout : public Workload
{
  public:
    explicit CpuCkptFanout(const Options &opt)
        : opt_(opt), sizes_(powersOfTwo(1024, 128 * 1024))
    {
        std::vector<TraceProfile> chosen;
        for (const std::string &name : kProfiles)
            chosen.push_back(*findTraceProfile(name));
        profiles_ = seededProfiles(std::move(chosen), opt.seed);

        base_.associativity = 4;
        base_.validate();
        sample_.unitRefs = opt.tiny ? 1000 : 10000;
        sample_.fraction = 0.1;
        sample_.validate();

        writeSpec_.sample = sample_;
        writeSpec_.base = base_;
        writeSpec_.sizes = sizes_;
        writeSpec_.jobs = 1;
        writeSpec_.createdBy = "cachelab_perfbench";

        for (std::size_t t = 0; t < profiles_.size(); ++t)
            dirs_.push_back(opt.workDir + "/ckpt/" + std::to_string(t));
        summaries_.resize(profiles_.size());
    }

    void setup() override
    {
        traces_.clear();
        for (const TraceProfile &profile : profiles_)
            traces_.push_back(generate(profile));
    }

    void prepareReference(bool corrupt) override
    {
        SampleConfig functional = sample_;
        functional.warming = WarmingPolicy::Functional;
        RunConfig run;
        run.jobs = 1;
        reference_.clear();
        for (const Trace &trace : traces_)
            reference_.push_back(
                sweepUnifiedSampled(trace, sizes_, base_, functional, run));
        if (corrupt)
            reference_[0][0].result.measured.demandFetches += 1;
    }

    LoopResult run(double seconds, std::size_t min_ops,
                   SpanLog *spans) override
    {
        return runSingleCaller(seconds, min_ops, traces_.size(),
                               [&](std::size_t i) { return op(i, spans); });
    }

    LayerReport layers(SpanLog &spans, const LoopResult &traced) override
    {
        std::uint64_t generated = 0;
        for (const TraceProfile &profile : profiles_) {
            ScopedSpan span(&spans, "workload.program", 0, 0);
            generated += generate(profile).size();
        }
        std::uint64_t refs = 0;
        for (const Trace &trace : traces_) {
            refs += trace.size();
            NullSystem null;
            {
                ScopedSpan span(&spans, "sim.drive", 0, 0);
                runTrace(trace, null);
            }
            for (const std::uint64_t size : sizes_) {
                CacheConfig config = base_;
                config.sizeBytes = size;
                Cache cache(config);
                ScopedSpan span(&spans, "cache.access.cpu-lru4", 0, 0);
                runTrace(trace, cache);
            }
        }

        // Self time by span name; a name never recorded reads 0.
        auto self = spans.selfNsByName();
        const double drive = self["sim.drive"] / static_cast<double>(refs);
        const double point_refs =
            static_cast<double>(refs) * static_cast<double>(sizes_.size());
        const double op_refs = static_cast<double>(traced.refs());
        std::uint64_t store_bytes = 0;
        for (const ckpt::LivePointWriteSummary &s : summaries_)
            store_bytes += s.bytesWritten;

        LayerReport report;
        report.metrics = {
            {"ckpt.write_ns_per_ref", self["ckpt.write"] / op_refs, "ns"},
            {"ckpt.load_ms",
             self["ckpt.load"] / static_cast<double>(traced.ops.size()) / 1e6,
             "ms"},
            {"ckpt.store_bytes",
             static_cast<double>(store_bytes) /
                 static_cast<double>(summaries_.size()),
             "bytes"},
            {"sample.sweep_ns_per_ref", self["sample.sweep"] / op_refs, "ns"},
            {"sim.drive_ns_per_ref", drive, "ns"},
            {"cache.access_ns_per_ref.cpu-lru4",
             self["cache.access.cpu-lru4"] / point_refs - drive, "ns"},
            {"workload.program_ns_per_ref",
             self["workload.program"] / static_cast<double>(generated), "ns"},
        };
        report.explainedNsPerRef =
            (self["ckpt.write"] + self["ckpt.load"] + self["sample.sweep"]) /
            op_refs;
        return report;
    }

    std::vector<std::pair<std::string, std::uint64_t>>
    counters() const override
    {
        std::uint64_t refs = 0, intervals = 0, groups = 0, bytes = 0;
        std::uint64_t misses = 0;
        for (std::size_t t = 0; t < traces_.size(); ++t) {
            refs += traces_[t].size();
            intervals += summaries_[t].intervals;
            groups += summaries_[t].groups;
            bytes += summaries_[t].bytesWritten;
            for (const SampledSweepPoint &point : reference_[t])
                misses += point.result.measured.totalMisses();
        }
        return {{"traces", traces_.size()},
                {"input_refs_per_cycle", refs},
                {"points_per_op", sizes_.size()},
                {"livepoint_intervals_per_cycle", intervals},
                {"livepoint_groups_per_cycle", groups},
                {"livepoint_bytes_per_cycle", bytes},
                {"reference_measured_misses", misses}};
    }

    std::uint64_t digest() const override
    {
        std::uint64_t hash = kFnvBasis;
        for (const auto &points : reference_) {
            for (const SampledSweepPoint &point : points) {
                hash = hashStats(hash, point.result.measured);
                hash = hashStats(hash, point.result.estimated);
                hash = fnv(hash, std::bit_cast<std::uint64_t>(
                                     point.result.missRatio.halfWidth));
            }
        }
        return hash;
    }

  private:
    Trace generate(const TraceProfile &profile) const
    {
        return generateTraceExactly(profile,
                                    opt_.tiny ? kTinyRefs : kTraceRefs);
    }

    OpSample op(std::size_t i, SpanLog *spans)
    {
        const std::size_t t = i % traces_.size();
        Trace &trace = traces_[t];
        SampleConfig warmed = sample_;
        warmed.warming = WarmingPolicy::Checkpoint;
        RunConfig run;
        run.jobs = 1;

        std::vector<SampledSweepPoint> points;
        OpSample sample;
        const auto start = Clock::now();
        {
            ScopedSpan op(spans, "ckpt.op", 0, i);
            {
                ScopedSpan span(spans, "ckpt.write", op.id(), i);
                trace.reset();
                summaries_[t] = ckpt::writeLivePoints(trace, dirs_[t],
                                                      writeSpec_);
            }
            std::optional<ckpt::LivePointStore> store;
            {
                ScopedSpan span(spans, "ckpt.load", op.id(), i);
                store.emplace(ckpt::LivePointStore::load(dirs_[t]));
            }
            ScopedSpan span(spans, "sample.sweep", op.id(), i);
            trace.reset();
            points = sweepUnifiedSampled(trace, sizes_, base_, warmed, run,
                                         *store);
        }
        sample.seconds = secondsBetween(start, Clock::now());
        sample.refs = summaries_[t].traceRefs;

        sample.ok = points.size() == reference_[t].size();
        for (std::size_t k = 0; sample.ok && k < points.size(); ++k) {
            sample.ok = points[k].cacheBytes == reference_[t][k].cacheBytes &&
                        sameSampled(points[k].result,
                                    reference_[t][k].result);
        }
        return sample;
    }

    Options opt_;
    std::vector<TraceProfile> profiles_;
    std::vector<std::uint64_t> sizes_;
    CacheConfig base_;
    SampleConfig sample_;
    ckpt::LivePointWriteSpec writeSpec_;
    std::vector<std::string> dirs_;
    std::vector<Trace> traces_;
    std::vector<std::vector<SampledSweepPoint>> reference_;
    std::vector<ckpt::LivePointWriteSummary> summaries_;
};

} // namespace

std::unique_ptr<Workload>
makeCpuCkptFanout(const Options &options)
{
    return std::make_unique<CpuCkptFanout>(options);
}

} // namespace perfbench
