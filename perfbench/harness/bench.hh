/**
 * @file
 * Shared pieces of the cachelab benchmark harness: options, the closed
 * loop's per-operation samples, an in-memory span log for traced runs,
 * and the interface each workload implements.
 *
 * The harness calls only the library's public API.  Spans are recorded
 * here, around those calls, never inside the library.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cache/organization.hh"
#include "cache/stats.hh"
#include "workload/profiles.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

/**
 * An untraced run holds at least this many operations, so that at
 * least ten samples lie beyond the reported p90.
 */
constexpr std::size_t kMinOps = 100;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;             ///< smoke-test input sizes
    bool corruptReference = false; ///< test hook: perturb one reference
    std::string workDir = ".bench_build/work"; ///< scratch files
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** One operation as the closed loop saw it. */
struct OpSample
{
    double seconds = 0.0;    ///< host time of the operation
    std::uint64_t refs = 0;  ///< trace references it consumed
    bool ok = true;          ///< outputs matched the reference
    double endSeconds = 0.0; ///< completion, since the loop started
    std::size_t pass = 0;    ///< which pass over the schedule
    std::size_t slot = 0;    ///< position in the schedule, < cycle
};

/** Everything one closed-loop phase measured. */
struct LoopResult
{
    std::vector<OpSample> ops; ///< in completion order
    double wallSeconds = 0.0;
    /** Operations in one pass over the workload's schedule. */
    std::size_t cycle = 1;

    std::uint64_t failed() const;
    std::uint64_t refs() const;
    double opSeconds() const;
    /** Total operation time divided by the references consumed. */
    double nsPerInputRef() const;
};

/**
 * Closed loop with one caller over a schedule of @p cycle operations:
 * op(i) runs operation i of the schedule (i counts on across cycles).
 * Stops at a cycle boundary once @p seconds and @p min_ops are
 * reached, so every run covers the schedule evenly.
 */
template <typename Op>
LoopResult
runSingleCaller(double seconds, std::size_t min_ops, std::size_t cycle,
                Op &&op)
{
    LoopResult result;
    result.cycle = cycle;
    const auto start = Clock::now();
    for (std::size_t i = 0;; ++i) {
        if (i % cycle == 0 && result.ops.size() >= min_ops &&
            secondsBetween(start, Clock::now()) >= seconds)
            break;
        result.ops.push_back(op(i));
        result.ops.back().endSeconds = secondsBetween(start, Clock::now());
        result.ops.back().pass = i / cycle;
        result.ops.back().slot = i % cycle;
    }
    result.wallSeconds = secondsBetween(start, Clock::now());
    return result;
}

/** FNV-1a step over one 64-bit value. */
std::uint64_t fnv(std::uint64_t hash, std::uint64_t value);

inline constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;

/** Fold every counter of @p stats into @p hash. */
std::uint64_t hashStats(std::uint64_t hash, const cachelab::CacheStats &stats);

/** @return true when every counter of @p a equals @p b's. */
bool sameStats(const cachelab::CacheStats &a, const cachelab::CacheStats &b);

/** Quantile by linear interpolation between order statistics. */
double quantile(std::vector<double> values, double q);

inline double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

/** Peak resident set of this process, in MiB. */
double peakRssMiB();

/**
 * Derive a workload's inputs from its seed: give each profile a
 * generator seed mixed with @p seed, then shuffle the order.
 */
std::vector<cachelab::TraceProfile>
seededProfiles(std::vector<cachelab::TraceProfile> profiles,
               std::uint64_t seed);

/**
 * Spans of a traced run, kept in memory and written out at the end.
 * Thread-safe: client threads of a served workload share one log.
 */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        std::uint64_t id = 0;
        std::uint64_t parent = 0; ///< 0 = root
        std::uint64_t request = 0;
        std::int64_t startNs = 0; ///< since the log was created
        std::int64_t endNs = 0;
    };

    SpanLog();

    /** Open a span; @return its id. */
    std::uint64_t begin(std::string name, std::uint64_t parent,
                        std::uint64_t request);

    /** Close span @p id now. */
    void end(std::uint64_t id);

    /**
     * Record a child whose duration another component measured (the
     * server's per-request timings), placed at its parent's start.
     */
    void addMeasured(std::string name, std::uint64_t parent,
                     std::uint64_t request, std::int64_t duration_ns);

    /** Sum of self times (duration minus child coverage) by name. */
    std::map<std::string, double> selfNsByName() const;

    /** Write one JSON object per span to @p path. */
    void write(const std::string &path) const;

  private:
    Clock::time_point origin_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** RAII span; a null log records nothing. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog *log, std::string name, std::uint64_t parent,
               std::uint64_t request)
        : log_(log),
          id_(log ? log->begin(std::move(name), parent, request) : 0)
    {}
    ~ScopedSpan()
    {
        if (log_)
            log_->end(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::uint64_t id() const { return id_; }

  private:
    SpanLog *log_;
    std::uint64_t id_;
};

/**
 * A cache organization that does nothing: runTrace() into it times the
 * drive loop of sim/drive.hh alone (sim.drive_ns_per_ref).
 */
class NullSystem final : public cachelab::CacheSystem
{
  public:
    bool access(const cachelab::MemoryRef &) override { return false; }
    void purge() override {}
    cachelab::CacheStats combinedStats() const override { return {}; }
    void resetStats() override {}
    std::string describe() const override { return "null"; }
};

/** Per-layer figures of one traced run. */
struct LayerReport
{
    std::vector<Metric> metrics;
    /** Sum of the blocking layers' self times per input reference. */
    double explainedNsPerRef = 0.0;
};

/** One benchmark workload. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Set-up repetitions whose median is reported as setup_s. */
    virtual int setupRepetitions() const { return 15; }

    /**
     * Build what a user needs before the first operation.  Called
     * several times; each call replaces the previous set-up.
     */
    virtual void setup() = 0;

    /**
     * Compute every operation's expected statistics through an engine
     * other than the one the operation uses.  @p corrupt perturbs one
     * expected value, so the check must report a failure.
     */
    virtual void prepareReference(bool corrupt) = 0;

    /**
     * Run the closed loop for at least @p seconds and @p min_ops
     * operations.  With @p spans set, each operation is replayed layer
     * by layer and recorded.
     */
    virtual LoopResult run(double seconds, std::size_t min_ops,
                           SpanLog *spans) = 0;

    /**
     * Run the layer probes (recorded into @p spans) and derive the
     * per-layer metrics of the traced loop.
     */
    virtual LayerReport layers(SpanLog &spans, const LoopResult &traced) = 0;

    /** Deterministic work counters, from public return values. */
    virtual std::vector<std::pair<std::string, std::uint64_t>>
    counters() const = 0;

    /** Digest of every simulated statistic the workload checks. */
    virtual std::uint64_t digest() const = 0;
};

std::unique_ptr<Workload> makeTable1Curve(const Options &options);
std::unique_ptr<Workload> makeKvServed(const Options &options);
std::unique_ptr<Workload> makeCpuCkptFanout(const Options &options);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
