/**
 * @file
 * Thread-safe metrics registry: counters, gauges, and labeled
 * histograms with a consistent snapshot API.
 *
 * Design goals, in order:
 *
 *  1. **Cheap hot path.** Counter::add() is a single relaxed-atomic
 *     fetch_add; Gauge::set() a relaxed store.  Callers look a metric
 *     up once (registration takes the registry mutex) and keep the
 *     reference — the objects are never moved or destroyed while the
 *     registry lives.
 *  2. **Consistent snapshots.** snapshot() returns every registered
 *     metric's value at one call, sorted by name, ready for the run
 *     manifest (obs/manifest) or a JsonWriter.  Values read while
 *     other threads increment are each atomically read; a counter can
 *     only ever appear to lag, never to tear.
 *  3. **Zero cost when unused.** Nothing registers itself; a binary
 *     that never touches the registry pays nothing.
 *
 * Histograms keep stats/histogram's Log2Histogram buckets as relaxed
 * atomics, so the campaign server can stamp every request without a
 * shared lock on the reply path; see Histogram.
 *
 * Labels: histogram("task_ns", {{"engine", "per_size"}}) registers a
 * distinct time series per label set.  Labels are folded into the
 * metric's registry key in canonical (sorted-by-label-name) order, so
 * the same labels in any argument order name the same series.
 */

#ifndef CACHELAB_OBS_METRICS_HH
#define CACHELAB_OBS_METRICS_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "stats/histogram.hh"

namespace cachelab
{

class JsonWriter;
class ThreadPool;

namespace obs
{

/** Monotonically increasing event count. */
class Counter
{
  public:
    void add(std::uint64_t delta = 1)
    {
        value_.fetch_add(delta, std::memory_order_relaxed);
    }

    std::uint64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    /** Zero the count (per-run scoping; see Registry::resetForTesting). */
    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/** Last-write-wins instantaneous value. */
class Gauge
{
  public:
    void set(double v) { value_.store(v, std::memory_order_relaxed); }

    double value() const { return value_.load(std::memory_order_relaxed); }

  private:
    std::atomic<double> value_{0.0};
};

/**
 * Log2-bucketed distribution of uint64 samples (durations, sizes):
 * the registry cell behind every histogram series.  Buckets follow
 * Log2Histogram::bucketOf.
 *
 * record() is wait-free — one relaxed fetch_add into the sample's
 * bucket plus count/sum/max upkeep.  snapshot() reads every cell
 * atomically; concurrent record()s or merge()s can make a snapshot
 * lag, never tear a cell.
 */
class Histogram
{
  public:
    /** Record one sample (wait-free, relaxed atomics). */
    void record(std::uint64_t sample);

    /** Fold a locally accumulated histogram in (bulk publication). */
    void merge(const Log2Histogram &other);

    /** @return a copy of every cell. */
    Log2Histogram snapshot() const;

    /** Zero every cell (per-run scoping; concurrent-use caveat as
     *  Registry::resetForTesting). */
    void reset();

  private:
    void raiseMax(std::uint64_t value);

    std::array<std::atomic<std::uint64_t>, Log2Histogram::kBuckets>
        buckets_{};
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> sum_{0};
    std::atomic<std::uint64_t> max_{0};
};

/** One label: name -> value, e.g. {"engine", "single_pass"}. */
using Label = std::pair<std::string, std::string>;

/** Every registered metric's value at one snapshot() call. */
struct MetricsSnapshot
{
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    /** Keyed by the full name incl. canonical labels. */
    std::vector<std::pair<std::string, Log2Histogram>> histograms;

    /** @return the named counter's value, or 0 when absent. */
    std::uint64_t counterValue(std::string_view name) const;

    /** @return the named histogram, or nullptr when absent. */
    const Log2Histogram *histogramFor(std::string_view name) const;

    /**
     * Emit as a JSON object: {"counters": {...}, "gauges": {...},
     * "histograms": {...}} with keys in sorted order.  Each histogram
     * series is {count, mean, max, p50, p90, p99, log2_buckets}, its
     * buckets trimmed after the last non-empty one.
     */
    void writeJson(JsonWriter &w) const;
};

/**
 * Named metric store.  get-or-create lookups are mutex-guarded; the
 * returned references stay valid for the registry's lifetime.
 */
class Registry
{
  public:
    /** Process-wide registry used by the sim/sample/tool layers. */
    static Registry &global();

    Counter &counter(std::string_view name);
    Gauge &gauge(std::string_view name);
    Histogram &histogram(std::string_view name,
                         const std::vector<Label> &labels = {});

    /** @return every metric's value, sorted by name. */
    MetricsSnapshot snapshot() const;

    /** Drop every registered metric (tests; not thread-safe vs users
     * holding references). */
    void clear();

    /**
     * Zero every registered metric **in place**: counters to 0, gauges
     * to 0.0, histograms emptied.  Unlike clear(), references handed
     * out earlier stay valid, so this is the safe way to scope the
     * global registry per run — back-to-back sweeps in one process
     * (library callers, consecutive cachelab_sim invocations in tests)
     * no longer accumulate each other's counts.
     */
    void resetForTesting();

    /**
     * @return @p name with @p labels appended in canonical order,
     * e.g. key("x", {{"b","2"},{"a","1"}}) == "x{a=1,b=2}".
     */
    static std::string key(std::string_view name,
                           const std::vector<Label> &labels);

  private:
    mutable std::mutex mutex_;
    // std::map: stable addresses via unique_ptr AND sorted iteration
    // for free at snapshot time.
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/**
 * Mirror @p pool's utilization counters into @p registry as gauges
 * ("pool.jobs", "pool.batches", "pool.queue_high_water",
 * "pool.tasks{slot=k}", "pool.busy_ns{slot=k}").  Gauges, not
 * counters, because this publishes a snapshot of externally owned
 * totals — calling it again overwrites rather than double-counts.
 */
void publishThreadPool(Registry &registry, const ThreadPool &pool);

} // namespace obs
} // namespace cachelab

#endif // CACHELAB_OBS_METRICS_HH
