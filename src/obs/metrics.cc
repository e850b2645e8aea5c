/**
 * @file
 * Implementation of the metrics registry.
 */

#include "obs/metrics.hh"

#include <algorithm>

#include "util/json_writer.hh"
#include "util/thread_pool.hh"

namespace cachelab::obs
{

void
Histogram::raiseMax(std::uint64_t value)
{
    std::uint64_t seen = max_.load(std::memory_order_relaxed);
    while (value > seen &&
           !max_.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
}

void
Histogram::record(std::uint64_t sample)
{
    buckets_[Log2Histogram::bucketOf(sample)].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(sample, std::memory_order_relaxed);
    raiseMax(sample);
}

void
Histogram::merge(const Log2Histogram &other)
{
    for (std::size_t k = 0; k < Log2Histogram::kBuckets; ++k)
        buckets_[k].fetch_add(other.buckets[k], std::memory_order_relaxed);
    count_.fetch_add(other.count, std::memory_order_relaxed);
    sum_.fetch_add(other.sum, std::memory_order_relaxed);
    raiseMax(other.max);
}

Log2Histogram
Histogram::snapshot() const
{
    Log2Histogram snap;
    for (std::size_t k = 0; k < Log2Histogram::kBuckets; ++k)
        snap.buckets[k] = buckets_[k].load(std::memory_order_relaxed);
    snap.count = count_.load(std::memory_order_relaxed);
    snap.sum = sum_.load(std::memory_order_relaxed);
    snap.max = max_.load(std::memory_order_relaxed);
    return snap;
}

void
Histogram::reset()
{
    for (auto &bucket : buckets_)
        bucket.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
}

std::uint64_t
MetricsSnapshot::counterValue(std::string_view name) const
{
    for (const auto &[key, value] : counters)
        if (key == name)
            return value;
    return 0;
}

const Log2Histogram *
MetricsSnapshot::histogramFor(std::string_view name) const
{
    for (const auto &[key, histogram] : histograms)
        if (key == name)
            return &histogram;
    return nullptr;
}

void
MetricsSnapshot::writeJson(JsonWriter &w) const
{
    w.beginObject();
    w.key("counters").beginObject();
    for (const auto &[name, value] : counters)
        w.member(name, value);
    w.endObject();
    w.key("gauges").beginObject();
    for (const auto &[name, value] : gauges)
        w.member(name, value);
    w.endObject();
    w.key("histograms").beginObject();
    for (const auto &[name, h] : histograms) {
        w.key(name).beginObject();
        w.member("count", h.count);
        w.member("mean", h.mean());
        w.member("max", h.max);
        w.member("p50", h.quantile(0.50));
        w.member("p90", h.quantile(0.90));
        w.member("p99", h.quantile(0.99));
        w.key("log2_buckets").beginArray();
        for (std::size_t k = 0; k < h.usedBuckets(); ++k)
            w.value(h.buckets[k]);
        w.endArray();
        w.endObject();
    }
    w.endObject();
    w.endObject();
}

Registry &
Registry::global()
{
    static Registry registry;
    return registry;
}

std::string
Registry::key(std::string_view name, const std::vector<Label> &labels)
{
    std::string out(name);
    if (labels.empty())
        return out;
    std::vector<Label> sorted = labels;
    std::sort(sorted.begin(), sorted.end());
    out += '{';
    for (std::size_t i = 0; i < sorted.size(); ++i) {
        if (i)
            out += ',';
        out += sorted[i].first;
        out += '=';
        out += sorted[i].second;
    }
    out += '}';
    return out;
}

Counter &
Registry::counter(std::string_view name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = counters_[std::string(name)];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
Registry::gauge(std::string_view name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = gauges_[std::string(name)];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

Histogram &
Registry::histogram(std::string_view name, const std::vector<Label> &labels)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = histograms_[key(name, labels)];
    if (!slot)
        slot = std::make_unique<Histogram>();
    return *slot;
}

MetricsSnapshot
Registry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    MetricsSnapshot snap;
    snap.counters.reserve(counters_.size());
    for (const auto &[name, counter] : counters_)
        snap.counters.emplace_back(name, counter->value());
    snap.gauges.reserve(gauges_.size());
    for (const auto &[name, gauge] : gauges_)
        snap.gauges.emplace_back(name, gauge->value());
    snap.histograms.reserve(histograms_.size());
    for (const auto &[name, histogram] : histograms_)
        snap.histograms.emplace_back(name, histogram->snapshot());
    return snap;
}

void
publishThreadPool(Registry &registry, const ThreadPool &pool)
{
    const ThreadPool::Utilization u = pool.utilization();
    registry.gauge("pool.jobs").set(pool.jobCount());
    registry.gauge("pool.batches").set(static_cast<double>(u.batches));
    registry.gauge("pool.queue_high_water")
        .set(static_cast<double>(u.queueHighWater));
    registry.gauge("pool.tasks_total")
        .set(static_cast<double>(u.totalTasks()));
    registry.gauge("pool.busy_ns_total")
        .set(static_cast<double>(u.totalBusyNs()));
    for (std::size_t i = 0; i < u.slots.size(); ++i) {
        const std::vector<Label> labels{{"slot", std::to_string(i)}};
        registry.gauge(Registry::key("pool.tasks", labels))
            .set(static_cast<double>(u.slots[i].tasks));
        registry.gauge(Registry::key("pool.busy_ns", labels))
            .set(static_cast<double>(u.slots[i].busyNs));
    }
}

void
Registry::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    counters_.clear();
    gauges_.clear();
    histograms_.clear();
}

void
Registry::resetForTesting()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &[name, counter] : counters_)
        counter->reset();
    for (const auto &[name, gauge] : gauges_)
        gauge->set(0.0);
    for (const auto &[name, histogram] : histograms_)
        histogram->reset();
}

} // namespace cachelab::obs
