/**
 * @file
 * Implementation of the 3C miss classifier.
 */

#include "obs/classify.hh"

#include "cache/config.hh"
#include "util/logging.hh"

namespace cachelab
{

MissClassifier::MissClassifier(std::uint64_t capacity_lines,
                               std::uint64_t interval_refs)
    : intervalRefs_(interval_refs), shadow_(1, capacity_lines)
{
    CACHELAB_ASSERT(capacity_lines > 0, "shadow capacity must be positive");
}

MissClassifier::MissClassifier(const CacheConfig &config,
                               std::uint64_t interval_refs)
    : MissClassifier(config.lineCount(), interval_refs)
{
}

ClassifiedInterval &
MissClassifier::intervalFor(std::uint64_t ref_index)
{
    // ref_index is 1-based; interval k covers refs
    // [k*intervalRefs_, (k+1)*intervalRefs_) 0-based.
    const std::uint64_t idx = (ref_index - 1) / intervalRefs_;
    while (intervals_.size() <= idx) {
        ClassifiedInterval interval;
        interval.startRef = intervals_.size() * intervalRefs_;
        interval.refs = intervalRefs_;
        intervals_.push_back(interval);
    }
    return intervals_[idx];
}

void
MissClassifier::classifyMiss(const CacheEvent &event)
{
    if (event.refIndex == lastMissRef_)
        return; // this reference's miss is already classified
    lastMissRef_ = event.refIndex;

    enum class Class { Compulsory, Capacity, Conflict } cls;
    if (!seen_.contains(event.lineAddr))
        cls = Class::Compulsory;
    else if (shadow_.contains(0, event.lineAddr))
        cls = Class::Conflict;
    else
        cls = Class::Capacity;

    ++totals_.misses;
    switch (cls) {
      case Class::Compulsory:
        ++totals_.compulsory;
        break;
      case Class::Capacity:
        ++totals_.capacity;
        break;
      case Class::Conflict:
        ++totals_.conflict;
        break;
    }

    if (intervalRefs_ != 0) {
        ClassifiedInterval &interval = intervalFor(event.refIndex);
        ++interval.misses;
        switch (cls) {
          case Class::Compulsory:
            ++interval.compulsory;
            break;
          case Class::Capacity:
            ++interval.capacity;
            break;
          case Class::Conflict:
            ++interval.conflict;
            break;
        }
    }
}

void
MissClassifier::onEvent(const CacheEvent &event)
{
    if (event.refIndex > maxRef_)
        maxRef_ = event.refIndex;

    switch (event.type) {
      case CacheEventType::Hit:
        shadow_.touch(0, event.lineAddr, false);
        break;
      case CacheEventType::Miss:
        classifyMiss(event);
        break;
      case CacheEventType::Fill:
      case CacheEventType::Prefetch:
        seen_.insert(event.lineAddr);
        shadow_.touch(0, event.lineAddr, false);
        break;
      case CacheEventType::Purge:
        shadow_.clear();
        break;
      case CacheEventType::Evict:
      case CacheEventType::Writeback:
        break; // the shadow evicts by its own LRU order
    }
}

void
MissClassifier::finalize(std::uint64_t total_refs)
{
    if (finalized_)
        return;
    finalized_ = true;
    if (total_refs > maxRef_)
        maxRef_ = total_refs;
    if (intervalRefs_ == 0)
        return;
    if (maxRef_ == 0) {
        intervals_.clear();
        return;
    }
    // Materialize trailing miss-free intervals, then trim the last
    // interval to the run's actual end.
    intervalFor(maxRef_);
    ClassifiedInterval &last = intervals_.back();
    last.refs = maxRef_ - last.startRef;
}

void
MissClassifier::publish(obs::Registry &registry,
                        const std::vector<obs::Label> &labels) const
{
    const auto add = [&](std::string_view name, std::uint64_t v) {
        registry.counter(obs::Registry::key(name, labels)).add(v);
    };
    add("classify.misses", totals_.misses);
    add("classify.compulsory", totals_.compulsory);
    add("classify.capacity", totals_.capacity);
    add("classify.conflict", totals_.conflict);
    add("classify.refs", maxRef_);
}

} // namespace cachelab
