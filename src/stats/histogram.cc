/**
 * @file
 * Implementation of histogram types.
 */

#include "stats/histogram.hh"

#include "util/bits.hh"

namespace cachelab
{

void
Log2Histogram::add(std::uint64_t value)
{
    const std::size_t k = value == 0 ? 0 : floorLog2(value) + 1;
    if (k >= buckets_.size())
        buckets_.resize(k + 1, 0);
    ++buckets_[k];
    ++total_;
    sum_ += static_cast<double>(value);
}

void
Log2Histogram::merge(const Log2Histogram &other)
{
    if (other.buckets_.size() > buckets_.size())
        buckets_.resize(other.buckets_.size(), 0);
    for (std::size_t k = 0; k < other.buckets_.size(); ++k)
        buckets_[k] += other.buckets_[k];
    total_ += other.total_;
    sum_ += other.sum_;
}

std::uint64_t
Log2Histogram::bucket(std::size_t k) const
{
    return k < buckets_.size() ? buckets_[k] : 0;
}

double
Log2Histogram::mean() const
{
    return total_ ? sum_ / static_cast<double>(total_) : 0.0;
}

} // namespace cachelab
