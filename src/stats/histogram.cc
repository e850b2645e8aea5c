/**
 * @file
 * Implementation of histogram types.
 */

#include "stats/histogram.hh"

#include <sstream>

#include "util/bits.hh"
#include "util/format.hh"

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

std::string
Log2Histogram::render() const
{
    std::ostringstream os;
    for (std::size_t k = 0; k < buckets_.size(); ++k) {
        if (!buckets_[k])
            continue;
        const std::uint64_t lo = k == 0 ? 0 : (1ULL << (k - 1));
        const std::uint64_t hi = k == 0 ? 0 : (1ULL << k) - 1;
        const double frac =
            static_cast<double>(buckets_[k]) / static_cast<double>(total_);
        os << padLeft(std::to_string(lo), 10) << " - "
           << padLeft(std::to_string(hi), 10) << "  "
           << padLeft(std::to_string(buckets_[k]), 10) << "  "
           << formatPercent(frac) << '\n';
    }
    return os.str();
}

} // namespace cachelab
