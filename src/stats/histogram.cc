/**
 * @file
 * Implementation of the log2 histogram.
 */

#include "stats/histogram.hh"

#include <algorithm>

namespace cachelab
{

namespace
{

/** Lower edge (inclusive) of bucket @p k. */
std::uint64_t
bucketLow(std::size_t k)
{
    return k == 0 ? 0 : std::uint64_t{1} << (k - 1);
}

/** Upper edge (exclusive) of bucket @p k; == low for the {0} bucket. */
std::uint64_t
bucketHigh(std::size_t k)
{
    if (k == 0)
        return 0;
    if (k >= 64)
        return ~std::uint64_t{0};
    return std::uint64_t{1} << k;
}

} // namespace

void
Log2Histogram::add(std::uint64_t value)
{
    ++buckets[bucketOf(value)];
    ++count;
    sum += value;
    max = std::max(max, value);
}

void
Log2Histogram::merge(const Log2Histogram &other)
{
    for (std::size_t k = 0; k < kBuckets; ++k)
        buckets[k] += other.buckets[k];
    count += other.count;
    sum += other.sum;
    max = std::max(max, other.max);
}

double
Log2Histogram::mean() const
{
    return count == 0
               ? 0.0
               : static_cast<double>(sum) / static_cast<double>(count);
}

double
Log2Histogram::quantile(double q) const
{
    // Sum the buckets rather than trusting `count`: in a snapshot of a
    // registry cell a concurrent record() may have bumped the total
    // before its bucket, and the rank walk must stay inside what the
    // buckets actually hold.
    std::uint64_t total = 0;
    for (const std::uint64_t b : buckets)
        total += b;
    if (total == 0)
        return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    // 1-based rank of the sample the quantile names.
    const double rank = std::max(1.0, q * static_cast<double>(total));
    std::uint64_t cumulative = 0;
    for (std::size_t k = 0; k < kBuckets; ++k) {
        if (buckets[k] == 0)
            continue;
        const std::uint64_t before = cumulative;
        cumulative += buckets[k];
        if (static_cast<double>(cumulative) < rank)
            continue;
        const double lo = static_cast<double>(bucketLow(k));
        const double hi = static_cast<double>(bucketHigh(k));
        const double within = (rank - static_cast<double>(before)) /
                              static_cast<double>(buckets[k]);
        const double estimate = lo + within * (hi - lo);
        // Never report past the observed maximum (the top bucket is a
        // factor-of-two wide; max tightens it).
        return max > 0 ? std::min(estimate, static_cast<double>(max))
                       : estimate;
    }
    return static_cast<double>(max);
}

std::size_t
Log2Histogram::usedBuckets() const
{
    std::size_t used = kBuckets;
    while (used > 0 && buckets[used - 1] == 0)
        --used;
    return used;
}

} // namespace cachelab
