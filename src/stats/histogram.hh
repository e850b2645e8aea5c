/**
 * @file
 * Log2-bin histogram: the one histogram value type.
 *
 * Used by the cache-event sink (eviction lifetimes, reuse distances),
 * and as the snapshot of every obs::Histogram registry cell (request
 * latencies, published probe histograms).
 */

#ifndef CACHELAB_STATS_HISTOGRAM_HH
#define CACHELAB_STATS_HISTOGRAM_HH

#include <array>
#include <bit>
#include <cstdint>

namespace cachelab
{

/**
 * Histogram over uint64 samples with power-of-two bucket boundaries:
 * bucket k holds samples in [2^(k-1), 2^k) with bucket 0 holding {0}.
 * The 65 buckets cover the whole uint64 range.  Besides the buckets it
 * keeps the exact sample count, sum (wrapping past 2^64) and maximum.
 */
struct Log2Histogram
{
    static constexpr std::size_t kBuckets = 65;

    /** @return the bucket of @p value. */
    static constexpr std::size_t
    bucketOf(std::uint64_t value)
    {
        return static_cast<std::size_t>(std::bit_width(value));
    }

    std::array<std::uint64_t, kBuckets> buckets{};
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t max = 0;

    /** Add one sample. */
    void add(std::uint64_t value);

    /** Fold @p other's samples into this histogram. */
    void merge(const Log2Histogram &other);

    /** @return mean of the raw samples; 0 when empty. */
    double mean() const;

    /**
     * Estimated @p q quantile, q in [0, 1]; 0 when empty.  Walks the
     * cumulative bucket counts to the sample of rank q * total and
     * interpolates linearly inside its bucket, so quantiles are
     * monotone in q; never reports more than max.
     */
    double quantile(double q) const;

    /** @return index of the last non-empty bucket + 1 (0 = empty),
     *  so writers can trim the long zero tail. */
    std::size_t usedBuckets() const;
};

} // namespace cachelab

#endif // CACHELAB_STATS_HISTOGRAM_HH
