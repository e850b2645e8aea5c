/**
 * @file
 * Log2-bin histogram.
 *
 * Used by the trace analyzer (sequential-run-length and stack-distance
 * distributions) and by ablation benches.
 */

#ifndef CACHELAB_STATS_HISTOGRAM_HH
#define CACHELAB_STATS_HISTOGRAM_HH

#include <cstdint>
#include <string>
#include <vector>

namespace cachelab
{

/**
 * Histogram over uint64 samples with power-of-two bucket boundaries:
 * bucket k holds samples in [2^(k-1), 2^k) with bucket 0 holding {0}.
 */
class Log2Histogram
{
  public:
    /** Add one sample. */
    void add(std::uint64_t value);

    /** Fold @p other's samples into this histogram. */
    void merge(const Log2Histogram &other);

    /** @return number of samples in bucket @p k (0 if out of range). */
    std::uint64_t bucket(std::size_t k) const;

    /** @return number of buckets with at least one sample boundary. */
    std::size_t bucketCount() const { return buckets_.size(); }

    /** @return total samples. */
    std::uint64_t total() const { return total_; }

    /** @return mean of the raw samples. */
    double mean() const;

    /** Render "bucket-range count fraction" lines for reports. */
    std::string render() const;

  private:
    std::vector<std::uint64_t> buckets_;
    std::uint64_t total_ = 0;
    double sum_ = 0.0;
};

} // namespace cachelab

#endif // CACHELAB_STATS_HISTOGRAM_HH
