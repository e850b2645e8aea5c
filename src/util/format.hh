/**
 * @file
 * Small string-formatting helpers shared by the table renderer, the
 * bench binaries and the trace writers.
 */

#ifndef CACHELAB_UTIL_FORMAT_HH
#define CACHELAB_UTIL_FORMAT_HH

#include <cstdint>
#include <string>

namespace cachelab
{

/** Format @p value with @p decimals digits after the point. */
std::string formatFixed(double value, int decimals);

/** Format a ratio as a percentage string, e.g. 0.1234 -> "12.34%". */
std::string formatPercent(double ratio, int decimals = 2);

/** Format a byte count with a power-of-two suffix, e.g. 16384 -> "16K". */
std::string formatSize(std::uint64_t bytes);

/** Left-pad @p s with spaces to width @p width. */
std::string padLeft(const std::string &s, std::size_t width);

/** Right-pad @p s with spaces to width @p width. */
std::string padRight(const std::string &s, std::size_t width);

/** Format @p value with thousands separators, e.g. 250000 -> "250,000". */
std::string formatCount(std::uint64_t value);

/** Format @p value as 16 lower-case hex digits, e.g. 255 ->
 *  "00000000000000ff" (hash keys in stores, registries and manifests). */
std::string formatHex64(std::uint64_t value);

} // namespace cachelab

#endif // CACHELAB_UTIL_FORMAT_HH
