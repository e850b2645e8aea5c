/**
 * @file
 * Implementation of string-formatting helpers.
 */

#include "util/format.hh"

#include <cinttypes>
#include <cmath>
#include <cstdio>

namespace cachelab
{

std::string
formatFixed(double value, int decimals)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
    return buf;
}

std::string
formatPercent(double ratio, int decimals)
{
    return formatFixed(ratio * 100.0, decimals) + "%";
}

std::string
formatSize(std::uint64_t bytes)
{
    if (bytes >= (1ULL << 30) && bytes % (1ULL << 30) == 0)
        return std::to_string(bytes >> 30) + "G";
    if (bytes >= (1ULL << 20) && bytes % (1ULL << 20) == 0)
        return std::to_string(bytes >> 20) + "M";
    if (bytes >= (1ULL << 10) && bytes % (1ULL << 10) == 0)
        return std::to_string(bytes >> 10) + "K";
    return std::to_string(bytes);
}

std::string
padLeft(const std::string &s, std::size_t width)
{
    if (s.size() >= width)
        return s;
    return std::string(width - s.size(), ' ') + s;
}

std::string
padRight(const std::string &s, std::size_t width)
{
    if (s.size() >= width)
        return s;
    return s + std::string(width - s.size(), ' ');
}

std::string
formatCount(std::uint64_t value)
{
    std::string digits = std::to_string(value);
    std::string out;
    out.reserve(digits.size() + digits.size() / 3);
    int run = 0;
    for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
        if (run && run % 3 == 0)
            out.push_back(',');
        out.push_back(*it);
        ++run;
    }
    return {out.rbegin(), out.rend()};
}

std::string
formatHex64(std::uint64_t value)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, value);
    return buf;
}

} // namespace cachelab
