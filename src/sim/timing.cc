/**
 * @file
 * Implementation of the per-level timing model.
 */

#include "sim/timing.hh"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "obs/manifest.hh"
#include "util/logging.hh"

namespace cachelab
{

namespace
{

std::string
formatCycles(double v)
{
    char buf[32];
    if (v == std::floor(v) && std::abs(v) < 1e15)
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(v));
    else
        std::snprintf(buf, sizeof(buf), "%g", v);
    return buf;
}

/** Cycles to move @p bytes across the memory interface. */
double
transferCycles(const TimingConfig &config, double bytes)
{
    return config.widthBytes > 0 ? bytes / config.widthBytes : 0.0;
}

} // namespace

void
TimingConfig::validate() const
{
    if (hitCycles < 0 || memoryCycles < 0 || widthBytes < 0)
        fatal("timing parameters must be non-negative (",
              describe(), ")");
}

std::string
TimingConfig::describe() const
{
    return "hit=" + formatCycles(hitCycles) +
        ",mem=" + formatCycles(memoryCycles) +
        ",width=" + formatCycles(widthBytes);
}

std::optional<std::string>
parseTimingConfig(std::string_view text, TimingConfig &out)
{
    TimingConfig config;
    config.configured = true;
    std::string_view rest = text;
    while (!rest.empty()) {
        const std::size_t comma = rest.find(',');
        const std::string_view token = rest.substr(0, comma);
        rest = comma == std::string_view::npos ? std::string_view{}
                                               : rest.substr(comma + 1);
        const std::size_t eq = token.find('=');
        if (eq == std::string_view::npos || eq == 0)
            return "timing parameter \"" + std::string(token) +
                "\" is not key=value";
        const std::string_view key = token.substr(0, eq);
        const std::string_view value = token.substr(eq + 1);
        double parsed = 0.0;
        const auto [ptr, ec] = std::from_chars(
            value.data(), value.data() + value.size(), parsed);
        if (ec != std::errc{} || ptr != value.data() + value.size())
            return "timing parameter \"" + std::string(key) +
                "\" has non-numeric value \"" + std::string(value) + "\"";
        if (parsed < 0)
            return "timing parameter \"" + std::string(key) +
                "\" must be non-negative";
        if (key == "hit")
            config.hitCycles = parsed;
        else if (key == "mem")
            config.memoryCycles = parsed;
        else if (key == "width")
            config.widthBytes = parsed;
        else
            return "unknown timing parameter \"" + std::string(key) +
                "\" (valid: hit, mem, width)";
    }
    out = config;
    return std::nullopt;
}

TimingResult
computeTiming(const TimingConfig &config, const CacheStats &stats,
              std::uint32_t line_bytes)
{
    TimingResult result;
    const double accesses =
        static_cast<double>(stats.totalAccesses());
    const double misses = static_cast<double>(stats.totalMisses());
    const double penalty =
        config.memoryCycles + transferCycles(config, line_bytes);

    const double missRatio = accesses > 0 ? misses / accesses : 0.0;
    result.amat = config.hitCycles + missRatio * penalty;
    result.totalCycles = config.hitCycles * accesses + penalty * misses;
    result.busCycles =
        transferCycles(config, static_cast<double>(stats.trafficBytes()));
    result.trafficLimitedRefsPerCycle =
        result.busCycles > 0 ? accesses / result.busCycles : 0.0;

    result.levels.push_back({"l1", accesses,
                             config.hitCycles * accesses,
                             penalty * misses});
    result.levels.push_back({"memory", misses, penalty * misses, 0.0});
    return result;
}

void
applyTimingConfig(obs::RunManifest &manifest, const TimingConfig &config)
{
    if (!config.enabled())
        return;
    manifest.timingConfigured = true;
    manifest.timingHitCycles = config.hitCycles;
    manifest.timingMemoryCycles = config.memoryCycles;
    manifest.timingWidthBytes = config.widthBytes;
}

void
applyTimingResult(obs::ManifestResult &result, const TimingResult &timing)
{
    result.timing.configured = true;
    result.timing.amat = timing.amat;
    result.timing.totalCycles = timing.totalCycles;
    result.timing.busCycles = timing.busCycles;
    result.timing.trafficLimitedRefsPerCycle =
        timing.trafficLimitedRefsPerCycle;
}

} // namespace cachelab
