/**
 * @file
 * Cache timing model: AMAT and traffic-limited throughput.
 *
 * The paper (like most of its era) judges designs by miss ratio
 * alone, but misses are not all equally expensive: once policies and
 * hierarchies differ, the quantity a designer actually minimizes is
 * the average memory access time
 *
 *     AMAT = t_hit + m * penalty,
 *     penalty = t_next + lineBytes / width
 *
 * for one cache in front of memory, where `width` is the
 * memory-interface width in bytes per cycle (the line-transfer term)
 * and m the cache's miss ratio.  The model also
 * converts a run's total memory traffic into bus-busy cycles, giving
 * the traffic-limited throughput ceiling — the paper's Table 4
 * bandwidth concern, expressed in cycles.
 *
 * The model is deliberately unpipelined (no overlap, no MLP): it is
 * the textbook first-order model, applied to exact simulated counts.
 * Everything here is pure arithmetic over CacheStats — nothing in the
 * simulation hot path changes, and runs without a timing
 * configuration emit byte-identical output.
 */

#ifndef CACHELAB_SIM_TIMING_HH
#define CACHELAB_SIM_TIMING_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cache/stats.hh"

namespace cachelab
{

namespace obs
{
struct ManifestResult;
struct RunManifest;
} // namespace obs

/**
 * Latency parameters, in CPU cycles.  Default-constructed means "no
 * timing configured": the simulator computes miss ratios only and
 * emits no timing output at all.
 */
struct TimingConfig
{
    /** L1 hit latency in cycles. */
    double hitCycles = 1.0;

    /** Memory access latency in cycles (first word). */
    double memoryCycles = 100.0;

    /**
     * Memory-interface width in bytes per cycle; adds
     * lineBytes / width transfer cycles to every line fetch and
     * writeback.  0 disables the transfer term (infinite width).
     */
    double widthBytes = 8.0;

    /** True once any timing flag/spec field was supplied. */
    bool configured = false;

    bool operator==(const TimingConfig &) const = default;

    bool enabled() const { return configured; }

    /** fatal() if any parameter is out of range. */
    void validate() const;

    /** @return canonical "hit=1,mem=100,width=8" rendering. */
    std::string describe() const;
};

/**
 * Parse `hit=1,mem=100,width=8` (any subset; unnamed keys
 * keep their defaults) into @p out with configured = true.  @return
 * std::nullopt on success, else a one-line diagnostic naming the
 * valid keys.  Never fatal()s, matching the serve-spec validation
 * conventions.
 */
std::optional<std::string> parseTimingConfig(std::string_view text,
                                             TimingConfig &out);

/** Cycle accounting for one level of the hierarchy. */
struct LevelTiming
{
    std::string level;     ///< "l1", "memory"
    double accesses = 0;   ///< references that reached this level
    double hitCycles = 0;  ///< cycles spent on hits here
    double missCycles = 0; ///< cycles handed to the next level
};

/** The timing quantities derived from one run's statistics. */
struct TimingResult
{
    /** Average memory access time, cycles per reference. */
    double amat = 0;

    /** Total demand-access cycles for the run (amat * references). */
    double totalCycles = 0;

    /**
     * Cycles the memory interface was busy moving this run's traffic
     * (trafficBytes / width; 0 when the width term is disabled).
     */
    double busCycles = 0;

    /**
     * Traffic-limited throughput ceiling in references per cycle:
     * accesses / busCycles.  Infinite traffic headroom is reported
     * as 0 (no ceiling).
     */
    double trafficLimitedRefsPerCycle = 0;

    /** Per-level breakdown, outermost first. */
    std::vector<LevelTiming> levels;
};

/**
 * Single-level composition: L1 misses go straight to memory.
 * @p line_bytes is the fetch granularity for the transfer term.
 */
TimingResult computeTiming(const TimingConfig &config,
                           const CacheStats &stats,
                           std::uint32_t line_bytes);

/**
 * Copy @p config into @p manifest's timing members so the manifest
 * writer emits the "timing" config object.  No-op when @p config is
 * not configured, keeping flags-off manifests byte-identical.
 */
void applyTimingConfig(obs::RunManifest &manifest,
                       const TimingConfig &config);

/** Attach @p timing to one manifest result (per-result block). */
void applyTimingResult(obs::ManifestResult &result,
                       const TimingResult &timing);

} // namespace cachelab

#endif // CACHELAB_SIM_TIMING_HH
