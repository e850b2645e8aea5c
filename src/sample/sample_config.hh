/**
 * @file
 * Configuration of a statistically sampled simulation run.
 *
 * Smith runs every trace end to end; section 3.6 of the paper shows
 * how strongly trace length and placement distort the measured miss
 * ratio.  Interval sampling (SMARTS-style systematic selection, or
 * seeded random selection) measures only a small fraction of the
 * trace and reports the resulting uncertainty explicitly, so the lab
 * can scale to corpora far larger than the paper's 49 traces.
 */

#ifndef CACHELAB_SAMPLE_SAMPLE_CONFIG_HH
#define CACHELAB_SAMPLE_SAMPLE_CONFIG_HH

#include <cstdint>
#include <string>

namespace cachelab
{

/** How measurement intervals are placed over the trace. */
enum class IntervalSelection : std::uint8_t
{
    /** Every k-th sampling unit, SMARTS-style (k = 1 / fraction). */
    Systematic,
    /** A seeded uniform draw of sampling units, without replacement. */
    Random,
};

/**
 * What happens to cache state between measurement intervals.
 *
 * The choice trades speed against the cold-start bias of paper
 * section 3.6: skipping references is fast but leaves the tag state
 * stale (or empty), which biases the measured miss ratio high.
 */
enum class WarmingPolicy : std::uint8_t
{
    /**
     * Purge before each measured interval and skip everything between
     * intervals.  Fastest, and deliberately reproduces the paper's
     * cold-start behaviour — useful as a bias upper bound.
     */
    Cold,

    /**
     * Skip between intervals keeping stale tag state, then replay a
     * fixed number of references (warmupRefs) unmeasured before each
     * interval.  Near-cold bias is amortized; speedup is roughly
     * 1 / (fraction + warmup fraction).
     */
    FixedWarmup,

    /**
     * Apply every reference to the cache, measuring only inside the
     * intervals ("functional warming"): tag state is always exact, so
     * the per-interval miss ratios are unbiased and a fraction of 1.0
     * reproduces a full run bitwise.  No skip speedup; the win is
     * statistical (few measured intervals summarize the whole trace)
     * and compositional (the same plan drives cheaper estimators).
     */
    Functional,

    /**
     * Restore functionally warmed state from a checkpoint store
     * (src/ckpt "live-points") at each interval start instead of
     * replaying the skipped references.  Per-interval statistics are
     * bitwise identical to Functional, at Cold's skip cost — the
     * warming work was paid once, by the store's producer, for every
     * configuration the store can serve.  Only the checkpoint-aware
     * drivers (sweepUnifiedSampled / sweepSplitSampled with a
     * LivePointStore) accept this policy; plain runSampled() rejects
     * it.
     */
    Checkpoint,
};

/** @return display name for each policy value. */
std::string toString(IntervalSelection selection);
std::string toString(WarmingPolicy warming);

/** Full parameterization of a sampled run. */
struct SampleConfig
{
    /** Length of one measured interval (sampling unit U), in refs. */
    std::uint64_t unitRefs = 1000;

    /**
     * Target measured fraction of the trace, in (0, 1].  Systematic
     * selection measures one unit every round(unitRefs / fraction)
     * references; 1.0 tiles the whole trace contiguously.
     */
    double fraction = 0.10;

    IntervalSelection selection = IntervalSelection::Systematic;

    /** Seed for IntervalSelection::Random unit placement. */
    std::uint64_t seed = 0x5a3c1e;

    WarmingPolicy warming = WarmingPolicy::Functional;

    /** Unmeasured warm-up refs per interval (FixedWarmup only). */
    std::uint64_t warmupRefs = 0;

    /** Two-sided confidence level for the reported intervals. */
    double confidence = 0.95;

    /**
     * Sequential-sampling stopping rule: when nonzero, stop adding
     * intervals once the confidence-interval half width falls below
     * this fraction of the estimated mean (e.g. 0.05 = ±5% relative).
     * Zero runs the whole plan.
     */
    double targetRelativeError = 0.0;

    /** Minimum measured intervals before the stopping rule may fire. */
    std::uint64_t minIntervals = 8;

    /** fatal() if any parameter combination is invalid. */
    void validate() const;

    /** @return compact description, e.g. "10% x 1000 sys/functional". */
    std::string describe() const;
};

} // namespace cachelab

#endif // CACHELAB_SAMPLE_SAMPLE_CONFIG_HH
