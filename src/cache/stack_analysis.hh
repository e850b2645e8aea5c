/**
 * @file
 * One-pass LRU stack-distance analysis (Mattson et al., 1970).
 *
 * For a fully associative LRU cache, the references that miss in a
 * cache of N lines are exactly those whose LRU stack distance exceeds
 * N (plus cold first-touches).  One pass over a trace therefore
 * yields the miss ratio at *every* cache size simultaneously — the
 * standard trick behind 1980s trace-driven studies like this paper's,
 * where "computer time is a limited resource" (section 3.2).
 *
 * Distances come from the shared LRU stack core (cache/lru_stack.hh)
 * run as one unbounded set: a touch within the top
 * LruStack::kTreeRowLines lines is a short row scan, and a deeper one
 * costs O(log n) in the tree behind the row, instead of the O(depth)
 * walk of a move-to-front list.
 *
 * The distances this class records are per-line-touch distances for
 * the line containing each reference; a multi-line reference records
 * one distance per touched line.  missCountFor() therefore agrees
 * with Cache's *line-fetch* count (demandFetches), and
 * refMissRatioFor() with its per-reference miss ratio, for the
 * Table 1 configuration (fully associative, LRU, demand fetch,
 * write-allocate, no purges).
 *
 * Beyond distances, the analyzer tracks enough per-kind and dirty
 * state to reconstruct the *complete* CacheStats of a Table 1 run at
 * any size from the single pass — see table1StatsFor().  Dirty
 * accounting rests on the core's dirty rule: after any access to a
 * line, the cache sizes at which it is dirty are {N >= t} for the one
 * threshold t = LruStack::dirtyFrom().
 */

#ifndef CACHELAB_CACHE_STACK_ANALYSIS_HH
#define CACHELAB_CACHE_STACK_ANALYSIS_HH

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "cache/lru_stack.hh"
#include "cache/stats.hh"
#include "trace/source.hh"
#include "trace/trace.hh"

namespace cachelab
{

/**
 * Incremental LRU stack profiler.
 *
 * Feed references with access(); query miss counts or full curves at
 * any point.
 */
class StackAnalyzer
{
  public:
    /** @param line_bytes cache line size (power of two). */
    explicit StackAnalyzer(std::uint32_t line_bytes = 16);

    /** Record one memory reference (all lines it touches). */
    void access(const MemoryRef &ref);

    /** Record every reference of @p trace. */
    void accessAll(const Trace &trace);

    /** Record a batch of references (streaming consumers). */
    void accessAll(std::span<const MemoryRef> refs);

    /** Total references recorded. */
    std::uint64_t refCount() const { return refs_; }

    /** Line touches whose stack distance was d (0-based index d-1). */
    const std::vector<std::uint64_t> &distanceCounts() const
    {
        return distances_;
    }

    /** First-touch (cold) line accesses. */
    std::uint64_t coldCount() const { return cold_; }

    /** Distinct lines seen so far. */
    std::uint64_t distinctLineCount() const { return stack_.size(); }

    /**
     * Line fetches a fully associative LRU cache of @p size_bytes
     * would perform on the recorded stream (distance > lines + cold).
     */
    std::uint64_t missCountFor(std::uint64_t size_bytes) const;

    /** Line-touch miss ratio at @p size_bytes. */
    double missRatioFor(std::uint64_t size_bytes) const;

    /**
     * Per-reference miss ratio at @p size_bytes (a reference misses
     * when any line it touches does).  Exact because the analyzer
     * also tracks per-reference outcomes per size via the distance of
     * the worst line touched.
     */
    double refMissRatioFor(std::uint64_t size_bytes) const;

    /** Mean stack distance of non-cold line touches. */
    double meanDistance() const;

    /**
     * The complete statistics a Table 1 run (fully associative LRU,
     * demand fetch, copy-back with fetch-on-write, no purges, no
     * warm-up) of @p size_bytes would produce over the recorded
     * stream — bit-identical to runTrace() with a Cache, including
     * per-kind misses, replacement pushes and dirty-push traffic.
     */
    CacheStats table1StatsFor(std::uint64_t size_bytes) const;

  private:
    /** @return stack distance (1-based) or 0 for a cold touch. */
    std::uint64_t touchLine(Addr line_addr, bool is_write);

    /** Record one push range [first, last] into the delta array. */
    void recordDirtyPushes(std::uint64_t first, std::uint64_t last);

    std::uint32_t lineBytes_;
    std::uint64_t refs_ = 0;
    std::uint64_t lineTouches_ = 0;
    std::uint64_t cold_ = 0;

    /** distances_[d-1] = touches at stack distance d. */
    std::vector<std::uint64_t> distances_;

    /** Per-kind reference counts and worst-distance histograms. */
    std::array<std::uint64_t, 3> refsByKind_{};
    std::array<std::uint64_t, 3> refColdByKind_{};
    std::array<std::vector<std::uint64_t>, 3> refWorstByKind_{};

    /**
     * Completed dirty evictions by cache size, as a difference array:
     * the number of dirty pushes a size-N cache performed is the
     * prefix sum dirtyPushDelta_[1..N] plus the still-resident lines'
     * contribution computed at query time.
     */
    std::vector<std::int64_t> dirtyPushDelta_;

    /** The fully associative recency stack: one unbounded set. */
    LruStack stack_{1};
};

/**
 * Convenience: one pass over @p trace, returning per-reference miss
 * ratios at each size in @p sizes (Table 1 semantics).
 */
std::vector<double> lruMissRatioCurve(const Trace &trace,
                                      const std::vector<std::uint64_t> &sizes,
                                      std::uint32_t line_bytes = 16);

/** lruMissRatioCurve() over a streamed source (one pass, O(batch) +
 *  footprint memory; consumes from the current position). */
std::vector<double> lruMissRatioCurve(TraceSource &source,
                                      const std::vector<std::uint64_t> &sizes,
                                      std::uint32_t line_bytes = 16);

} // namespace cachelab

#endif // CACHELAB_CACHE_STACK_ANALYSIS_HH
