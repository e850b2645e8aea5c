/**
 * @file
 * Per-set LRU recency stacks with depth queries: the one Mattson
 * stack-processing core (Mattson et al., 1970) behind the single-pass
 * analyzer, the live-point producer and the 3C shadow.
 *
 * A touch returns the line's 1-based depth in its set's recency stack
 * before promotion.  An LRU cache with A ways over the same sets holds
 * exactly the top A lines of every stack, so that one number tells
 * whether the touch hits at every associativity at once.
 *
 * Every set is a row: its most recent lines, MRU first, plus a fill
 * count.  A touch scans the row, and a hit's position is its depth;
 * promotion shifts the lines above it down one slot.  A row hit needs
 * no index and no tree, so a shallow touch costs a few compares and a
 * short move.  What a full row does with its LRU line on a miss
 * depends on the depth bound:
 *
 *  - **Row only** (bound <= kMaxRowBound): the row holds `bound`
 *    lines, and a full row drops its LRU line.
 *  - **Row and tree** (unbounded, or bound > kMaxRowBound): the row
 *    holds kTreeRowLines lines, and the set continues in a Fenwick
 *    tree behind it, over a stamp space.  A full row spills its LRU
 *    line into the tree at a fresh newest stamp.  A set's tree stays
 *    empty until its row is full, so a tree line's depth is
 *    kTreeRowLines plus the number of live stamps at or above its own
 *    (O(log) per row miss, not the O(depth) walk of a move-to-front
 *    list).  A stamp->line array per set gives the LRU line for
 *    eviction and the MRU-first walk; all sets share one flat
 *    Addr-keyed index (util/flat_map.hh) from tree line to stamp, so
 *    a row miss costs one probe.
 *
 * Two rules live here because every Mattson user needs them the same
 * way:
 *
 *  - **Dirty rule.**  Per line the stack keeps whether it was written
 *    since install and the deepest non-write re-touch since install or
 *    the last write.  In a copy-back, fetch-on-write LRU cache the
 *    line is then dirty at exactly the capacities >= dirtyFrom(): a
 *    write makes it dirty everywhere, and a later read at depth d
 *    means every cache smaller than d evicted it and refetched it
 *    clean.
 *  - **Renumber rule** (the tree).  Stamps are spent only on spills.
 *    When a set's clock reaches the stamp space, its live stamps are
 *    renumbered 1..n in recency order, after doubling the space if
 *    more than half of it is live.  A set bounded at depth B holds at
 *    most B - kTreeRowLines tree lines in a space twice that, and so
 *    never doubles; an unbounded one keeps at most ~4x its tree lines
 *    in stamps.  Either way renumbering is amortized O(1) per spill.
 */

#ifndef CACHELAB_CACHE_LRU_STACK_HH
#define CACHELAB_CACHE_LRU_STACK_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "trace/memory_ref.hh"
#include "util/flat_map.hh"

namespace cachelab
{

/** One resident line of an LruStack with its dirty-rule state. */
struct LruLine
{
    Addr lineAddr = 0;
    /** Deepest non-write re-touch since install or the last write. */
    std::uint32_t maxDepth = 0;
    /** Written since install. */
    bool written = false;

    bool operator==(const LruLine &) const = default;
};

/**
 * LRU recency stacks for a fixed number of sets, optionally bounded in
 * depth.  A line must always be touched in the same set.
 */
class LruStack
{
  public:
    /** Depth bound of a stack whose sets grow with their footprint. */
    static constexpr std::uint64_t kUnbounded = 0;

    /** dirtyFrom() of a line that is clean at every capacity. */
    static constexpr std::uint64_t kClean = ~std::uint64_t{0};

    /**
     * Deepest bound kept as a row only.  Rows cost O(bound) a touch
     * and the tree O(log bound); measured at bounds 4 to 64, rows stay
     * at least 2.3x faster up to 32 (DESIGN.md, "LRU stack core").
     */
    static constexpr std::uint64_t kMaxRowBound = 32;

    /**
     * Lines in the MRU row in front of each set with a tree (unbounded,
     * or bound > kMaxRowBound).  A paired micro at 8, 16 and 32 put 16
     * ahead on the corpus streams (DESIGN.md, "LRU stack core").
     */
    static constexpr std::uint64_t kTreeRowLines = 16;

    /**
     * @param set_count number of independent stacks (>= 1).
     * @param depth_bound lines kept per set; a touch that would push a
     * set past it evicts the set's LRU line.  kUnbounded keeps all.
     * A bound of at most kMaxRowBound keeps each set as a row only.
     */
    explicit LruStack(std::uint64_t set_count,
                      std::uint64_t depth_bound = kUnbounded);

    /**
     * Promote @p line_addr to the MRU position of @p set, installing
     * it when absent, and apply the dirty rule.
     * @param before when non-null and the line was resident, receives
     * its state as it was before this touch.
     * @return the line's 1-based depth before promotion, or 0 when it
     * was not resident.
     */
    std::uint64_t touch(std::uint64_t set, Addr line_addr, bool is_write,
                        LruLine *before = nullptr);

    /**
     * touch() of @p set's MRU line, which it returns at depth 1: apply
     * the dirty rule at depth 1 in place, with no scan and no shift.
     * Precondition: the touched line is @p set's MRU line (the caller
     * knows it, say from a coarser set that holds it at depth 1).
     */
    void
    retouchMru(std::uint64_t set, bool is_write)
    {
        retouch(rows_[set * rowSlots_], is_write, 1);
    }

    /** @return true when @p line_addr is resident in @p set. */
    bool contains(std::uint64_t set, Addr line_addr) const;

    /** Resident lines across all sets. */
    std::uint64_t size() const { return rowLines_ + index_.size(); }

    std::uint64_t setCount() const { return sets_; }

    /** Call fn(const LruLine &) on @p set's lines, MRU first. */
    template <typename Fn>
    void
    forEachMru(std::uint64_t set, Fn &&fn) const
    {
        const LruLine *row = &rows_[set * rowSlots_];
        for (std::uint64_t i = 0; i < fill_[set]; ++i)
            fn(row[i]);
        if (!tree_)
            return;
        const std::uint64_t base = set * space_;
        for (std::uint64_t stamp = clock_[set]; stamp >= 1; --stamp) {
            if (lines_[base + stamp - 1].maxDepth != kReleased)
                fn(lines_[base + stamp - 1]);
        }
    }

    /** Empty every set (a task-switch purge). */
    void clear();

    /**
     * Smallest capacity, in lines of one set, at which @p line is
     * dirty in a copy-back, fetch-on-write LRU cache; kClean when it
     * is clean at every capacity.
     */
    static std::uint64_t
    dirtyFrom(const LruLine &line)
    {
        return line.written
            ? std::max<std::uint64_t>(1, line.maxDepth)
            : kClean;
    }

  private:
    /**
     * maxDepth of a released stamp's slot.  No live line gets that
     * deep: the constructor and renumber() keep every stamp space,
     * and so every depth, below it.
     */
    static constexpr std::uint32_t kReleased = ~std::uint32_t{0};

    /** The dirty rule for a re-touch of resident @p line at @p depth. */
    static void
    retouch(LruLine &line, bool is_write, std::uint64_t depth)
    {
        if (is_write) {
            line.written = true;
            line.maxDepth = 0;
        } else {
            line.maxDepth =
                std::max(line.maxDepth, static_cast<std::uint32_t>(depth));
        }
    }

    /** @return @p line_addr's slot in @p set's row, or the row's fill. */
    std::uint64_t rowSlot(std::uint64_t set, Addr line_addr) const;

    /**
     * touch() of a line missing from @p set's full row: take it out of
     * the tree if it is there (else evict the tree's LRU line at the
     * bound), spill the row's LRU line into the tree at its newest
     * stamp, and put the line on top of the row.
     */
    std::uint64_t spill(std::uint64_t set, Addr line_addr, bool is_write,
                        LruLine *before);

    /** Fenwick add of @p delta at @p stamp of @p set. */
    void mark(std::uint64_t set, std::uint64_t stamp, int delta);

    /** @return live stamps of @p set in [1, stamp]. */
    std::uint64_t prefix(std::uint64_t set, std::uint64_t stamp) const;

    /** @return the lowest live stamp of @p set (its tree's LRU line). */
    std::uint64_t lowestLive(std::uint64_t set) const;

    /** Drop @p stamp of @p set (line moved or evicted). */
    void release(std::uint64_t set, std::uint64_t stamp);

    /** Put @p line at a fresh MRU stamp of @p set. @return the stamp. */
    std::uint64_t place(std::uint64_t set, const LruLine &line);

    /** The renumber rule, for @p set whose clock reached the space. */
    void renumber(std::uint64_t set);

    /**
     * Move @p set's live tree lines, oldest first, from the first
     * @p clock slots of @p from to stamps 1..n of the current layout,
     * and rebuild its tree.  In place when @p from is the set's own
     * slots.
     */
    void pack(std::uint64_t set, const LruLine *from, std::uint64_t clock);

    std::uint64_t sets_;
    std::uint64_t bound_;
    bool tree_;              ///< a tree behind every row
    std::uint64_t rowSlots_; ///< row length: the bound, or kTreeRowLines

    /** Per set, the first fill_ of its rowSlots_ slots, MRU first. */
    std::vector<LruLine> rows_;

    std::vector<std::uint64_t> fill_; ///< lines in each set's row
    std::uint64_t rowLines_ = 0;      ///< lines in all rows

    // The tree behind the rows: empty for a row-only stack.

    std::uint64_t space_ = 0; ///< stamps per set

    /** Per set, stamp t at slot t - 1; slots above its clock unread. */
    std::vector<LruLine> lines_;

    std::vector<std::uint64_t> live_; ///< tree lines, per set

    /** Per set: space_ + 1 Fenwick nodes, node 0 unused. */
    std::vector<std::uint32_t> fenwick_;

    std::vector<std::uint64_t> clock_; ///< last stamp handed out, per set

    /** Tree line -> its stamp within its set (below kReleased). */
    AddrIndex index_;
};

} // namespace cachelab

#endif // CACHELAB_CACHE_LRU_STACK_HH
