/**
 * @file
 * Implementation of the per-set LRU stack core: the row every set
 * keeps, then the tree behind the rows of a deep or unbounded stack.
 */

#include "cache/lru_stack.hh"

#include <bit>
#include <utility>

#include "util/logging.hh"

namespace cachelab
{

namespace
{

// A set with a tree is bounded deeper than kMaxRowBound, or not at all,
// so its full row leaves at least one line for the tree.
static_assert(LruStack::kTreeRowLines <= LruStack::kMaxRowBound);

/** Stamp space of an unbounded stack before its first doubling. */
constexpr std::uint64_t kInitialUnboundedSpace = 1024;

/** The dirty rule for a re-touch of resident @p line at @p depth. */
void
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

/**
 * Apply the dirty rule to @p line, resident at @p depth (0: absent),
 * slide @p row's lines above @p slot down one, onto it, and put the
 * line on top.  @return @p depth.
 */
std::uint64_t
promote(LruLine *row, std::uint64_t slot, LruLine line, std::uint64_t depth,
        bool is_write, LruLine *before)
{
    if (depth != 0) {
        if (before != nullptr)
            *before = line;
        retouch(line, is_write, depth);
    }
    for (; slot > 0; --slot)
        row[slot] = row[slot - 1];
    row[0] = line;
    return depth;
}

} // namespace

LruStack::LruStack(std::uint64_t set_count, std::uint64_t depth_bound)
    : sets_(set_count), bound_(depth_bound),
      tree_(depth_bound == kUnbounded || depth_bound > kMaxRowBound),
      rowSlots_(tree_ ? kTreeRowLines : depth_bound),
      rows_(set_count * rowSlots_), fill_(set_count, 0)
{
    CACHELAB_ASSERT(set_count > 0, "LRU stack needs at least one set");
    if (!tree_)
        return;
    space_ = depth_bound == kUnbounded
        ? kInitialUnboundedSpace
        : 2 * (depth_bound - kTreeRowLines);
    CACHELAB_ASSERT(space_ < kReleased, "LRU stack depth bound ",
                    depth_bound, " too large");
    lines_.resize(set_count * space_);
    live_.assign(set_count, 0);
    fenwick_.assign(set_count * (space_ + 1), 0);
    clock_.assign(set_count, 0);
    if (bound_ != kUnbounded)
        index_.reserve(set_count * (depth_bound - kTreeRowLines));
}

std::uint64_t
LruStack::rowSlot(std::uint64_t set, Addr line_addr) const
{
    const LruLine *row = &rows_[set * rowSlots_];
    std::uint64_t slot = 0;
    while (slot < fill_[set] && row[slot].lineAddr != line_addr)
        ++slot;
    return slot;
}

bool
LruStack::contains(std::uint64_t set, Addr line_addr) const
{
    return rowSlot(set, line_addr) < fill_[set]
        || (tree_ && index_.contains(line_addr));
}

std::uint64_t
LruStack::touch(std::uint64_t set, Addr line_addr, bool is_write,
                LruLine *before)
{
    LruLine *row = &rows_[set * rowSlots_];
    std::uint64_t slot = rowSlot(set, line_addr);
    std::uint64_t depth = 0;
    LruLine line{line_addr, 0, is_write};
    if (slot < fill_[set]) {
        depth = slot + 1;
        line = row[slot];
    } else if (fill_[set] < rowSlots_) {
        ++fill_[set];
        ++rowLines_;
    } else if (tree_) {
        // A full row hands its LRU line to the tree.  As a tail call
        // it leaves the row path no value to keep across a call.
        return spill(set, line_addr, is_write, before);
    } else {
        --slot; // a full row-only set drops its LRU line
    }
    return promote(row, slot, line, depth, is_write, before);
}

std::uint64_t
LruStack::spill(std::uint64_t set, Addr line_addr, bool is_write,
                LruLine *before)
{
    LruLine *row = &rows_[set * rowSlots_];
    const LruLine &spilled = row[rowSlots_ - 1];
    std::uint64_t depth = 0;
    LruLine line{line_addr, 0, is_write};
    const std::uint32_t stamp = index_.take(line_addr);
    if (stamp != AddrIndex::kEmpty) {
        line = lines_[set * space_ + stamp - 1];
        // Live stamps at or above the line's own, the line included.
        depth = rowSlots_ + live_[set] - prefix(set, stamp) + 1;
        release(set, stamp);
    } else if (rowSlots_ + live_[set] == bound_) {
        const std::uint64_t victim = lowestLive(set);
        index_.take(lines_[set * space_ + victim - 1].lineAddr);
        release(set, victim);
    }
    // Release first: place() may renumber, and the renumbered set must
    // not hold the line twice.
    const std::uint64_t spill_stamp = place(set, spilled);
    index_.insert(spilled.lineAddr, static_cast<std::uint32_t>(spill_stamp));
    return promote(row, rowSlots_ - 1, line, depth, is_write, before);
}

void
LruStack::mark(std::uint64_t set, std::uint64_t stamp, int delta)
{
    std::uint32_t *tree = &fenwick_[set * (space_ + 1)];
    for (; stamp <= space_; stamp += stamp & (~stamp + 1))
        tree[stamp] = static_cast<std::uint32_t>(tree[stamp] + delta);
}

std::uint64_t
LruStack::prefix(std::uint64_t set, std::uint64_t stamp) const
{
    const std::uint32_t *tree = &fenwick_[set * (space_ + 1)];
    std::uint64_t sum = 0;
    for (; stamp != 0; stamp -= stamp & (~stamp + 1))
        sum += tree[stamp];
    return sum;
}

std::uint64_t
LruStack::lowestLive(std::uint64_t set) const
{
    // Descend to the longest prefix holding no live stamp.
    const std::uint32_t *tree = &fenwick_[set * (space_ + 1)];
    std::uint64_t pos = 0;
    for (std::uint64_t bit = std::bit_floor(space_); bit != 0; bit >>= 1) {
        if (pos + bit <= space_ && tree[pos + bit] == 0)
            pos += bit;
    }
    return pos + 1;
}

void
LruStack::release(std::uint64_t set, std::uint64_t stamp)
{
    lines_[set * space_ + stamp - 1].maxDepth = kReleased;
    mark(set, stamp, -1);
    --live_[set];
}

std::uint64_t
LruStack::place(std::uint64_t set, const LruLine &line)
{
    if (clock_[set] == space_)
        renumber(set);
    const std::uint64_t stamp = ++clock_[set];
    lines_[set * space_ + stamp - 1] = line;
    mark(set, stamp, +1);
    ++live_[set];
    return stamp;
}

void
LruStack::pack(std::uint64_t set, const LruLine *from, std::uint64_t clock)
{
    const std::uint64_t base = set * space_;
    std::uint64_t n = 0;
    for (std::uint64_t i = 0; i < clock; ++i) {
        if (from[i].maxDepth == kReleased)
            continue;
        lines_[base + n] = from[i];
        index_.assign(from[i].lineAddr, static_cast<std::uint32_t>(++n));
    }
    CACHELAB_ASSERT(n == live_[set], "LRU stack: set ", set, " packed ", n,
                    " of ", live_[set], " lines");
    clock_[set] = n;

    // Stamps 1..n are live; node i counts those in (i - lowbit(i), i].
    std::uint32_t *tree = &fenwick_[set * (space_ + 1)];
    for (std::uint64_t i = 1; i <= space_; ++i) {
        const std::uint64_t low = i & (~i + 1);
        const std::uint64_t first = i - low;
        tree[i] = static_cast<std::uint32_t>(
            n > first ? std::min(low, n - first) : 0);
    }
}

void
LruStack::renumber(std::uint64_t set)
{
    if (2 * live_[set] <= space_) {
        pack(set, &lines_[set * space_], clock_[set]);
        return;
    }
    // Double first.  The space is shared by all sets, so every set
    // moves to the new layout.
    CACHELAB_ASSERT(bound_ == kUnbounded, "bounded LRU stack overfull");
    CACHELAB_ASSERT(space_ < kReleased / 2, "LRU stack outgrew 32-bit depths");
    const std::uint64_t old_space = space_;
    std::vector<LruLine> old_lines = std::move(lines_);
    space_ *= 2;
    fenwick_.assign(sets_ * (space_ + 1), 0);
    lines_.assign(sets_ * space_, LruLine{});
    for (std::uint64_t s = 0; s < sets_; ++s)
        pack(s, &old_lines[s * old_space], clock_[s]);
}

void
LruStack::clear()
{
    std::fill(fill_.begin(), fill_.end(), 0);
    rowLines_ = 0;
    std::fill(live_.begin(), live_.end(), 0);
    std::fill(fenwick_.begin(), fenwick_.end(), 0);
    std::fill(clock_.begin(), clock_.end(), 0);
    index_.clear();
}

} // namespace cachelab
