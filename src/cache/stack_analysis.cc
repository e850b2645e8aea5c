/**
 * @file
 * Implementation of the LRU stack-distance analyzer.
 */

#include "cache/stack_analysis.hh"

#include <algorithm>

#include "util/bits.hh"
#include "util/logging.hh"

namespace cachelab
{

StackAnalyzer::StackAnalyzer(std::uint32_t line_bytes)
    : lineBytes_(line_bytes)
{
    CACHELAB_ASSERT(isPowerOfTwo(line_bytes),
                    "line size must be a power of two");
}

void
StackAnalyzer::recordDirtyPushes(std::uint64_t first, std::uint64_t last)
{
    // +1 dirty push for every cache size N in [first, last].
    if (dirtyPushDelta_.size() < last + 2)
        dirtyPushDelta_.resize(last + 2, 0);
    dirtyPushDelta_[first] += 1;
    dirtyPushDelta_[last + 1] -= 1;
}

std::uint64_t
StackAnalyzer::touchLine(Addr line_addr, bool is_write)
{
    LruLine before;
    const std::uint64_t depth = stack_.touch(0, line_addr, is_write, &before);
    if (depth == 0) {
        ++cold_;
        return 0;
    }

    // Since its last touch the line sank from depth 1 to this depth,
    // so every cache of size N in [1, depth-1] evicted it; those
    // pushes were dirty where the line's dirty threshold reaches.
    const std::uint64_t dirty_from = LruStack::dirtyFrom(before);
    if (dirty_from < depth)
        recordDirtyPushes(dirty_from, depth - 1);

    if (depth > distances_.size())
        distances_.resize(depth, 0);
    ++distances_[depth - 1];
    return depth;
}

void
StackAnalyzer::access(const MemoryRef &ref)
{
    CACHELAB_ASSERT(ref.size > 0, "zero-sized reference");
    ++refs_;
    const auto kind = static_cast<std::size_t>(ref.kind);
    ++refsByKind_[kind];
    const bool is_write = ref.kind == AccessKind::Write;

    const Addr first = alignDown(ref.addr, lineBytes_);
    const Addr last = alignDown(ref.addr + ref.size - 1, lineBytes_);
    std::uint64_t worst = 1;
    bool any_cold = false;
    for (Addr line = first;; line += lineBytes_) {
        const std::uint64_t d = touchLine(line, is_write);
        if (d == 0)
            any_cold = true;
        else
            worst = std::max(worst, d);
        if (line == last)
            break;
    }
    if (any_cold) {
        ++refColdByKind_[kind];
    } else {
        auto &hist = refWorstByKind_[kind];
        if (worst > hist.size())
            hist.resize(worst, 0);
        ++hist[worst - 1];
    }
}

void
StackAnalyzer::accessAll(const Trace &trace)
{
    accessAll(trace.refs());
}

void
StackAnalyzer::accessAll(std::span<const MemoryRef> refs)
{
    for (const MemoryRef &ref : refs)
        access(ref);
}

CacheStats
StackAnalyzer::table1StatsFor(std::uint64_t size_bytes) const
{
    CACHELAB_ASSERT(size_bytes >= lineBytes_,
                    "cache smaller than one line");
    const std::uint64_t lines = size_bytes / lineBytes_;

    CacheStats stats;
    for (std::size_t k = 0; k < 3; ++k) {
        stats.accesses[k] = refsByKind_[k];
        stats.misses[k] = refColdByKind_[k];
        const auto &hist = refWorstByKind_[k];
        for (std::uint64_t w = lines + 1; w <= hist.size(); ++w)
            stats.misses[k] += hist[w - 1];
    }

    // A line touch misses when it is cold or deeper than the cache.
    stats.demandFetches = cold_;
    for (std::uint64_t d = lines + 1; d <= distances_.size(); ++d)
        stats.demandFetches += distances_[d - 1];
    stats.bytesFromMemory = stats.demandFetches * lineBytes_;

    // Every fetch either fills an empty way or evicts a valid line.
    const std::uint64_t resident =
        std::min<std::uint64_t>(lines, stack_.size());
    stats.replacementPushes = stats.demandFetches - resident;

    // Dirty pushes already completed (the pushed line was touched
    // again afterwards) live in the difference array ...
    std::int64_t dirty = 0;
    const std::uint64_t bound =
        std::min<std::uint64_t>(lines,
                                dirtyPushDelta_.empty()
                                    ? 0
                                    : dirtyPushDelta_.size() - 1);
    for (std::uint64_t n = 1; n <= bound; ++n)
        dirty += dirtyPushDelta_[n];
    // ... plus lines never touched again: pushed from every size
    // smaller than their current depth, dirty down to their threshold.
    std::uint64_t depth = 0;
    stack_.forEachMru(0, [&](const LruLine &line) {
        ++depth;
        if (lines < depth && LruStack::dirtyFrom(line) <= lines)
            ++dirty;
    });
    stats.dirtyReplacementPushes = static_cast<std::uint64_t>(dirty);
    stats.bytesToMemory = stats.dirtyReplacementPushes * lineBytes_;
    return stats;
}

} // namespace cachelab
