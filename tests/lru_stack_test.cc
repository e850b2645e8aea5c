/**
 * @file
 * Tests for the per-set LRU stack core: a differential test against a
 * naive per-set move-to-front oracle, and set-associative Mattson
 * stack processing checked against direct simulation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cache/cache.hh"
#include "cache/lru_stack.hh"
#include "cache/stack_analysis.hh"
#include "sim/experiments.hh"
#include "sim/run.hh"
#include "util/bits.hh"
#include "util/random.hh"
#include "workload/profiles.hh"

namespace cachelab
{
namespace
{

/**
 * The reference: one MRU-first vector per set, searched and shifted on
 * every touch (O(depth)), with the dirty rule applied literally.
 */
class StackOracle
{
  public:
    StackOracle(std::uint64_t sets, std::uint64_t bound)
        : stacks_(sets), bound_(bound)
    {
    }

    std::uint64_t
    touch(std::uint64_t set, Addr line_addr, bool is_write, LruLine *before)
    {
        std::vector<LruLine> &stack = stacks_[set];
        const auto it = std::find_if(
            stack.begin(), stack.end(),
            [&](const LruLine &line) { return line.lineAddr == line_addr; });
        if (it == stack.end()) {
            stack.insert(stack.begin(), LruLine{line_addr, 0, is_write});
            if (bound_ != LruStack::kUnbounded && stack.size() > bound_)
                stack.pop_back();
            return 0;
        }
        const auto depth = static_cast<std::uint64_t>(it - stack.begin()) + 1;
        LruLine line = *it;
        *before = line;
        if (is_write) {
            line.written = true;
            line.maxDepth = 0;
        } else if (depth > line.maxDepth) {
            line.maxDepth = static_cast<std::uint32_t>(depth);
        }
        stack.erase(it);
        stack.insert(stack.begin(), line);
        return depth;
    }

    void
    clear()
    {
        for (std::vector<LruLine> &stack : stacks_)
            stack.clear();
    }

    const std::vector<LruLine> &set(std::uint64_t s) const
    {
        return stacks_[s];
    }

    bool
    contains(std::uint64_t s, Addr line_addr) const
    {
        return std::any_of(
            stacks_[s].begin(), stacks_[s].end(),
            [&](const LruLine &line) { return line.lineAddr == line_addr; });
    }

    std::uint64_t
    size() const
    {
        std::uint64_t n = 0;
        for (const std::vector<LruLine> &stack : stacks_)
            n += stack.size();
        return n;
    }

  private:
    std::vector<std::vector<LruLine>> stacks_;
    std::uint64_t bound_;
};

void
expectSameStacks(const LruStack &stack, const StackOracle &oracle)
{
    ASSERT_EQ(stack.size(), oracle.size());
    for (std::uint64_t s = 0; s < stack.setCount(); ++s) {
        std::vector<LruLine> walked;
        stack.forEachMru(s, [&](const LruLine &line) {
            walked.push_back(line);
        });
        ASSERT_TRUE(walked == oracle.set(s)) << "set " << s;
        for (const LruLine &line : walked)
            ASSERT_TRUE(stack.contains(s, line.lineAddr));
    }
}

/**
 * Seeded random touches — Zipf-skewed line popularity, 30% writes,
 * occasional clear() — through the core and the oracle in lockstep.
 * At random points every set is compared, and contains() is asked
 * about random lines: resident, evicted and never touched.
 */
void
runDifferential(std::uint64_t sets, std::uint64_t bound, std::uint64_t seed)
{
    SCOPED_TRACE(testing::Message() << sets << " sets, bound " << bound);
    constexpr int kSteps = 40000;
    // Near the top of the address space: no address is special.
    constexpr Addr kBase = 0xffff'fff0'0000'0000ULL;

    LruStack stack(sets, bound);
    StackOracle oracle(sets, bound);
    Rng rng(seed);
    Rng probe_rng(~seed);
    // Popularity rank is the line number, so hot lines spread over
    // every set.  The unbounded stack needs enough distinct lines to
    // double its stamp space more than once.
    const std::uint64_t universe =
        bound == LruStack::kUnbounded ? 4000 : 4 * sets * bound + 8;
    const ZipfSampler popularity(universe, 0.6);

    for (int step = 0; step < kSteps; ++step) {
        if (rng.bernoulli(0.0002)) {
            stack.clear();
            oracle.clear();
        }
        const std::uint64_t id = popularity(rng);
        const std::uint64_t set = id % sets;
        const Addr line = kBase + id * 64;
        const bool is_write = rng.bernoulli(0.3);

        LruLine before, expected_before;
        const std::uint64_t depth = stack.touch(set, line, is_write, &before);
        const std::uint64_t expected =
            oracle.touch(set, line, is_write, &expected_before);
        ASSERT_EQ(depth, expected) << "step " << step;
        if (depth != 0) {
            ASSERT_TRUE(before == expected_before) << "step " << step;
        }
        if (rng.bernoulli(0.002)) {
            SCOPED_TRACE(testing::Message() << "step " << step);
            expectSameStacks(stack, oracle);
            if (testing::Test::HasFatalFailure())
                return;
            for (int probe = 0; probe < 64; ++probe) {
                const std::uint64_t other = probe_rng.uniformInt(universe + 8);
                const Addr other_line = kBase + other * 64;
                ASSERT_EQ(stack.contains(other % sets, other_line),
                          oracle.contains(other % sets, other_line))
                    << "line " << other;
            }
        }
    }
    expectSameStacks(stack, oracle);
}

TEST(LruStack, MatchesNaiveOracle)
{
    // Bounds up to kMaxRowBound are rows; the two deeper ones keep the
    // bounded tree layout, and its eviction, under the same oracle.
    const std::vector<std::uint64_t> bounds = {
        1, 2, 7, 16, LruStack::kMaxRowBound, LruStack::kMaxRowBound + 1, 64};
    std::uint64_t seed = 1;
    for (const std::uint64_t sets : {1u, 4u, 64u}) {
        for (const std::uint64_t bound : bounds) {
            runDifferential(sets, bound, seed++);
            if (HasFatalFailure())
                return;
        }
    }
    runDifferential(1, LruStack::kUnbounded, seed);
}

TEST(LruStack, RowAndTreeMeetAtDepthK)
{
    constexpr std::uint64_t k = LruStack::kTreeRowLines;
    const auto lineOf = [](std::uint64_t i) { return Addr{0x1000 + 64 * i}; };

    // Depths K (the row's last slot), K + 1 and K + 2 (the tree's top
    // two lines): lines 1..K+2 touched in order put line i at depth
    // K + 3 - i, and re-touching lines 3, 2, 1 keeps each at that depth.
    LruStack stack(1);
    for (std::uint64_t i = 1; i <= k + 2; ++i)
        EXPECT_EQ(stack.touch(0, lineOf(i), i % 2 == 0), 0u);
    for (std::uint64_t i = 3; i >= 1; --i) {
        LruLine before;
        EXPECT_EQ(stack.touch(0, lineOf(i), false, &before), k + 3 - i);
        EXPECT_TRUE(before == (LruLine{lineOf(i), 0, i % 2 == 0}))
            << "line " << i;
    }

    // The dirty rule across the boundary: a written line read back at
    // depth K + 3 is dirty from K + 3 lines on.
    LruStack dirty(1);
    dirty.touch(0, lineOf(0), true);
    for (std::uint64_t i = 1; i <= k + 2; ++i)
        dirty.touch(0, lineOf(i), false);
    EXPECT_EQ(dirty.touch(0, lineOf(0), false), k + 3);
    std::vector<LruLine> walked;
    dirty.forEachMru(0, [&](const LruLine &line) { walked.push_back(line); });
    ASSERT_EQ(walked.size(), k + 3);
    EXPECT_EQ(walked.front().lineAddr, lineOf(0));
    EXPECT_EQ(LruStack::dirtyFrom(walked.front()), k + 3);

    // Tree eviction: a full set bounded just past the rows evicts its
    // LRU line from the tree, while the row's LRU line spills in.
    constexpr std::uint64_t bound = LruStack::kMaxRowBound + 1;
    LruStack bounded(1, bound);
    for (std::uint64_t i = 1; i <= bound; ++i)
        bounded.touch(0, lineOf(i), false);
    const Addr spilled = lineOf(bound - k + 1);
    EXPECT_EQ(bounded.touch(0, lineOf(bound + 1), false), 0u);
    EXPECT_EQ(bounded.size(), bound);
    EXPECT_FALSE(bounded.contains(0, lineOf(1)));
    EXPECT_TRUE(bounded.contains(0, spilled));
    EXPECT_EQ(bounded.touch(0, spilled, false), k + 1);

    // clear() empties the row and the tree alike.
    stack.clear();
    StackOracle oracle(1, LruStack::kUnbounded);
    LruLine ignored;
    EXPECT_EQ(stack.touch(0, lineOf(1), false), 0u);
    oracle.touch(0, lineOf(1), false, &ignored);
    for (std::uint64_t i = 0; i < k + 5; ++i) {
        const Addr line = lineOf((i * 7) % (k + 2));
        const bool is_write = i % 3 == 0;
        EXPECT_EQ(stack.touch(0, line, is_write),
                  oracle.touch(0, line, is_write, &ignored))
            << "touch " << i;
    }
    expectSameStacks(stack, oracle);
}

TEST(LruStack, DirtyFromFollowsTheWriteAndDepthHistory)
{
    EXPECT_EQ(LruStack::dirtyFrom({0x40, 0, false}), LruStack::kClean);
    EXPECT_EQ(LruStack::dirtyFrom({0x40, 9, false}), LruStack::kClean);
    EXPECT_EQ(LruStack::dirtyFrom({0x40, 0, true}), 1u);
    EXPECT_EQ(LruStack::dirtyFrom({0x40, 5, true}), 5u);
}

// --- set-associative stack processing -------------------------------

/** Depth of every line touch of @p trace, with line-to-set mapping. */
std::vector<std::uint64_t>
touchDepths(const Trace &trace, LruStack &stack, std::uint32_t line_bytes)
{
    std::vector<std::uint64_t> depths;
    for (const MemoryRef &ref : trace) {
        const Addr first = alignDown(ref.addr, line_bytes);
        const Addr last = alignDown(ref.addr + ref.size - 1, line_bytes);
        for (Addr line = first;; line += line_bytes) {
            depths.push_back(stack.touch(
                (line / line_bytes) % stack.setCount(), line,
                ref.kind == AccessKind::Write));
            if (line == last)
                break;
        }
    }
    return depths;
}

/** Line fetches of an LRU cache with @p ways ways per set. */
std::uint64_t
missesAt(const std::vector<std::uint64_t> &depths, std::uint64_t ways)
{
    return static_cast<std::uint64_t>(
        std::count_if(depths.begin(), depths.end(), [&](std::uint64_t d) {
            return d == 0 || d > ways;
        }));
}

TEST(SetAssocStack, MatchesDirectSimulationForEveryWayCount)
{
    const Trace t = generateTrace(*findTraceProfile("VCCOM"), 40000);
    // 64 sets of 16-byte lines, bounded at the largest way count: one
    // pass gives the line fetches of every way count up to it.
    LruStack stack(64, 8);
    const std::vector<std::uint64_t> depths = touchDepths(t, stack, 16);
    for (std::uint32_t ways : {1u, 2u, 4u, 8u}) {
        CacheConfig cfg = table1Config(
            static_cast<std::uint64_t>(64) * 16 * ways);
        cfg.associativity = ways; // same 64 sets at every way count
        Cache cache(cfg);
        const CacheStats s = runTrace(t, cache);
        EXPECT_EQ(missesAt(depths, ways), s.demandFetches)
            << ways << " ways";
    }
}

TEST(SetAssocStack, SingleSetEqualsFullyAssociativeAnalyzer)
{
    const Trace t = generateTrace(*findTraceProfile("ZOD"), 30000);
    // One set bounded at 256 lines against the unbounded analyzer.
    LruStack single_set(1, 256);
    const std::vector<std::uint64_t> depths = touchDepths(t, single_set, 16);
    StackAnalyzer full(16);
    full.accessAll(t);
    for (std::uint64_t lines : {16u, 64u, 256u}) {
        EXPECT_EQ(missesAt(depths, lines), full.missCountFor(lines * 16));
    }
}

} // namespace
} // namespace cachelab
