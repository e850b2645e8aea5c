/**
 * @file
 * Property tests for the Fenwick-tree StackAnalyzer: on randomized
 * traces (multi-line references, writes, address reuse at many
 * scales) it must agree exactly with the original O(depth)
 * move-to-front list walk, kept here as an executable reference, and
 * its single-pass table1StatsFor() must reproduce a real Cache run
 * field for field.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <unordered_map>
#include <vector>

#include "cache/cache.hh"
#include "cache/stack_analysis.hh"
#include "sim/experiments.hh"
#include "sim/run.hh"
#include "util/bits.hh"
#include "util/random.hh"

namespace cachelab
{
namespace
{

/**
 * The pre-Fenwick StackAnalyzer: an explicit MRU-first vector walked
 * and spliced per touch.  O(depth) per access, but obviously correct —
 * the property tests below hold the production analyzer to exact
 * agreement with it.
 */
class NaiveStackAnalyzer
{
  public:
    explicit NaiveStackAnalyzer(std::uint32_t line_bytes)
        : lineBytes_(line_bytes)
    {
    }

    void
    access(const MemoryRef &ref)
    {
        ++refs_;
        const Addr first = alignDown(ref.addr, lineBytes_);
        const Addr last = alignDown(ref.addr + ref.size - 1, lineBytes_);
        std::uint64_t worst = 1;
        bool any_cold = false;
        for (Addr line = first;; line += lineBytes_) {
            const std::uint64_t d = touchLine(line);
            if (d == 0)
                any_cold = true;
            else
                worst = std::max(worst, d);
            if (line == last)
                break;
        }
        if (any_cold) {
            ++refColdOrDeep_;
        } else {
            if (worst > refWorst_.size())
                refWorst_.resize(worst, 0);
            ++refWorst_[worst - 1];
        }
    }

    std::uint64_t refCount() const { return refs_; }
    std::uint64_t coldCount() const { return cold_; }
    const std::vector<std::uint64_t> &distanceCounts() const
    {
        return distances_;
    }

    std::uint64_t
    missCountFor(std::uint64_t size_bytes) const
    {
        const std::uint64_t lines = size_bytes / lineBytes_;
        std::uint64_t misses = cold_;
        for (std::uint64_t d = lines + 1; d <= distances_.size(); ++d)
            misses += distances_[d - 1];
        return misses;
    }

    double
    refMissRatioFor(std::uint64_t size_bytes) const
    {
        if (refs_ == 0)
            return 0.0;
        const std::uint64_t lines = size_bytes / lineBytes_;
        std::uint64_t misses = refColdOrDeep_;
        for (std::uint64_t d = lines + 1; d <= refWorst_.size(); ++d)
            misses += refWorst_[d - 1];
        return static_cast<double>(misses) / static_cast<double>(refs_);
    }

    double
    meanDistance() const
    {
        std::uint64_t n = 0;
        double sum = 0.0;
        for (std::uint64_t d = 1; d <= distances_.size(); ++d) {
            n += distances_[d - 1];
            sum += static_cast<double>(d) *
                static_cast<double>(distances_[d - 1]);
        }
        return n ? sum / static_cast<double>(n) : 0.0;
    }

  private:
    std::uint64_t
    touchLine(Addr line_addr)
    {
        if (!present_.contains(line_addr)) {
            present_.emplace(line_addr, 1);
            stack_.insert(stack_.begin(), line_addr);
            ++cold_;
            return 0;
        }
        const auto it = std::find(stack_.begin(), stack_.end(), line_addr);
        const auto depth =
            static_cast<std::uint64_t>(it - stack_.begin()) + 1;
        stack_.erase(it);
        stack_.insert(stack_.begin(), line_addr);
        if (depth > distances_.size())
            distances_.resize(depth, 0);
        ++distances_[depth - 1];
        return depth;
    }

    std::uint32_t lineBytes_;
    std::uint64_t refs_ = 0;
    std::uint64_t cold_ = 0;
    std::uint64_t refColdOrDeep_ = 0;
    std::vector<std::uint64_t> distances_;
    std::vector<std::uint64_t> refWorst_;
    std::vector<Addr> stack_;
    std::unordered_map<Addr, char> present_;
};

/**
 * A randomized trace exercising what the corpus generators do not:
 * straddling multi-line references, heavy immediate reuse, and
 * occasional far jumps that force deep stack distances.
 */
Trace
randomTrace(std::uint64_t seed, std::uint64_t refs,
            std::uint64_t footprint_bytes)
{
    Rng rng(seed);
    Trace t("property");
    std::vector<Addr> recent;
    for (std::uint64_t i = 0; i < refs; ++i) {
        Addr addr;
        if (!recent.empty() && rng.bernoulli(0.6)) {
            // Revisit somewhere near a recent address.
            addr = recent[rng.uniformInt(recent.size())] +
                rng.uniformInt(64);
        } else {
            addr = rng.uniformInt(footprint_bytes);
        }
        const auto size =
            static_cast<std::uint32_t>(rng.uniformRange(1, 40));
        const double kind_draw = rng.uniformReal();
        const AccessKind kind = kind_draw < 0.5
            ? AccessKind::IFetch
            : (kind_draw < 0.8 ? AccessKind::Read : AccessKind::Write);
        t.append(addr, size, kind);
        recent.push_back(addr);
        if (recent.size() > 32)
            recent.erase(recent.begin());
    }
    return t;
}

class PropertySeeds : public ::testing::TestWithParam<std::uint64_t>
{
};

INSTANTIATE_TEST_SUITE_P(Seeds, PropertySeeds,
                         ::testing::Values(1, 9, 77, 123, 9001));

TEST_P(PropertySeeds, FenwickMatchesNaiveReference)
{
    // Small footprint / line size maximizes collisions, reuse and
    // Fenwick compactions (capacity 1024 timestamps).
    const Trace t = randomTrace(GetParam(), 6000, 1 << 14);

    StackAnalyzer fast(16);
    NaiveStackAnalyzer naive(16);
    for (const MemoryRef &ref : t) {
        fast.access(ref);
        naive.access(ref);
    }

    EXPECT_EQ(fast.refCount(), naive.refCount());
    EXPECT_EQ(fast.coldCount(), naive.coldCount());
    EXPECT_EQ(fast.distanceCounts(), naive.distanceCounts());
    EXPECT_DOUBLE_EQ(fast.meanDistance(), naive.meanDistance());
    for (std::uint64_t size : {16u, 64u, 256u, 1024u, 4096u, 65536u}) {
        EXPECT_EQ(fast.missCountFor(size), naive.missCountFor(size))
            << "size " << size;
        EXPECT_DOUBLE_EQ(fast.refMissRatioFor(size),
                         naive.refMissRatioFor(size))
            << "size " << size;
    }
}

TEST_P(PropertySeeds, FenwickMatchesNaiveAcrossLineSizes)
{
    const Trace t = randomTrace(GetParam() * 1337, 3000, 1 << 12);
    for (std::uint32_t line_bytes : {4u, 16u, 64u}) {
        StackAnalyzer fast(line_bytes);
        NaiveStackAnalyzer naive(line_bytes);
        for (const MemoryRef &ref : t) {
            fast.access(ref);
            naive.access(ref);
        }
        EXPECT_EQ(fast.coldCount(), naive.coldCount())
            << "line " << line_bytes;
        EXPECT_EQ(fast.distanceCounts(), naive.distanceCounts())
            << "line " << line_bytes;
    }
}

TEST_P(PropertySeeds, Table1StatsMatchRealCacheFieldForField)
{
    const Trace t = randomTrace(GetParam() * 29 + 5, 8000, 1 << 15);

    StackAnalyzer analyzer(16);
    analyzer.accessAll(t);

    for (std::uint64_t size :
         {16u, 32u, 128u, 256u, 512u, 2048u, 8192u, 32768u}) {
        Cache cache(table1Config(size));
        const CacheStats real = runTrace(t, cache);
        const CacheStats fast = analyzer.table1StatsFor(size);
        EXPECT_EQ(std::memcmp(&real, &fast, sizeof(CacheStats)), 0)
            << "size " << size << "\n  cache:       " << real.summarize()
            << "\n  single-pass: " << fast.summarize();
    }
}

TEST(StackAnalyzerProperty, CompactionSurvivesLargeFootprint)
{
    // Footprint >> the initial 1024-timestamp capacity forces both
    // in-place renumbering and capacity doubling.
    Trace t("big");
    for (std::uint64_t i = 0; i < 5000; ++i)
        t.append(i * 16, 4, AccessKind::Read);
    for (std::uint64_t i = 0; i < 5000; ++i) // re-touch in order: depth 5000
        t.append(i * 16, 4, AccessKind::Read);

    StackAnalyzer a(16);
    a.accessAll(t);
    EXPECT_EQ(a.coldCount(), 5000u);
    EXPECT_EQ(a.distinctLineCount(), 5000u);
    ASSERT_EQ(a.distanceCounts().size(), 5000u);
    // Every second-round touch found its line at the bottom.
    EXPECT_EQ(a.distanceCounts()[4999], 5000u);
    EXPECT_EQ(a.missCountFor(5000 * 16), 5000u);  // only cold misses
    EXPECT_EQ(a.missCountFor(4999 * 16), 10000u); // one line short
}

} // namespace
} // namespace cachelab
