/**
 * @file
 * Differential test of Cache against a naive model: per set, a plain
 * list of resident lines in LRU or FIFO order.
 *
 * A seeded stream of reads, ifetches, writes, 1-3-line references and
 * purges runs through both, at associativities on either side of
 * Cache::kMaxScanWays (sets scanned for a line, or a line index), under
 * copy-back and write-through, with demand fetch and prefetch-always.
 * After every reference the hit/miss outcome, every statistic, and the
 * residency and dirty bit of each line the reference touched must
 * agree.  Half-way through, the cache's state is imported into a
 * second cache that first ran another stream (so its lookup hints name
 * other lines), and both continue in lockstep with the model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "util/bits.hh"
#include "util/random.hh"

namespace cachelab
{
namespace
{

/** The naive model: per set, a list of lines, MRU (LRU) or newest
 *  (FIFO) first. */
class NaiveCache
{
  public:
    explicit NaiveCache(const CacheConfig &config)
        : config_(config), lru_(config.replacement.name == "lru"),
          assoc_(config.effectiveAssociativity()),
          sets_(config.setCount())
    {
        lists_.resize(sets_);
    }

    bool
    access(const MemoryRef &ref)
    {
        const auto k = static_cast<std::size_t>(ref.kind);
        ++stats.accesses[k];
        const Addr first = alignDown(ref.addr, config_.lineBytes);
        const Addr last =
            alignDown(ref.addr + ref.size - 1, config_.lineBytes);
        bool hit = true;
        for (Addr line = first;; line += config_.lineBytes) {
            hit &= touch(line, ref);
            if (line == last)
                break;
        }
        if (!hit)
            ++stats.misses[k];
        const Addr succ = last + config_.lineBytes;
        if (config_.fetchPolicy == FetchPolicy::PrefetchAlways &&
            succ > last && find(succ) == nullptr)
            fill(succ, /*prefetched=*/true);
        return hit;
    }

    void
    purge()
    {
        for (std::vector<Line> &list : lists_) {
            for (const Line &line : list) {
                ++stats.purgePushes;
                if (line.dirty) {
                    ++stats.dirtyPurgePushes;
                    stats.bytesToMemory += config_.lineBytes;
                }
            }
            list.clear();
        }
        ++stats.purges;
    }

    bool contains(Addr line) const { return find(line) != nullptr; }

    bool
    isDirty(Addr line) const
    {
        const Line *found = find(line);
        return found != nullptr && found->dirty;
    }

    CacheStats stats;

  private:
    struct Line
    {
        Addr addr;
        bool dirty;
    };

    std::vector<Line> &
    listOf(Addr line)
    {
        return lists_[(line / config_.lineBytes) % sets_];
    }

    const Line *
    find(Addr line) const
    {
        const auto &list = lists_[(line / config_.lineBytes) % sets_];
        for (const Line &l : list)
            if (l.addr == line)
                return &l;
        return nullptr;
    }

    bool
    touch(Addr line, const MemoryRef &ref)
    {
        std::vector<Line> &list = listOf(line);
        auto it = std::find_if(list.begin(), list.end(),
                               [&](const Line &l) { return l.addr == line; });
        const bool hit = it != list.end();
        if (hit && lru_)
            std::rotate(list.begin(), it, it + 1);
        if (!hit)
            fill(line, /*prefetched=*/false);
        if (ref.kind == AccessKind::Write) {
            if (config_.writePolicy == WritePolicy::CopyBack) {
                std::find_if(list.begin(), list.end(), [&](const Line &l) {
                    return l.addr == line;
                })->dirty = true;
            } else {
                stats.bytesToMemory += ref.size;
                ++stats.writeThroughs;
            }
        }
        return hit;
    }

    void
    fill(Addr line, bool prefetched)
    {
        std::vector<Line> &list = listOf(line);
        if (list.size() == assoc_) {
            ++stats.replacementPushes;
            if (list.back().dirty) {
                ++stats.dirtyReplacementPushes;
                stats.bytesToMemory += config_.lineBytes;
            }
            list.pop_back();
        }
        list.insert(list.begin(), Line{line, false});
        stats.bytesFromMemory += config_.lineBytes;
        if (prefetched)
            ++stats.prefetchFetches;
        else
            ++stats.demandFetches;
    }

    CacheConfig config_;
    bool lru_;
    std::uint64_t assoc_;
    std::uint64_t sets_;
    std::vector<std::vector<Line>> lists_;
};

bool
sameStats(const CacheStats &a, const CacheStats &b)
{
    return a.accesses == b.accesses && a.misses == b.misses &&
           a.demandFetches == b.demandFetches &&
           a.prefetchFetches == b.prefetchFetches &&
           a.bytesFromMemory == b.bytesFromMemory &&
           a.bytesToMemory == b.bytesToMemory &&
           a.replacementPushes == b.replacementPushes &&
           a.dirtyReplacementPushes == b.dirtyReplacementPushes &&
           a.purgePushes == b.purgePushes &&
           a.dirtyPurgePushes == b.dirtyPurgePushes &&
           a.writeThroughs == b.writeThroughs && a.purges == b.purges;
}

/** One element of the stream: a reference, or a purge. */
struct Step
{
    bool purge = false;
    MemoryRef ref;
};

/**
 * A seeded stream over a working set of about three caches' worth of
 * lines, mostly near the previous reference, with a share of
 * references in the last lines of the address space (where the
 * prefetch successor wraps) and a purge about every 700 steps.
 */
std::vector<Step>
makeStream(std::uint64_t seed, std::size_t steps, const CacheConfig &config)
{
    Rng rng(seed);
    const std::uint64_t line = config.lineBytes;
    const std::uint64_t span = 3 * config.lineCount() * line;
    const Addr low = 0x40000;
    const Addr top_region = ~Addr{0} - 8 * line + 1;
    Addr hot = low;
    std::vector<Step> stream;
    stream.reserve(steps);
    for (std::size_t i = 0; i < steps; ++i) {
        Step step;
        if (rng.uniformInt(700) == 0) {
            step.purge = true;
            stream.push_back(step);
            continue;
        }
        // 1 to 2 * line + 1 bytes spans 1 to 3 lines.
        step.ref.size = static_cast<std::uint32_t>(
            rng.uniformRange(1, 2 * line + 1));
        const std::uint64_t pick = rng.uniformInt(100);
        if (pick < 5) {
            step.ref.addr =
                top_region + rng.uniformInt(8 * line - step.ref.size + 1);
        } else {
            if (pick < 25)
                hot = low + rng.uniformInt(span);
            step.ref.addr = hot + rng.uniformInt(4 * line);
        }
        const std::uint64_t kind = rng.uniformInt(10);
        step.ref.kind = kind < 3   ? AccessKind::IFetch
                        : kind < 7 ? AccessKind::Read
                                   : AccessKind::Write;
        stream.push_back(step);
    }
    return stream;
}

/**
 * Apply @p step to @p cache and @p model and check that they agree:
 * the outcome, the statistics, and each touched line's residency and
 * dirty bit (the prefetch successor's too).
 */
::testing::AssertionResult
applyAndCompare(Cache &cache, NaiveCache &model, const Step &step,
                std::size_t at)
{
    if (step.purge) {
        cache.purge();
        model.purge();
    } else {
        const bool hit = cache.access(step.ref);
        if (hit != model.access(step.ref))
            return ::testing::AssertionFailure()
                   << "step " << at << ": cache " << (hit ? "hit" : "missed");
        const std::uint32_t line = cache.config().lineBytes;
        const Addr first = alignDown(step.ref.addr, line);
        const Addr last = alignDown(step.ref.addr + step.ref.size - 1, line);
        for (Addr a = first;; a += line) {
            if (cache.contains(a) != model.contains(a) ||
                cache.isDirty(a) != model.isDirty(a))
                return ::testing::AssertionFailure()
                       << "step " << at << ": line " << a << " resident "
                       << cache.contains(a) << " dirty " << cache.isDirty(a);
            if (a == last) {
                if (a + line > a && cache.contains(a + line) !=
                                        model.contains(a + line))
                    return ::testing::AssertionFailure()
                           << "step " << at << ": successor of " << a;
                break;
            }
        }
    }
    if (!sameStats(cache.stats(), model.stats))
        return ::testing::AssertionFailure()
               << "step " << at << ": statistics differ";
    return ::testing::AssertionSuccess();
}

void
expectSameState(const CacheState &a, const CacheState &b)
{
    EXPECT_EQ(a.lines, b.lines);
    EXPECT_EQ(a.recency, b.recency);
    EXPECT_EQ(a.rngState, b.rngState);
    EXPECT_EQ(a.clock, b.clock);
    EXPECT_TRUE(sameStats(a.stats, b.stats));
}

struct Geometry
{
    std::uint32_t assoc; ///< 0 = fully associative
    std::uint64_t sizeBytes;
    const char *policy;
};

std::string
nameOf(const Geometry &g)
{
    return std::string(g.policy) + "_" +
           (g.assoc == 0 ? std::string("full") + std::to_string(g.sizeBytes)
                         : "assoc" + std::to_string(g.assoc));
}

void
PrintTo(const Geometry &g, std::ostream *os)
{
    *os << nameOf(g);
}

std::string
geometryName(const ::testing::TestParamInfo<Geometry> &info)
{
    return nameOf(info.param);
}

class CacheOracle : public ::testing::TestWithParam<Geometry>
{};

TEST_P(CacheOracle, AgreesWithNaiveModelAcrossImport)
{
    const Geometry &g = GetParam();
    for (const WritePolicy write :
         {WritePolicy::CopyBack, WritePolicy::WriteThrough}) {
        for (const FetchPolicy fetch :
             {FetchPolicy::Demand, FetchPolicy::PrefetchAlways}) {
            CacheConfig config;
            config.sizeBytes = g.sizeBytes;
            config.lineBytes = 16;
            config.associativity = g.assoc;
            config.replacement = policySpec(g.policy);
            config.writePolicy = write;
            config.fetchPolicy = fetch;
            SCOPED_TRACE(config.describe());

            const std::uint64_t seed =
                0xc0ffee + g.assoc * 131 + g.sizeBytes +
                static_cast<std::uint64_t>(write) * 7 +
                static_cast<std::uint64_t>(fetch) * 3;
            const std::vector<Step> stream = makeStream(seed, 12000, config);
            Cache cache(config);
            NaiveCache model(config);
            const std::size_t half = stream.size() / 2;
            for (std::size_t i = 0; i < half; ++i)
                ASSERT_TRUE(applyAndCompare(cache, model, stream[i], i));

            // The imported cache first runs another stream, so its
            // hints name ways that hold other lines after the import.
            Cache imported(config);
            for (const Step &step : makeStream(seed + 1, 3000, config))
                if (step.purge)
                    imported.purge();
                else
                    imported.access(step.ref);
            imported.importState(cache.exportState());

            NaiveCache twin = model;
            for (std::size_t i = half; i < stream.size(); ++i) {
                ASSERT_TRUE(applyAndCompare(cache, model, stream[i], i));
                ASSERT_TRUE(applyAndCompare(imported, twin, stream[i], i));
            }
            expectSameState(cache.exportState(), imported.exportState());
        }
    }
}

// 2048 B of 16 B lines is 128 lines: up to 16 ways the sets are
// scanned; 32 and 64 ways and the 128-way fully associative cache use
// the index; the 256 B fully associative cache is one scanned 16-way
// set.
static_assert(Cache::kMaxScanWays == 16,
              "the geometries below straddle the scan bound");

INSTANTIATE_TEST_SUITE_P(
    BothLookups, CacheOracle,
    ::testing::Values(Geometry{1, 2048, "lru"}, Geometry{2, 2048, "lru"},
                      Geometry{4, 2048, "lru"}, Geometry{8, 2048, "lru"},
                      Geometry{16, 2048, "lru"}, Geometry{32, 2048, "lru"},
                      Geometry{64, 2048, "lru"}, Geometry{0, 2048, "lru"},
                      Geometry{0, 256, "lru"}, Geometry{1, 2048, "fifo"},
                      Geometry{2, 2048, "fifo"}, Geometry{4, 2048, "fifo"},
                      Geometry{8, 2048, "fifo"}, Geometry{16, 2048, "fifo"},
                      Geometry{32, 2048, "fifo"}, Geometry{64, 2048, "fifo"},
                      Geometry{0, 2048, "fifo"}, Geometry{0, 256, "fifo"}),
    geometryName);

} // namespace
} // namespace cachelab
