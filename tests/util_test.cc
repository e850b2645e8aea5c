/**
 * @file
 * Unit tests for src/util: bit helpers, PRNG, formatting, CSV, and the
 * flat address index against std::unordered_map.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "util/bits.hh"
#include "util/csv.hh"
#include "util/flat_map.hh"
#include "util/format.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace cachelab
{
namespace
{

TEST(Bits, PowerOfTwoDetection)
{
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(2));
    EXPECT_FALSE(isPowerOfTwo(3));
    EXPECT_TRUE(isPowerOfTwo(1ULL << 40));
    EXPECT_FALSE(isPowerOfTwo((1ULL << 40) + 1));
}

TEST(Bits, FloorLog2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(1024), 10u);
    EXPECT_EQ(floorLog2(1ULL << 63), 63u);
}

TEST(Bits, AlignDownAndUp)
{
    EXPECT_EQ(alignDown(0x1234, 16), 0x1230u);
    EXPECT_EQ(alignDown(0x1230, 16), 0x1230u);
    EXPECT_EQ(alignUp(0x1234, 16), 0x1240u);
    EXPECT_EQ(alignUp(0x1240, 16), 0x1240u);
    EXPECT_EQ(alignDown(0xffff, 1), 0xffffu);
}

TEST(Bits, RoundUpPowerOfTwo)
{
    EXPECT_EQ(roundUpPowerOfTwo(1), 1u);
    EXPECT_EQ(roundUpPowerOfTwo(3), 4u);
    EXPECT_EQ(roundUpPowerOfTwo(4), 4u);
    EXPECT_EQ(roundUpPowerOfTwo(1000), 1024u);
}

TEST(Rng, DeterministicPerSeed)
{
    Rng a(42), b(42), c(43);
    for (int i = 0; i < 100; ++i) {
        const auto va = a();
        EXPECT_EQ(va, b());
        (void)c;
    }
    Rng d(42);
    Rng e(43);
    int differing = 0;
    for (int i = 0; i < 100; ++i)
        differing += d() != e();
    EXPECT_GT(differing, 90);
}

TEST(Rng, UniformIntInBounds)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.uniformInt(17), 17u);
}

TEST(Rng, UniformIntCoversRange)
{
    Rng rng(11);
    std::array<int, 8> counts{};
    for (int i = 0; i < 8000; ++i)
        ++counts[rng.uniformInt(8)];
    for (int c : counts) {
        EXPECT_GT(c, 800);
        EXPECT_LT(c, 1200);
    }
}

TEST(Rng, UniformRealInUnitInterval)
{
    Rng rng(3);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniformReal();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BernoulliMatchesProbability)
{
    Rng rng(5);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += rng.bernoulli(0.3);
    EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
}

TEST(Rng, GeometricMeanApproximatesTarget)
{
    Rng rng(9);
    const double target = 12.0;
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.geometric(target));
    EXPECT_NEAR(sum / n, target, target * 0.05);
}

TEST(Rng, GeometricZeroMean)
{
    Rng rng(1);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.geometric(0.0), 0u);
}

TEST(Rng, ZipfFavorsLowIndices)
{
    Rng rng(13);
    std::uint64_t low = 0, high = 0;
    for (int i = 0; i < 10000; ++i) {
        const auto v = rng.zipf(100, 1.0);
        ASSERT_LT(v, 100u);
        if (v < 10)
            ++low;
        if (v >= 90)
            ++high;
    }
    EXPECT_GT(low, 4 * high);
}

TEST(ZipfSampler, MatchesDirectZipfDistribution)
{
    ZipfSampler sampler(50, 0.8);
    Rng rng(17);
    std::vector<int> counts(50, 0);
    for (int i = 0; i < 50000; ++i)
        ++counts[sampler(rng)];
    // Monotone-ish decay: first index much more popular than last.
    EXPECT_GT(counts[0], counts[49] * 5);
    // All indices reachable in a healthy sample.
    int reached = 0;
    for (int c : counts)
        reached += c > 0;
    EXPECT_GT(reached, 45);
}

TEST(ZipfSampler, ThetaZeroIsUniform)
{
    ZipfSampler sampler(10, 0.0);
    Rng rng(19);
    std::vector<int> counts(10, 0);
    for (int i = 0; i < 20000; ++i)
        ++counts[sampler(rng)];
    for (int c : counts) {
        EXPECT_GT(c, 1600);
        EXPECT_LT(c, 2400);
    }
}

TEST(Rng, SplitProducesIndependentStream)
{
    Rng a(123);
    Rng b = a.split();
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a() == b();
    EXPECT_LT(same, 5);
}

TEST(Format, FixedDecimals)
{
    EXPECT_EQ(formatFixed(3.14159, 2), "3.14");
    EXPECT_EQ(formatFixed(2.0, 0), "2");
    EXPECT_EQ(formatFixed(-1.5, 1), "-1.5");
}

TEST(Format, Percent)
{
    EXPECT_EQ(formatPercent(0.1234), "12.34%");
    EXPECT_EQ(formatPercent(1.0, 0), "100%");
}

TEST(Format, SizeSuffixes)
{
    EXPECT_EQ(formatSize(32), "32");
    EXPECT_EQ(formatSize(1024), "1K");
    EXPECT_EQ(formatSize(16384), "16K");
    EXPECT_EQ(formatSize(1048576), "1M");
    EXPECT_EQ(formatSize(1500), "1500");
}

TEST(Format, Padding)
{
    EXPECT_EQ(padLeft("ab", 4), "  ab");
    EXPECT_EQ(padRight("ab", 4), "ab  ");
    EXPECT_EQ(padLeft("abcd", 2), "abcd");
}

TEST(Format, ThousandsSeparators)
{
    EXPECT_EQ(formatCount(0), "0");
    EXPECT_EQ(formatCount(999), "999");
    EXPECT_EQ(formatCount(1000), "1,000");
    EXPECT_EQ(formatCount(250000), "250,000");
    EXPECT_EQ(formatCount(1234567890), "1,234,567,890");
}

TEST(Csv, WritesHeaderAndRows)
{
    std::ostringstream os;
    CsvWriter csv(os);
    csv.header({"name", "value"});
    csv.field(std::string("plain")).field(std::uint64_t{42});
    csv.endRow();
    csv.field(std::string("x,y")).field(1.5, 2);
    csv.endRow();
    EXPECT_EQ(os.str(), "name,value\nplain,42\n\"x,y\",1.50\n");
    EXPECT_EQ(csv.rowCount(), 2u);
}

TEST(Csv, EscapesQuotes)
{
    std::ostringstream os;
    CsvWriter csv(os);
    csv.field(std::string("say \"hi\""));
    csv.endRow();
    EXPECT_EQ(os.str(), "\"say \"\"hi\"\"\"\n");
}

TEST(Logging, EnableDisableRoundTrip)
{
    const bool before = loggingEnabled();
    setLoggingEnabled(false);
    EXPECT_FALSE(loggingEnabled());
    setLoggingEnabled(true);
    EXPECT_TRUE(loggingEnabled());
    setLoggingEnabled(before);
}

// ---------------------------------------------------------------- //
//  AddrIndex against std::unordered_map                            //
// ---------------------------------------------------------------- //

constexpr std::uint64_t kFibonacci = 0x9e3779b97f4a7c15ULL;

/**
 * A key whose Fibonacci product has @p high_bits as its top
 * @p bit_count bits (and @p low below them), so its home slot is known
 * at every table of up to 2^bit_count slots.  The product is inverted
 * through kFibonacci's inverse mod 2^64.
 */
std::uint64_t
keyWithProduct(std::uint64_t high_bits, unsigned bit_count,
               std::uint64_t low)
{
    std::uint64_t inverse = kFibonacci; // Newton: 5 steps reach 64 bits
    for (int i = 0; i < 5; ++i)
        inverse *= 2 - kFibonacci * inverse;
    const std::uint64_t product = (high_bits << (64 - bit_count)) |
        (low & (~std::uint64_t{0} >> bit_count));
    return product * inverse;
}

/** Every key of @p keys reads the same from @p index and @p model. */
void
expectSameContents(const AddrIndex &index,
                   const std::unordered_map<std::uint64_t, std::uint32_t>
                       &model,
                   const std::vector<std::uint64_t> &keys)
{
    ASSERT_EQ(index.size(), model.size());
    for (std::uint64_t key : keys) {
        const auto it = model.find(key);
        const std::uint32_t want =
            it == model.end() ? AddrIndex::kEmpty : it->second;
        ASSERT_EQ(index.find(key), want) << std::hex << key;
        ASSERT_EQ(index.contains(key), it != model.end());
    }
}

TEST(AddrIndex, KeysSharingTheLastHomeSlotWrapOnDelete)
{
    // Five keys whose home is slot 15 of the initial 16 fill slots 15,
    // 0, 1, 2 and 3; a key at home 0 (key 0 itself) lands in slot 4.
    // Taking the run's first key shifts the rest back across the end.
    std::vector<std::uint64_t> keys;
    for (std::uint64_t i = 0; i < 5; ++i)
        keys.push_back(keyWithProduct(0xf, 4, i * 0x1234567 + 1));
    keys.push_back(0);
    keys.push_back(~std::uint64_t{0});
    for (std::size_t first = 0; first < keys.size(); ++first) {
        AddrIndex index;
        std::unordered_map<std::uint64_t, std::uint32_t> model;
        for (std::size_t i = 0; i < keys.size(); ++i) {
            ASSERT_TRUE(index.insert(keys[i], std::uint32_t(i)));
            model.emplace(keys[i], std::uint32_t(i));
        }
        EXPECT_FALSE(index.insert(keys[0], 99)); // present: unchanged
        // Take every key, starting at a different one each round.
        for (std::size_t n = 0; n < keys.size(); ++n) {
            const std::uint64_t key = keys[(first + n) % keys.size()];
            EXPECT_EQ(index.take(key), model.at(key));
            model.erase(key);
            EXPECT_EQ(index.take(key), AddrIndex::kEmpty);
            expectSameContents(index, model, keys);
        }
    }
}

TEST(AddrIndex, MatchesUnorderedMapOnRandomOperations)
{
    // A key pool with 0 and ~0, a cluster that shares one home slot
    // (the last) at every table size up to 2^20 slots, a band homed
    // near the end so runs wrap, line-aligned keys and random keys.
    std::vector<std::uint64_t> keys{0, ~std::uint64_t{0}};
    Rng rng(20260917);
    for (std::uint64_t i = 0; i < 40; ++i)
        keys.push_back(keyWithProduct(0xfffff, 20, rng()));
    for (std::uint64_t i = 0; i < 200; ++i)
        keys.push_back(keyWithProduct(0xf, 4, rng()));
    for (std::uint64_t i = 0; i < 800; ++i)
        keys.push_back(i * 64);
    for (std::uint64_t i = 0; i < 1200; ++i)
        keys.push_back(rng());

    AddrIndex index; // starts at 16 slots and doubles as it fills
    std::unordered_map<std::uint64_t, std::uint32_t> model;
    std::size_t clears = 0;
    for (std::uint32_t op = 0; op < 100000; ++op) {
        const std::uint64_t key = keys[rng.uniformInt(keys.size())];
        const auto it = model.find(key);
        const std::uint64_t pick = rng.uniformInt(1000);
        if (pick < 350) {
            ASSERT_EQ(index.insert(key, op), it == model.end());
            model.emplace(key, op);
        } else if (pick < 650) {
            const std::uint32_t want =
                it == model.end() ? AddrIndex::kEmpty : it->second;
            ASSERT_EQ(index.take(key), want) << "op " << op;
            model.erase(key);
        } else if (pick < 850) {
            const std::uint32_t want =
                it == model.end() ? AddrIndex::kEmpty : it->second;
            ASSERT_EQ(index.find(key), want) << "op " << op;
        } else if (pick < 999) {
            index.assign(key, op);
            model[key] = op;
        } else if (rng.uniformInt(20) == 0) {
            index.clear();
            model.clear();
            ++clears;
        } else {
            index.reserve(model.size() + rng.uniformInt(512));
        }
        ASSERT_EQ(index.size(), model.size()) << "op " << op;
        if (op % 5000 == 0)
            expectSameContents(index, model, keys);
    }
    expectSameContents(index, model, keys);
    EXPECT_GT(clears, 0u);
}

} // namespace
} // namespace cachelab
