/**
 * @file
 * Unit tests for src/stats: summaries, histograms, tables.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats/histogram.hh"
#include "stats/summary.hh"
#include "stats/table.hh"

namespace cachelab
{
namespace
{

TEST(Summary, EmptyIsAllZero)
{
    Summary s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 0.0);
    EXPECT_DOUBLE_EQ(s.max(), 0.0);
    EXPECT_DOUBLE_EQ(s.percentile(0.5), 0.0);
}

TEST(Summary, SingleSampleIsDegenerate)
{
    Summary s;
    s.add(7.5);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_DOUBLE_EQ(s.mean(), 7.5);
    EXPECT_DOUBLE_EQ(s.min(), 7.5);
    EXPECT_DOUBLE_EQ(s.max(), 7.5);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    // Sample (n-1) statistics are undefined for one sample; they must
    // degrade to zero rather than divide by zero.
    EXPECT_DOUBLE_EQ(s.sampleVariance(), 0.0);
    EXPECT_DOUBLE_EQ(s.sampleStddev(), 0.0);
    EXPECT_DOUBLE_EQ(s.meanStdError(), 0.0);
    EXPECT_DOUBLE_EQ(s.percentile(0.0), 7.5);
    EXPECT_DOUBLE_EQ(s.percentile(1.0), 7.5);
}

TEST(Summary, SampleVarianceUsesBesselCorrection)
{
    Summary s;
    for (double v : {2.0, 4.0, 6.0})
        s.add(v);
    // Population variance 8/3; sample variance 4.
    EXPECT_NEAR(s.variance(), 8.0 / 3.0, 1e-12);
    EXPECT_NEAR(s.sampleVariance(), 4.0, 1e-12);
    EXPECT_NEAR(s.sampleStddev(), 2.0, 1e-12);
    EXPECT_NEAR(s.meanStdError(), 2.0 / std::sqrt(3.0), 1e-12);
}

TEST(Summary, PercentileBoundaryInterpolation)
{
    Summary s;
    s.add(10.0);
    s.add(20.0);
    // Just inside the boundaries: interpolation between the two
    // samples, never an out-of-range read.
    EXPECT_DOUBLE_EQ(s.percentile(0.0), 10.0);
    EXPECT_DOUBLE_EQ(s.percentile(1.0), 20.0);
    EXPECT_NEAR(s.percentile(0.001), 10.01, 1e-9);
    EXPECT_NEAR(s.percentile(0.999), 19.99, 1e-9);
}

TEST(Summary, MeanAndExtrema)
{
    Summary s;
    for (double v : {4.0, 1.0, 3.0, 2.0})
        s.add(v);
    EXPECT_EQ(s.count(), 4u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.5);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
    EXPECT_DOUBLE_EQ(s.sum(), 10.0);
}

TEST(Summary, VarianceMatchesDefinition)
{
    Summary s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(v);
    // Known example: population variance 4, stddev 2.
    EXPECT_NEAR(s.variance(), 4.0, 1e-12);
    EXPECT_NEAR(s.stddev(), 2.0, 1e-12);
}

TEST(Summary, PaperTable3Aggregate)
{
    // The paper reports mean 0.47 and "standard deviation ... 0.18"
    // over Table 3's dirty-push fractions; feed the printed column and
    // confirm our summary reproduces the paper's aggregates.
    Summary s;
    for (double v : {0.26, 0.23, 0.63, 0.37, 0.49, 0.77, 0.27, 0.56, 0.43,
                     0.35, 0.63, 0.22, 0.48, 0.56, 0.48, 0.80})
        s.add(v);
    EXPECT_NEAR(s.mean(), 0.47, 0.01);
    EXPECT_NEAR(s.stddev(), 0.18, 0.015);
    EXPECT_DOUBLE_EQ(s.min(), 0.22);
    EXPECT_DOUBLE_EQ(s.max(), 0.80);
}

TEST(Summary, PercentileInterpolates)
{
    Summary s;
    for (int i = 1; i <= 5; ++i)
        s.add(static_cast<double>(i)); // 1..5
    EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(s.percentile(1.0), 5.0);
    EXPECT_DOUBLE_EQ(s.percentile(0.5), 3.0);
    EXPECT_DOUBLE_EQ(s.percentile(0.25), 2.0);
    EXPECT_DOUBLE_EQ(s.percentile(0.875), 4.5);
}

TEST(Summary, PercentileAfterMoreSamples)
{
    Summary s;
    s.add(10.0);
    EXPECT_DOUBLE_EQ(s.percentile(0.5), 10.0);
    s.add(20.0); // re-sorting must happen after new samples
    EXPECT_DOUBLE_EQ(s.percentile(0.5), 15.0);
}

TEST(RobustStats, MedianHandlesOddEvenAndEmpty)
{
    EXPECT_DOUBLE_EQ(median({}), 0.0);
    EXPECT_DOUBLE_EQ(median({7.0}), 7.0);
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    // Even count: mean of the two middle order statistics.
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    // Takes a copy — the caller's ordering is untouched.
    std::vector<double> xs = {5.0, 1.0, 3.0};
    median(xs);
    EXPECT_DOUBLE_EQ(xs[0], 5.0);
}

TEST(RobustStats, MadShrugsOffOneOutlier)
{
    // The bench harness's motivating case: one cold-cache rep.  The
    // standard deviation explodes; the MAD barely notices.
    const std::vector<double> xs = {1.0, 1.1, 0.9, 1.0, 50.0};
    EXPECT_DOUBLE_EQ(median(xs), 1.0);
    // |x - 1| = {0, 0.1, 0.1, 0, 49} -> median 0.1.
    EXPECT_DOUBLE_EQ(medianAbsoluteDeviation(xs), 0.1);
    EXPECT_DOUBLE_EQ(medianAbsoluteDeviation({}), 0.0);
    // Identical samples have zero spread.
    EXPECT_DOUBLE_EQ(medianAbsoluteDeviation({2.0, 2.0, 2.0}), 0.0);
}

TEST(RatioOfSums, IsNotMeanOfRatios)
{
    RatioOfSums r;
    r.add(1.0, 10.0); // ratio 0.1
    r.add(30.0, 10.0); // ratio 3.0
    // Mean of ratios would be 1.55; ratio of sums is 31/20.
    EXPECT_DOUBLE_EQ(r.value(), 31.0 / 20.0);
    EXPECT_DOUBLE_EQ(r.numeratorSum(), 31.0);
    EXPECT_DOUBLE_EQ(r.denominatorSum(), 20.0);
}

TEST(RatioOfSums, EmptyIsZero)
{
    RatioOfSums r;
    EXPECT_DOUBLE_EQ(r.value(), 0.0);
}

TEST(Log2Histogram, BucketBoundaries)
{
    Log2Histogram h;
    h.add(0);
    h.add(1);
    h.add(2);
    h.add(3);
    h.add(4);
    h.add(1024);
    EXPECT_EQ(h.count, 6u);
    EXPECT_EQ(h.buckets[0], 1u); // {0}
    EXPECT_EQ(h.buckets[1], 1u); // {1}
    EXPECT_EQ(h.buckets[2], 2u); // {2,3}
    EXPECT_EQ(h.buckets[3], 1u); // {4..7}
    EXPECT_EQ(h.buckets[11], 1u); // {1024..2047}
    EXPECT_EQ(h.usedBuckets(), 12u);
    EXPECT_EQ(h.max, 1024u);
}

TEST(Log2Histogram, MeanOfSamples)
{
    Log2Histogram h;
    h.add(10);
    h.add(20);
    h.add(30);
    EXPECT_DOUBLE_EQ(h.mean(), 20.0);
    // merge() folds in every field: the mean of the union follows.
    Log2Histogram other;
    other.add(100);
    h.merge(other);
    EXPECT_EQ(h.count, 4u);
    EXPECT_EQ(h.sum, 160u);
    EXPECT_EQ(h.max, 100u);
    EXPECT_DOUBLE_EQ(h.mean(), 40.0);
}

TEST(TextTable, RendersAlignedColumns)
{
    TextTable t("Demo");
    t.setHeader({"name", "value"});
    t.addRow({"a", "1"});
    t.addRow({"long-name", "23"});
    const std::string out = t.render();
    EXPECT_NE(out.find("Demo"), std::string::npos);
    EXPECT_NE(out.find("long-name"), std::string::npos);
    // Both data rows end aligned: the value column is right-aligned.
    EXPECT_NE(out.find("    1"), std::string::npos);
}

TEST(TextTable, RuleSeparatesGroups)
{
    TextTable t("G");
    t.setHeader({"x"});
    t.addRow({"1"});
    t.addRule();
    t.addRow({"2"});
    const std::string out = t.render();
    // Header rule plus the explicit one.
    std::size_t dashes = 0;
    for (std::size_t pos = out.find("-"); pos != std::string::npos;
         pos = out.find("-", pos + 1))
        ++dashes;
    EXPECT_GE(dashes, 2u);
    EXPECT_EQ(t.rowCount(), 3u); // two data rows + the rule marker
}

TEST(TextTable, LeftAlignment)
{
    TextTable t("");
    t.setAlignment({TextTable::Align::Left, TextTable::Align::Right});
    t.setHeader({"name", "v"});
    t.addRow({"ab", "1"});
    t.addRow({"abcd", "2"});
    const std::string out = t.render();
    EXPECT_NE(out.find("ab  "), std::string::npos);
}

} // namespace
} // namespace cachelab
