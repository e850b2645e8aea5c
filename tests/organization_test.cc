/**
 * @file
 * Unit tests for cache organizations (unified vs split).
 */

#include <gtest/gtest.h>

#include "cache/organization.hh"
#include "sim/experiments.hh"

namespace cachelab
{
namespace
{

TEST(UnifiedCache, RoutesEverythingToOneCache)
{
    UnifiedCache unified(table1Config(256));
    unified.access({0x000, 4, AccessKind::IFetch});
    unified.access({0x000, 4, AccessKind::Read});
    const CacheStats s = unified.combinedStats();
    EXPECT_EQ(s.totalAccesses(), 2u);
    EXPECT_EQ(s.totalMisses(), 1u); // read hits the fetched line
}

TEST(SplitCache, SeparatesInstructionAndData)
{
    SplitCache split(table1Config(256), table1Config(256));
    split.access({0x000, 4, AccessKind::IFetch});
    // The same line via a data read must MISS: it lives in the I-cache.
    split.access({0x000, 4, AccessKind::Read});
    EXPECT_EQ(split.icache().stats().totalAccesses(), 1u);
    EXPECT_EQ(split.dcache().stats().totalAccesses(), 1u);
    EXPECT_EQ(split.dcache().stats().totalMisses(), 1u);
    const CacheStats s = split.combinedStats();
    EXPECT_EQ(s.totalAccesses(), 2u);
    EXPECT_EQ(s.totalMisses(), 2u);
}

TEST(SplitCache, WritesGoToDataCache)
{
    SplitCache split(table1Config(256), table1Config(256));
    split.access({0x100, 4, AccessKind::Write});
    EXPECT_EQ(split.icache().stats().totalAccesses(), 0u);
    EXPECT_TRUE(split.dcache().isDirty(0x100));
}

TEST(SplitCache, PurgeFlushesBothSides)
{
    SplitCache split(table1Config(256), table1Config(256));
    split.access({0x000, 4, AccessKind::IFetch});
    split.access({0x100, 4, AccessKind::Write});
    split.purge();
    EXPECT_EQ(split.icache().validLineCount(), 0u);
    EXPECT_EQ(split.dcache().validLineCount(), 0u);
    EXPECT_EQ(split.combinedStats().purgePushes, 2u);
    EXPECT_EQ(split.combinedStats().dirtyPurgePushes, 1u);
}

TEST(SplitCache, ResetStatsClearsBothSides)
{
    SplitCache split(table1Config(256), table1Config(256));
    split.access({0x000, 4, AccessKind::IFetch});
    split.access({0x100, 4, AccessKind::Read});
    split.resetStats();
    EXPECT_EQ(split.combinedStats().totalAccesses(), 0u);
}

TEST(SplitCache, DescribeNamesBothCaches)
{
    SplitCache split(table1Config(256), table1Config(512));
    const std::string d = split.describe();
    EXPECT_NE(d.find("split"), std::string::npos);
    EXPECT_NE(d.find("256"), std::string::npos);
    EXPECT_NE(d.find("512"), std::string::npos);
}

TEST(CacheSystem, PolymorphicUse)
{
    std::unique_ptr<CacheSystem> sys =
        std::make_unique<UnifiedCache>(table1Config(256));
    sys->access({0x0, 4, AccessKind::Read});
    EXPECT_EQ(sys->combinedStats().totalAccesses(), 1u);
    sys->purge();
    sys->resetStats();
    EXPECT_EQ(sys->combinedStats().totalAccesses(), 0u);
}

} // namespace
} // namespace cachelab
