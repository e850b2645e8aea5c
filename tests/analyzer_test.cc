/**
 * @file
 * Unit tests for the trace analyzer (Table 2 characterization).
 */

#include <gtest/gtest.h>

#include "trace/analyzer.hh"

namespace cachelab
{
namespace
{

TEST(Analyzer, EmptyTrace)
{
    const TraceCharacteristics c = analyzeTrace(Trace("empty"));
    EXPECT_EQ(c.refCount, 0u);
    EXPECT_EQ(c.ilines, 0u);
    EXPECT_EQ(c.aspaceBytes, 0u);
}

TEST(Analyzer, ReferenceMix)
{
    Trace t("mix");
    t.append(0x100, 4, AccessKind::IFetch);
    t.append(0x104, 4, AccessKind::IFetch);
    t.append(0x2000, 4, AccessKind::Read);
    t.append(0x3000, 4, AccessKind::Write);
    const TraceCharacteristics c = analyzeTrace(t);
    EXPECT_DOUBLE_EQ(c.ifetchFraction, 0.5);
    EXPECT_DOUBLE_EQ(c.readFraction, 0.25);
    EXPECT_DOUBLE_EQ(c.writeFraction, 0.25);
}

TEST(Analyzer, FootprintCountsDistinctLines)
{
    Trace t("fp");
    // Two ifetch lines (0x100 and 0x110 are distinct 16-byte lines).
    t.append(0x100, 4, AccessKind::IFetch);
    t.append(0x104, 4, AccessKind::IFetch);
    t.append(0x110, 4, AccessKind::IFetch);
    // One data line touched by both a read and a write.
    t.append(0x2000, 4, AccessKind::Read);
    t.append(0x2008, 4, AccessKind::Write);
    const TraceCharacteristics c = analyzeTrace(t);
    EXPECT_EQ(c.ilines, 2u);
    EXPECT_EQ(c.dlines, 1u);
    EXPECT_EQ(c.aspaceBytes, 16u * 3u);
}

TEST(Analyzer, BranchHeuristicForwardWindow)
{
    Trace t("br");
    // Sequential within 8 bytes: no branch.
    t.append(0x100, 4, AccessKind::IFetch);
    t.append(0x104, 4, AccessKind::IFetch);
    t.append(0x108, 4, AccessKind::IFetch);
    // Jump forward by 0x100: branch (the 0x108 fetch is the branch).
    t.append(0x208, 4, AccessKind::IFetch);
    // Jump backward: branch.
    t.append(0x100, 4, AccessKind::IFetch);
    const TraceCharacteristics c = analyzeTrace(t);
    // 2 branches out of 5 ifetches.
    EXPECT_DOUBLE_EQ(c.branchFraction, 2.0 / 5.0);
}

TEST(Analyzer, BranchHeuristicMissesShortJumps)
{
    // The paper: "This mechanism will miss a few branches which jump
    // over fewer than 8 bytes."  A +8 step is NOT counted.
    Trace t("shortjump");
    t.append(0x100, 4, AccessKind::IFetch);
    t.append(0x108, 4, AccessKind::IFetch); // +8: within window
    t.append(0x10c, 4, AccessKind::IFetch);
    const TraceCharacteristics c = analyzeTrace(t);
    EXPECT_DOUBLE_EQ(c.branchFraction, 0.0);
}

TEST(Analyzer, DataRefsDoNotBreakIfetchSequences)
{
    Trace t("interleaved");
    t.append(0x100, 4, AccessKind::IFetch);
    t.append(0x5000, 4, AccessKind::Read); // intervening data access
    t.append(0x104, 4, AccessKind::IFetch);
    const TraceCharacteristics c = analyzeTrace(t);
    EXPECT_DOUBLE_EQ(c.branchFraction, 0.0);
}

TEST(Analyzer, MergedFetchCountsReadsAsInstructionLines)
{
    Trace t("m68k");
    t.append(0x100, 2, AccessKind::IFetch);
    t.append(0x2000, 2, AccessKind::Read);
    t.append(0x3000, 2, AccessKind::Write);
    AnalyzerConfig merged;
    merged.mergedFetch = true;
    const TraceCharacteristics c = analyzeTrace(t, merged);
    // Read line lands in ilines under merged counting; write in dlines.
    EXPECT_EQ(c.ilines, 2u);
    EXPECT_EQ(c.dlines, 1u);
    // Plain counting splits them.
    const TraceCharacteristics plain = analyzeTrace(t);
    EXPECT_EQ(plain.ilines, 1u);
    EXPECT_EQ(plain.dlines, 2u);
}

TEST(Analyzer, SequentialRunLengths)
{
    Trace t("runs");
    // Run of 3, branch, run of 2.
    t.append(0x100, 4, AccessKind::IFetch);
    t.append(0x104, 4, AccessKind::IFetch);
    t.append(0x108, 4, AccessKind::IFetch);
    t.append(0x400, 4, AccessKind::IFetch);
    t.append(0x404, 4, AccessKind::IFetch);
    const TraceCharacteristics c = analyzeTrace(t);
    // The first run ends where the branch target's size past its last
    // fetch reaches (0x100..0x10c, 12 bytes); the final run is closed
    // at its last fetch address (0x400..0x404, 4 bytes).
    EXPECT_DOUBLE_EQ(c.meanSequentialRunBytes, 8.0);
}

TEST(Analyzer, CustomLineSize)
{
    Trace t("lines32");
    t.append(0x100, 4, AccessKind::IFetch);
    t.append(0x110, 4, AccessKind::IFetch); // same 32-byte line
    AnalyzerConfig cfg;
    cfg.lineBytes = 32;
    const TraceCharacteristics c = analyzeTrace(t, cfg);
    EXPECT_EQ(c.ilines, 1u);
    EXPECT_EQ(c.aspaceBytes, 32u);
}

TEST(Analyzer, CustomBranchWindow)
{
    Trace t("window");
    t.append(0x100, 4, AccessKind::IFetch);
    t.append(0x110, 4, AccessKind::IFetch); // +16
    AnalyzerConfig cfg;
    cfg.branchWindowBytes = 16;
    EXPECT_DOUBLE_EQ(analyzeTrace(t, cfg).branchFraction, 0.0);
    EXPECT_DOUBLE_EQ(analyzeTrace(t).branchFraction, 0.5);
}

} // namespace
} // namespace cachelab
