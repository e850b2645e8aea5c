/**
 * @file
 * Unit tests for src/trace: container, I/O round trips, transforms.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "trace/io.hh"
#include "trace/trace.hh"
#include "trace/transforms.hh"

namespace cachelab
{
namespace
{

Trace
smallTrace()
{
    Trace t("small");
    t.append(0x1000, 4, AccessKind::IFetch);
    t.append(0x2000, 4, AccessKind::Read);
    t.append(0x2004, 2, AccessKind::Write);
    t.append(0x1004, 4, AccessKind::IFetch);
    return t;
}

TEST(Trace, AppendAndIterate)
{
    const Trace t = smallTrace();
    EXPECT_EQ(t.size(), 4u);
    EXPECT_FALSE(t.empty());
    EXPECT_EQ(t[0].addr, 0x1000u);
    EXPECT_EQ(t[2].kind, AccessKind::Write);
    std::size_t n = 0;
    for (const MemoryRef &ref : t) {
        (void)ref;
        ++n;
    }
    EXPECT_EQ(n, 4u);
}

TEST(Trace, KindCountsAndFractions)
{
    const Trace t = smallTrace();
    EXPECT_EQ(t.countKind(AccessKind::IFetch), 2u);
    EXPECT_EQ(t.countKind(AccessKind::Read), 1u);
    EXPECT_EQ(t.countKind(AccessKind::Write), 1u);
    EXPECT_DOUBLE_EQ(t.fractionKind(AccessKind::IFetch), 0.5);
    Trace empty;
    EXPECT_DOUBLE_EQ(empty.fractionKind(AccessKind::Read), 0.0);
}

TEST(AccessKind, Names)
{
    EXPECT_EQ(toString(AccessKind::IFetch), "ifetch");
    EXPECT_EQ(toString(AccessKind::Read), "read");
    EXPECT_EQ(toString(AccessKind::Write), "write");
    EXPECT_FALSE(isData(AccessKind::IFetch));
    EXPECT_TRUE(isData(AccessKind::Write));
}

TEST(TraceIo, DinRoundTrip)
{
    const Trace t = smallTrace();
    std::stringstream ss;
    writeTrace(t, ss, TraceFormat::Din);
    const Trace back = readTrace(ss.str(), TraceFormat::Din, "small");
    ASSERT_EQ(back.size(), t.size());
    for (std::size_t i = 0; i < t.size(); ++i)
        EXPECT_EQ(back[i], t[i]) << "ref " << i;
    EXPECT_EQ(back.name(), "small");
}

TEST(TraceIo, DinLabelsMatchDineroConvention)
{
    const Trace t = smallTrace();
    std::stringstream ss;
    writeTrace(t, ss, TraceFormat::Din);
    const std::string text = ss.str();
    // 2 = ifetch at 0x1000, 0 = read at 0x2000, 1 = write at 0x2004.
    EXPECT_NE(text.find("2 1000 4"), std::string::npos);
    EXPECT_NE(text.find("0 2000 4"), std::string::npos);
    EXPECT_NE(text.find("1 2004 2"), std::string::npos);
}

TEST(TraceIo, DinDefaultsSizeToFour)
{
    std::stringstream ss("0 ff\n2 100\n");
    const Trace t = readTrace(ss.str(), TraceFormat::Din, "x");
    ASSERT_EQ(t.size(), 2u);
    EXPECT_EQ(t[0].size, 4u);
    EXPECT_EQ(t[0].addr, 0xffu);
    EXPECT_EQ(t[1].kind, AccessKind::IFetch);
}

TEST(TraceIo, DinSkipsCommentsAndBlankLines)
{
    std::stringstream ss("# header\n\n0 10\n# mid\n1 20\n");
    const Trace t = readTrace(ss.str(), TraceFormat::Din, "x");
    EXPECT_EQ(t.size(), 2u);
}

TEST(TraceIo, BinaryRoundTrip)
{
    const Trace t = smallTrace();
    std::stringstream ss;
    writeTrace(t, ss, TraceFormat::Binary);
    const Trace back = readTrace(ss.str(), TraceFormat::Binary, {});
    ASSERT_EQ(back.size(), t.size());
    EXPECT_EQ(back.name(), t.name());
    for (std::size_t i = 0; i < t.size(); ++i)
        EXPECT_EQ(back[i], t[i]);
}

TEST(TraceIo, SaveLoadByExtension)
{
    const Trace t = smallTrace();
    const std::string din_path = testing::TempDir() + "/clt_test.din";
    const std::string bin_path = testing::TempDir() + "/clt_test.trace";
    saveTrace(t, din_path, formatForPath(din_path));
    saveTrace(t, bin_path, formatForPath(bin_path));
    const Trace from_din = openTraceSource(din_path)->materialize();
    const Trace from_bin = openTraceSource(bin_path)->materialize();
    EXPECT_EQ(from_din.size(), t.size());
    EXPECT_EQ(from_bin.size(), t.size());
    EXPECT_EQ(from_din.name(), "clt_test"); // named after the file
    EXPECT_EQ(from_bin.name(), "small");    // binary embeds the name
    std::remove(din_path.c_str());
    std::remove(bin_path.c_str());
}

TEST(Transforms, TruncateShortensAndPreservesPrefix)
{
    const Trace t = smallTrace();
    const Trace cut = truncate(t, 2);
    ASSERT_EQ(cut.size(), 2u);
    EXPECT_EQ(cut[0], t[0]);
    EXPECT_EQ(cut[1], t[1]);
    EXPECT_EQ(truncate(t, 100).size(), t.size());
    EXPECT_EQ(truncate(t, 0).size(), 0u);
}

TEST(Transforms, ConcatenatePreservesOrder)
{
    const Trace a = smallTrace();
    Trace b("b");
    b.append(0x9000, 4, AccessKind::Read);
    const Trace joined = concatenate({a, b}, "joined");
    ASSERT_EQ(joined.size(), a.size() + 1);
    EXPECT_EQ(joined[a.size()].addr, 0x9000u);
    EXPECT_EQ(joined.name(), "joined");
}

TEST(Transforms, OffsetAddresses)
{
    const Trace t = smallTrace();
    const Trace moved = offsetAddresses(t, 0x100000);
    ASSERT_EQ(moved.size(), t.size());
    for (std::size_t i = 0; i < t.size(); ++i) {
        EXPECT_EQ(moved[i].addr, t[i].addr + 0x100000);
        EXPECT_EQ(moved[i].kind, t[i].kind);
    }
}

TEST(Transforms, FilterKeepsMatching)
{
    const Trace t = smallTrace();
    const Trace data = filter(
        t, [](const MemoryRef &r) { return isData(r.kind); }, "data");
    EXPECT_EQ(data.size(), 2u);
    for (const MemoryRef &r : data)
        EXPECT_NE(r.kind, AccessKind::IFetch);
}

TEST(Transforms, RoundRobinInterleavesByQuantum)
{
    Trace a("a"), b("b");
    for (int i = 0; i < 6; ++i)
        a.append(0x1000 + 4 * static_cast<Addr>(i), 4, AccessKind::Read);
    for (int i = 0; i < 4; ++i)
        b.append(0x2000 + 4 * static_cast<Addr>(i), 4, AccessKind::Read);

    const Trace mix = interleaveRoundRobin({a, b}, 2, "mix");
    ASSERT_EQ(mix.size(), 10u);
    // Quantum 2: a0 a1 b0 b1 a2 a3 b2 b3 a4 a5.
    EXPECT_EQ(mix[0].addr, 0x1000u);
    EXPECT_EQ(mix[1].addr, 0x1004u);
    EXPECT_EQ(mix[2].addr, 0x2000u);
    EXPECT_EQ(mix[3].addr, 0x2004u);
    EXPECT_EQ(mix[4].addr, 0x1008u);
    EXPECT_EQ(mix[8].addr, 0x1010u);
    EXPECT_EQ(mix[9].addr, 0x1014u);
}

TEST(Transforms, RoundRobinDropsExhaustedTraces)
{
    Trace a("a"), b("b");
    a.append(0x10, 4, AccessKind::Read);
    for (int i = 0; i < 5; ++i)
        b.append(0x2000 + 4 * static_cast<Addr>(i), 4, AccessKind::Read);
    const Trace mix = interleaveRoundRobin({a, b}, 2, "mix");
    ASSERT_EQ(mix.size(), 6u);
    EXPECT_EQ(mix[0].addr, 0x10u);
    // After a is exhausted, b runs to completion.
    for (std::size_t i = 1; i < 6; ++i)
        EXPECT_EQ(mix[i].addr, 0x2000u + 4 * (i - 1));
}

TEST(Transforms, RoundRobinUnequalLengthsKeepEveryRef)
{
    // Three traces of very different lengths: every reference must
    // appear exactly once, in round-robin order while a trace lasts,
    // with exhausted traces dropped from later rounds.
    Trace a("a"), b("b"), c("c");
    for (int i = 0; i < 7; ++i)
        a.append(0x1000 + 4 * static_cast<Addr>(i), 4, AccessKind::Read);
    for (int i = 0; i < 3; ++i)
        b.append(0x2000 + 4 * static_cast<Addr>(i), 4, AccessKind::Read);
    c.append(0x3000, 4, AccessKind::Read);

    const Trace mix = interleaveRoundRobin({a, b, c}, 3, "mix");
    ASSERT_EQ(mix.size(), 11u);
    // Round 1: a0 a1 a2 | b0 b1 b2 | c0.  Round 2: a3 a4 a5 (b and c
    // exhausted).  Round 3: a6.
    const Addr expected[] = {0x1000, 0x1004, 0x1008, 0x2000, 0x2004,
                             0x2008, 0x3000, 0x100c, 0x1010, 0x1014,
                             0x1018};
    for (std::size_t i = 0; i < mix.size(); ++i)
        EXPECT_EQ(mix[i].addr, expected[i]) << "ref " << i;

    std::uint64_t from_a = 0, from_b = 0, from_c = 0;
    for (const MemoryRef &ref : mix) {
        from_a += ref.addr >= 0x1000 && ref.addr < 0x2000;
        from_b += ref.addr >= 0x2000 && ref.addr < 0x3000;
        from_c += ref.addr >= 0x3000;
    }
    EXPECT_EQ(from_a, a.size());
    EXPECT_EQ(from_b, b.size());
    EXPECT_EQ(from_c, c.size());
}

TEST(Transforms, RoundRobinHonorsMaxRefs)
{
    Trace a("a");
    for (int i = 0; i < 100; ++i)
        a.append(4 * static_cast<Addr>(i), 4, AccessKind::Read);
    const Trace mix = interleaveRoundRobin({a, a}, 10, "mix", 25);
    EXPECT_EQ(mix.size(), 25u);
}

TEST(Transforms, RoundRobinEmptyInputs)
{
    const Trace mix = interleaveRoundRobin({}, 5, "none");
    EXPECT_TRUE(mix.empty());
    Trace empty("e");
    const Trace mix2 = interleaveRoundRobin({empty, empty}, 5, "none");
    EXPECT_TRUE(mix2.empty());
}

} // namespace
} // namespace cachelab
