/**
 * @file
 * Failure-injection tests: invalid configurations and corrupt inputs
 * must fail loudly (fatal()) rather than mis-simulate silently.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

#include "cache/config.hh"
#include "cache/sector_cache.hh"
#include "serve/spec.hh"
#include "trace/io.hh"
#include "workload/program_model.hh"

namespace cachelab
{
namespace
{

TEST(ConfigValidation, RejectsNonPowerOfTwoSize)
{
    CacheConfig c;
    c.sizeBytes = 3000;
    EXPECT_DEATH({ c.validate(); }, "power of two");
}

TEST(ConfigValidation, RejectsNonPowerOfTwoLine)
{
    CacheConfig c;
    c.lineBytes = 24;
    EXPECT_DEATH({ c.validate(); }, "power of two");
}

TEST(ConfigValidation, RejectsLineLargerThanCache)
{
    CacheConfig c;
    c.sizeBytes = 64;
    c.lineBytes = 128;
    EXPECT_DEATH({ c.validate(); }, "exceeds cache size");
}

TEST(ConfigValidation, RejectsNonPowerOfTwoAssociativity)
{
    CacheConfig c;
    c.sizeBytes = 1024;
    c.associativity = 3;
    EXPECT_DEATH({ c.validate(); }, "power of two");
}

TEST(ConfigValidation, RejectsAssociativityBeyondLineCount)
{
    CacheConfig c;
    c.sizeBytes = 64;
    c.lineBytes = 16;
    c.associativity = 8; // only 4 lines exist
    EXPECT_DEATH({ c.validate(); }, "exceeds line count");
}

TEST(ConfigValidation, RejectsMoreLinesThanWaysCanNumber)
{
    // 1 TiB of 64 B lines is 2^34 lines.  A served spec that asks for
    // it gets a one-line diagnostic instead of a run that dies in the
    // allocator, and validate() exits 1 with the same words.
    const char *words =
        "line count 17179869184 exceeds the limit of 2147483648 lines";
    serve::ExperimentSpec spec;
    const auto error = serve::parseExperimentSpec(
        R"({"input": {"kind": "profile", "name": "VSPICE", "refs": 1000},
            "cache": {"line_bytes": 64, "associativity": 8},
            "sizes": [1099511627776]})",
        spec);
    ASSERT_TRUE(error.has_value());
    EXPECT_EQ(*error, words);

    CacheConfig c;
    c.sizeBytes = std::uint64_t{1} << 40;
    c.lineBytes = 64;
    c.associativity = 8;
    EXPECT_EXIT({ c.validate(); }, testing::ExitedWithCode(1), words);

    // The limit itself is legal (validate() allocates nothing).
    c.sizeBytes = CacheConfig::kMaxLines * 64;
    c.validate();
    EXPECT_FALSE(c.check().has_value());
}

TEST(SectorConfigValidation, RejectsSubblockLargerThanSector)
{
    SectorCacheConfig c;
    c.sectorBytes = 16;
    c.subblockBytes = 32;
    EXPECT_DEATH({ c.validate(); }, "exceeds sector size");
}

TEST(SectorConfigValidation, RejectsTooManySubblocks)
{
    SectorCacheConfig c;
    c.sizeBytes = 4096;
    c.sectorBytes = 1024;
    c.subblockBytes = 8; // 128 sub-blocks > 64-bit mask
    EXPECT_DEATH({ c.validate(); }, "64 sub-blocks");
}

TEST(TraceIo, RejectsBadDinLabel)
{
    std::stringstream ss("7 1000\n");
    EXPECT_DEATH({ readTrace(ss.str(), TraceFormat::Din, "bad"); }, "unknown access label");
}

TEST(TraceIo, RejectsMalformedDinLine)
{
    std::stringstream ss("read 0x10\n");
    EXPECT_DEATH({ readTrace(ss.str(), TraceFormat::Din, "bad"); }, "expected");
}

TEST(TraceIo, RejectsBadHexAddress)
{
    std::stringstream ss("0 zzzz\n");
    EXPECT_DEATH({ readTrace(ss.str(), TraceFormat::Din, "bad"); }, "bad address");
}

TEST(TraceIo, RejectsZeroSizeAccess)
{
    std::stringstream ss("0 1000 0\n");
    EXPECT_DEATH({ readTrace(ss.str(), TraceFormat::Din, "bad"); }, "zero access size");
    // The same reference as a CLT1 and as a CLT2 record.
    Trace zero("bad");
    zero.append(0x1000, 0, AccessKind::Read);
    for (const TraceFormat format :
         {TraceFormat::Binary, TraceFormat::Compressed}) {
        std::stringstream packed;
        writeTrace(zero, packed, format);
        EXPECT_DEATH({ readTrace(packed.str(), format, {}); },
                     "zero access size")
            << toString(format);
    }
}

TEST(TraceIo, RejectsBadBinaryMagic)
{
    std::stringstream ss("NOPE....");
    EXPECT_DEATH({ readTrace(ss.str(), TraceFormat::Binary, {}); }, "bad magic");
}

TEST(TraceIo, RejectsTruncatedBinary)
{
    // Valid magic, then nothing.
    std::stringstream ss(std::string("CLT1"), std::ios::in);
    EXPECT_DEATH({ readTrace(ss.str(), TraceFormat::Binary, {}); }, "");
}

TEST(TraceIo, RejectsMissingFile)
{
    EXPECT_DEATH({ openTraceSource("/nonexistent/path/trace.din"); },
                 "cannot open");
}

TEST(TraceIo, RejectsCountsTheFileCannotHold)
{
    // A header count (or din hint) the file cannot hold is a one-line
    // exit 1 at open, before anything is sized by it.
    Trace t("poke");
    for (Addr addr = 0x1000; addr < 0x1010; addr += 4)
        t.append(addr, 4, AccessKind::Read);
    struct Case
    {
        const char *leaf; ///< the extension picks the format
        std::uint64_t count;
        const char *message;
    };
    // 1418980313362273202 * 13 wraps to 10 modulo 2^64.
    for (const Case &c :
         {Case{"poke.trace", 1418980313362273202u,
               "binary trace: header declares"},
          Case{"poke.ctr", std::uint64_t{1} << 62,
               "compressed trace: header declares"},
          Case{"poke.din", std::uint64_t{1} << 62, "din line 2: refs hint"}}) {
        const std::string path = testing::TempDir() + "/" + c.leaf;
        const TraceFormat format = formatForPath(path);
        saveTrace(t, path, format);
        std::ifstream in(path, std::ios::binary);
        std::string bytes(std::istreambuf_iterator<char>(in), {});
        in.close();
        if (format == TraceFormat::Din) {
            const std::string hint = "# refs: 4";
            bytes.replace(bytes.find(hint), hint.size(),
                          "# refs: " + std::to_string(c.count));
        } else {
            // The count follows the magic, the name length and the name.
            std::memcpy(bytes.data() + 8 + t.name().size(), &c.count,
                        sizeof(c.count));
        }
        std::ofstream(path, std::ios::binary) << bytes;
        EXPECT_EXIT(openTraceSource(path)->materialize(),
                    testing::ExitedWithCode(1), c.message)
            << c.leaf;
        std::remove(path.c_str());
    }
}

TEST(WorkloadValidation, RejectsZeroRefCount)
{
    WorkloadParams p;
    p.refCount = 0;
    EXPECT_DEATH({ p.validate(); }, "positive");
}

TEST(WorkloadValidation, RejectsTinyRegions)
{
    WorkloadParams p;
    p.codeBytes = 16;
    EXPECT_DEATH({ p.validate(); }, "code region too small");
}

TEST(WorkloadValidation, RejectsBadWriteSpread)
{
    WorkloadParams p;
    p.writeSpread = 0.0;
    EXPECT_DEATH({ p.validate(); }, "writeSpread");
}

TEST(WorkloadValidation, RejectsBadRecordBytes)
{
    WorkloadParams p;
    p.recordBytes = 48; // not a power of two
    EXPECT_DEATH({ p.validate(); }, "recordBytes");
}

} // namespace
} // namespace cachelab
