/**
 * @file
 * Tests for the recursive-descent JSON parser (util/json_reader) that
 * backs cachelab_report and the event-log round-trip tests: value
 * types, string escapes, integer exactness, error reporting, and the
 * documented duplicate-key and member-order semantics.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "util/json_reader.hh"
#include "util/json_writer.hh"
#include "util/random.hh"

namespace cachelab
{
namespace
{

TEST(JsonReader, ParsesPrimitives)
{
    std::string err;
    auto doc = parseJson("null", &err);
    ASSERT_TRUE(doc) << err;
    EXPECT_TRUE(doc->isNull());

    doc = parseJson("true");
    ASSERT_TRUE(doc);
    EXPECT_TRUE(doc->asBool());

    doc = parseJson("false");
    ASSERT_TRUE(doc);
    EXPECT_FALSE(doc->asBool());

    doc = parseJson("-17");
    ASSERT_TRUE(doc);
    EXPECT_EQ(doc->asInt(), -17);

    doc = parseJson("3.5e2");
    ASSERT_TRUE(doc);
    EXPECT_DOUBLE_EQ(doc->asDouble(), 350.0);

    doc = parseJson("\"hi\"");
    ASSERT_TRUE(doc);
    EXPECT_EQ(doc->asString(), "hi");
}

TEST(JsonReader, ParsesNestedContainers)
{
    const auto doc = parseJson(
        R"({"run":{"refs":30000,"sizes":[256,1024,4096]},"ok":true})");
    ASSERT_TRUE(doc);
    EXPECT_EQ(doc->at("run").at("refs").asUint(), 30000u);
    const JsonValue &sizes = doc->at("run").at("sizes");
    ASSERT_EQ(sizes.size(), 3u);
    EXPECT_EQ(sizes.at(0).asUint(), 256u);
    EXPECT_EQ(sizes.at(2).asUint(), 4096u);
    EXPECT_TRUE(doc->at("ok").asBool());
    EXPECT_EQ(doc->find("missing"), nullptr);
}

TEST(JsonReader, DecodesStringEscapes)
{
    const auto doc = parseJson(R"("a\"b\\c\/d\b\f\n\r\te")");
    ASSERT_TRUE(doc);
    EXPECT_EQ(doc->asString(), "a\"b\\c/d\b\f\n\r\te");
}

TEST(JsonReader, DecodesUnicodeEscapesIncludingSurrogatePairs)
{
    auto doc = parseJson(R"("caf\u00e9")");
    ASSERT_TRUE(doc);
    EXPECT_EQ(doc->asString(), "caf\xc3\xa9");

    // U+1F600 as a \u surrogate pair -> 4-byte UTF-8.
    doc = parseJson(R"("\ud83d\ude00")");
    ASSERT_TRUE(doc);
    EXPECT_EQ(doc->asString(), "\xf0\x9f\x98\x80");
}

TEST(JsonReader, LargeIntegersAreExact)
{
    const auto doc = parseJson("18446744073709551615"); // 2^64 - 1
    ASSERT_TRUE(doc);
    EXPECT_EQ(doc->asUint(), 18446744073709551615ull);
}

TEST(JsonReader, MemberOrderPreservedAndDuplicateKeysFirstWins)
{
    const auto doc = parseJson(R"({"b":1,"a":2,"b":3})");
    ASSERT_TRUE(doc);
    const auto &members = doc->members();
    ASSERT_EQ(members.size(), 3u);
    EXPECT_EQ(members[0].first, "b");
    EXPECT_EQ(members[1].first, "a");
    EXPECT_EQ(doc->at("b").asUint(), 1u); // first occurrence
}

TEST(JsonReader, ReportsErrorsWithoutCrashing)
{
    std::string err;
    EXPECT_FALSE(parseJson("", &err));
    EXPECT_FALSE(err.empty());

    err.clear();
    EXPECT_FALSE(parseJson(R"({"a":)", &err));
    EXPECT_FALSE(err.empty());

    err.clear();
    EXPECT_FALSE(parseJson(R"({"a":1} trailing)", &err));
    EXPECT_FALSE(err.empty());

    err.clear();
    EXPECT_FALSE(parseJson(R"("bad \q escape")", &err));
    EXPECT_FALSE(err.empty());

    err.clear();
    EXPECT_FALSE(parseJson("[1,2,", &err));
    EXPECT_FALSE(err.empty());

    err.clear();
    EXPECT_FALSE(parseJson("nul", &err));
    EXPECT_FALSE(err.empty());
}

TEST(JsonReader, ErrorsCarryByteOffsets)
{
    JsonParseError err;

    // The offset points at the first byte the parser could not accept.
    EXPECT_FALSE(parseJson(std::string_view(R"({"a":})"), &err));
    EXPECT_EQ(err.offset, 5u);
    EXPECT_NE(err.describe().find("at offset 5"), std::string::npos);

    EXPECT_FALSE(parseJson(std::string_view("[1,2,"), &err));
    EXPECT_EQ(err.offset, 5u);

    // Trailing garbage reports the position of the garbage, not the
    // end of the valid prefix's last token.
    EXPECT_FALSE(parseJson(std::string_view(R"({"a":1}  x)"), &err));
    EXPECT_EQ(err.message, "trailing content");
    EXPECT_EQ(err.offset, 9u);

    // The string overload surfaces the same description.
    std::string text_err;
    EXPECT_FALSE(parseJson(R"({"a":1}  x)", &text_err));
    EXPECT_NE(text_err.find("offset 9"), std::string::npos);
}

TEST(JsonReader, RejectsTrailingGarbageAndLeadingZeros)
{
    EXPECT_FALSE(parseJson("{} {}"));
    EXPECT_FALSE(parseJson("1 2"));
    EXPECT_FALSE(parseJson("null,"));
    EXPECT_TRUE(parseJson("  {\"a\": 1}  \n")); // whitespace is fine

    JsonParseError err;
    EXPECT_FALSE(parseJson(std::string_view("007"), &err));
    EXPECT_NE(err.message.find("leading zero"), std::string::npos);
    EXPECT_FALSE(parseJson("[01]"));
    EXPECT_FALSE(parseJson("-01"));
    EXPECT_TRUE(parseJson("0"));
    EXPECT_TRUE(parseJson("0.5"));
    EXPECT_TRUE(parseJson("-0.5"));
}

TEST(JsonReader, IntegralityPredicates)
{
    const auto doc = parseJson(R"([7, -7, 1.5, 1e3, "7", 18446744073709551615])");
    ASSERT_TRUE(doc);
    EXPECT_TRUE(doc->at(0).isUint());
    EXPECT_TRUE(doc->at(0).isInt());
    EXPECT_FALSE(doc->at(1).isUint());
    EXPECT_TRUE(doc->at(1).isInt());
    EXPECT_FALSE(doc->at(2).isUint()); // fractional
    EXPECT_FALSE(doc->at(2).isInt());
    EXPECT_FALSE(doc->at(3).isUint()); // exponent spelling, not integral
    EXPECT_FALSE(doc->at(4).isUint()); // wrong type entirely
    EXPECT_TRUE(doc->at(5).isUint());  // 2^64-1 exact
    EXPECT_FALSE(doc->at(5).isInt());  // overflows int64
}

/** Serialize @p value compactly via the writer bridge. */
std::string
compact(const JsonValue &value)
{
    return toCompactJson(value);
}

TEST(JsonReader, WriterBridgeRoundTripsExactValues)
{
    const std::string text =
        R"({"max":18446744073709551615,"neg":-9223372036854775808,)"
        R"("esc":"a\"b\\c\n\t","uni":"café 😀",)"
        R"("half":0.1,"arr":[true,false,null,0]})";
    const auto doc = parseJson(text);
    ASSERT_TRUE(doc);

    const std::string once = compact(*doc);
    const auto again = parseJson(once);
    ASSERT_TRUE(again) << once;

    // Idempotent: compact(parse(compact(x))) == compact(x).
    EXPECT_EQ(compact(*again), once);

    // And the values survive exactly.
    EXPECT_EQ(again->at("max").asUint(), 18446744073709551615ull);
    EXPECT_EQ(again->at("neg").asInt(), INT64_MIN);
    EXPECT_EQ(again->at("esc").asString(), "a\"b\\c\n\t");
    EXPECT_EQ(again->at("uni").asString(), "caf\xc3\xa9 \xf0\x9f\x98\x80");
    EXPECT_DOUBLE_EQ(again->at("half").asDouble(), 0.1);
    EXPECT_TRUE(again->at("arr").at(0).asBool());
    EXPECT_TRUE(again->at("arr").at(2).isNull());
}

/** Emit one random value into @p w, recursing for containers. */
void
emitRandomValue(JsonWriter &w, Rng &rng, int depth)
{
    const std::uint64_t pick = rng.uniformInt(depth > 0 ? 8 : 6);
    switch (pick) {
    case 0:
        w.null();
        break;
    case 1:
        w.value(rng.bernoulli(0.5));
        break;
    case 2:
        w.value(rng.uniformInt(UINT64_MAX)); // full uint64 range
        break;
    case 3:
        w.value(-static_cast<std::int64_t>(rng.uniformInt(1u << 30)));
        break;
    case 4:
        w.value(rng.uniformReal() * 1e6 - 5e5);
        break;
    case 5: {
        // Strings exercising escapes, controls and non-ASCII.
        static const char *kStrings[] = {
            "",          "plain",           "quote\"back\\slash",
            "tab\tnl\n", "ctrl\x01\x1f",    "caf\xc3\xa9",
            "\xf0\x9f\x98\x80 emoji",       "a/b",
        };
        w.value(kStrings[rng.uniformInt(8)]);
        break;
    }
    case 6: {
        const std::uint64_t n = rng.uniformInt(3);
        w.beginArray();
        for (std::uint64_t i = 0; i <= n; ++i)
            emitRandomValue(w, rng, depth - 1);
        w.endArray();
        break;
    }
    default: {
        const std::uint64_t n = rng.uniformInt(3);
        w.beginObject();
        for (std::uint64_t i = 0; i <= n; ++i) {
            std::string key = "k";
            key += std::to_string(i);
            w.key(key);
            emitRandomValue(w, rng, depth - 1);
        }
        w.endObject();
        break;
    }
    }
}

TEST(JsonReader, FuzzRoundTripAgainstWriter)
{
    // Seeded, so a failure reproduces: every random document the
    // writer can produce must parse, and the reader->writer bridge
    // must be a fixed point after one round.
    Rng rng(20260809);
    for (int round = 0; round < 200; ++round) {
        std::ostringstream text;
        {
            JsonWriter w(text, JsonWriter::Compact);
            emitRandomValue(w, rng, 3);
        }
        std::string err;
        const auto doc = parseJson(text.str(), &err);
        ASSERT_TRUE(doc) << "round " << round << ": " << err << "\n"
                         << text.str();
        const std::string once = compact(*doc);
        const auto again = parseJson(once, &err);
        ASSERT_TRUE(again) << "round " << round << ": " << err << "\n"
                           << once;
        EXPECT_EQ(compact(*again), once) << "round " << round;
    }
}

TEST(JsonReaderDeathTest, TypeMismatchesAreFatal)
{
    const auto doc = parseJson(R"({"a":1})");
    ASSERT_TRUE(doc);
    EXPECT_DEATH({ (void)doc->at("a").asString(); }, "not a string");
    EXPECT_DEATH({ (void)doc->at("missing"); }, "no member");
    EXPECT_DEATH({ (void)doc->asDouble(); }, "not a number");
}

} // namespace
} // namespace cachelab
