/**
 * @file
 * Adversarial-input hardening of the JSON reader: checkpoint lines
 * come back off disk, where a torn write or a damaged file can hold
 * anything, so deeply nested, truncated and overlong-token documents
 * must come back as a clean Errc::Corrupt — never deep recursion,
 * unbounded allocation, or a crash.
 */

#include <gtest/gtest.h>

#include <string>

#include "base/jsonparse.hh"

namespace cbws
{
namespace
{

TEST(JsonLimits, DeepNestingRejectedNotRecursed)
{
    // A million open brackets in a megabyte: without the depth cap
    // this is a stack overflow, with it a clean parse error.
    JsonLimits limits;
    limits.maxDepth = 64;
    const std::string bomb(1u << 20, '[');
    Result<JsonValue> r = parseJson(bomb, limits);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, Errc::Corrupt);
    EXPECT_NE(r.error().message.find("depth"), std::string::npos);
}

TEST(JsonLimits, DeepObjectNestingAlsoCapped)
{
    JsonLimits limits;
    limits.maxDepth = 8;
    std::string doc;
    for (int i = 0; i < 16; ++i)
        doc += "{\"a\":";
    doc += "1";
    for (int i = 0; i < 16; ++i)
        doc += "}";
    Result<JsonValue> r = parseJson(doc, limits);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, Errc::Corrupt);
}

TEST(JsonLimits, NestingAtTheLimitStillParses)
{
    JsonLimits limits;
    limits.maxDepth = 8;
    std::string doc;
    for (int i = 0; i < 8; ++i)
        doc += "[";
    doc += "1";
    for (int i = 0; i < 8; ++i)
        doc += "]";
    EXPECT_TRUE(parseJson(doc, limits).ok());
}

TEST(JsonLimits, OverlongStringRejected)
{
    JsonLimits limits;
    limits.maxStringBytes = 16;
    const std::string doc =
        "\"" + std::string(64, 'x') + "\"";
    Result<JsonValue> r = parseJson(doc, limits);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, Errc::Corrupt);
    EXPECT_NE(r.error().message.find("string"), std::string::npos);
    // At the limit is fine.
    EXPECT_TRUE(
        parseJson("\"" + std::string(16, 'x') + "\"", limits).ok());
}

TEST(JsonLimits, OverlongNumberTokenRejected)
{
    JsonLimits limits;
    limits.maxNumberChars = 8;
    Result<JsonValue> r = parseJson(std::string(32, '1'), limits);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, Errc::Corrupt);
    EXPECT_NE(r.error().message.find("number"), std::string::npos);
    EXPECT_TRUE(parseJson("12345678", limits).ok());
}

TEST(JsonLimits, OversizedDocumentRejectedUpFront)
{
    JsonLimits limits;
    limits.maxDocumentBytes = 32;
    const std::string doc =
        "[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15]";
    ASSERT_GT(doc.size(), 32u);
    Result<JsonValue> r = parseJson(doc, limits);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, Errc::Corrupt);
    // 0 means unlimited (the default for trusted self-written files).
    limits.maxDocumentBytes = 0;
    EXPECT_TRUE(parseJson(doc, limits).ok());
}

TEST(JsonLimits, TruncatedDocumentsAreCleanErrors)
{
    // Tight caps, as for small self-describing records, so the cut
    // points are checked against the limits as well as the grammar.
    JsonLimits limits;
    limits.maxDepth = 16;
    limits.maxStringBytes = 4096;
    limits.maxNumberChars = 32;
    limits.maxDocumentBytes = 1u << 16;
    for (const char *doc :
         {"{\"type\":\"ce", "{\"type\":", "{", "[1,2,", "\"unterminated",
          "{\"a\":1,", "tru", "-"}) {
        Result<JsonValue> r = parseJson(doc, limits);
        EXPECT_FALSE(r.ok()) << doc;
        EXPECT_EQ(r.error().code, Errc::Corrupt) << doc;
    }
}

TEST(JsonLimits, DefaultsStillReadProjectFormats)
{
    // The default (trusted-file) limits must stay permissive enough
    // for checkpoint lines with many nested arrays.
    std::string doc = "{\"cells\":[";
    for (int i = 0; i < 100; ++i) {
        if (i)
            doc += ",";
        doc += "{\"v\":[1,2,3],\"s\":\"" + std::string(256, 'y') +
               "\"}";
    }
    doc += "]}";
    EXPECT_TRUE(parseJson(doc).ok());
}

} // namespace
} // namespace cbws
