/**
 * @file
 * Result<T>/Result<void> contract: ok/error duality, code and
 * message propagation, valueOr fallbacks, move-out of move-only
 * payloads, and the GTest AssertionResult interop the I/O tests
 * lean on (ASSERT_TRUE(result) must compile and read naturally).
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "base/result.hh"

namespace cbws
{
namespace
{

TEST(Result, ValueSideRoundTrips)
{
    Result<int> r(42);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r);
    EXPECT_EQ(r.code(), Errc::Ok);
    EXPECT_EQ(r.value(), 42);
    EXPECT_EQ(r.valueOr(-1), 42);
}

TEST(Result, ErrorSideCarriesCodeAndMessage)
{
    Result<int> r(Errc::Corrupt, "checksum mismatch");
    ASSERT_FALSE(r.ok());
    ASSERT_FALSE(r);
    EXPECT_EQ(r.code(), Errc::Corrupt);
    EXPECT_EQ(r.error().code, Errc::Corrupt);
    EXPECT_EQ(r.error().message, "checksum mismatch");
    EXPECT_EQ(r.error().str(), "corrupt: checksum mismatch");
    EXPECT_EQ(r.valueOr(-1), -1);
}

TEST(Result, ErrorStrWithoutMessageIsJustTheCode)
{
    EXPECT_EQ(Error(Errc::NotFound, "").str(), "not-found");
}

TEST(Result, ErrcNamesAreStable)
{
    // Error strings appear in logs and CLI output; renames are
    // format changes, not refactors.
    EXPECT_STREQ(toString(Errc::Ok), "ok");
    EXPECT_STREQ(toString(Errc::NotFound), "not-found");
    EXPECT_STREQ(toString(Errc::IoError), "io-error");
    EXPECT_STREQ(toString(Errc::Corrupt), "corrupt");
    EXPECT_STREQ(toString(Errc::VersionMismatch), "version-mismatch");
    EXPECT_STREQ(toString(Errc::InvalidArgument), "invalid-argument");
    EXPECT_STREQ(toString(Errc::Unsupported), "unsupported");
}

TEST(Result, MoveOnlyPayloadMovesOut)
{
    Result<std::unique_ptr<int>> r(std::make_unique<int>(7));
    ASSERT_TRUE(r.ok());
    std::unique_ptr<int> p = std::move(r).value();
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(*p, 7);
}

TEST(Result, ErrorPropagatesAcrossPayloadTypes)
{
    // The common plumbing pattern: a Result<A> error is returned
    // from a function producing Result<B> by forwarding .error().
    Result<std::string> inner(Errc::IoError, "disk on fire");
    Result<int> outer(inner.error());
    ASSERT_FALSE(outer.ok());
    EXPECT_EQ(outer.code(), Errc::IoError);
    EXPECT_EQ(outer.error().message, "disk on fire");
}

TEST(ResultVoid, DefaultIsSuccess)
{
    Result<void> r;
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r);
    EXPECT_EQ(r.code(), Errc::Ok);
}

TEST(ResultVoid, ErrorSide)
{
    Result<void> r(Errc::Unsupported, "no such backend");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.code(), Errc::Unsupported);
    EXPECT_EQ(r.error().str(), "unsupported: no such backend");
}

TEST(ResultVoid, WorksInGtestAssertions)
{
    // GTest's AssertionResult accepts the explicit operator bool, so
    // call sites read ASSERT_TRUE(cache.store(...)) — verify both
    // polarities keep compiling.
    Result<void> good;
    Result<void> bad(Errc::NotFound, "");
    EXPECT_TRUE(good);
    EXPECT_FALSE(bad);
}

} // anonymous namespace
} // namespace cbws
