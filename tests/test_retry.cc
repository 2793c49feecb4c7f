/**
 * @file
 * retryWithBackoff, the transient-failure absorber under checkpoint
 * appends: it must stop at the first success and, once the attempts
 * are exhausted, hand back the last error rather than the first.
 */

#include <gtest/gtest.h>

#include <string>

#include "base/retry.hh"

namespace cbws
{
namespace
{

TEST(Retry, ExhaustionReturnsLastError)
{
    int calls = 0;
    Result<void> r = retryWithBackoff(3, 0, [&]() -> Result<void> {
        ++calls;
        return Error(Errc::IoError, "fail " + std::to_string(calls));
    });
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(calls, 3);
    EXPECT_EQ(r.error().message, "fail 3");
}

TEST(Retry, FirstSuccessStopsRetrying)
{
    int calls = 0;
    Result<void> r = retryWithBackoff(5, 0, [&]() -> Result<void> {
        if (++calls < 2)
            return Error(Errc::IoError, "transient");
        return Result<void>();
    });
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(calls, 2);
}

} // namespace
} // namespace cbws
