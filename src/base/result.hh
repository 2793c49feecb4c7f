/**
 * @file
 * Structured error handling for fallible operations.
 *
 * Result<T> replaces the ad-hoc bool/throw error paths of the I/O
 * layers (trace files, the trace cache, experiment checkpoints) with
 * a value that carries *why* an operation failed, so callers can
 * distinguish "not found" (quietly fall back) from "corrupt" (warn,
 * then fall back) from "I/O error" (degrade: carry on without the
 * file).
 *
 * The error vocabulary is deliberately small: robustness policies key
 * off the code, and the human-readable message carries the rest.
 */

#ifndef CBWS_BASE_RESULT_HH
#define CBWS_BASE_RESULT_HH

#include <optional>
#include <string>
#include <utility>

#include "base/logging.hh"

namespace cbws
{

/** Why an operation failed (Errc::Ok only appears inside Result). */
enum class Errc : std::uint8_t
{
    Ok = 0,
    NotFound,        ///< the requested entity does not exist (a miss)
    IoError,         ///< the OS refused a read/write/open/rename
    Corrupt,         ///< data present but failed validation (checksum,
                     ///< truncation, malformed syntax)
    VersionMismatch, ///< recognised format, unsupported schema version
    InvalidArgument, ///< caller passed something unusable
    Unsupported,     ///< valid request the implementation cannot serve
};

/** Short stable name of an error code (log/message prefix). */
constexpr const char *
toString(Errc code)
{
    switch (code) {
      case Errc::Ok:
        return "ok";
      case Errc::NotFound:
        return "not-found";
      case Errc::IoError:
        return "io-error";
      case Errc::Corrupt:
        return "corrupt";
      case Errc::VersionMismatch:
        return "version-mismatch";
      case Errc::InvalidArgument:
        return "invalid-argument";
      case Errc::Unsupported:
        return "unsupported";
    }
    return "?";
}

/** An error code plus a human-readable explanation. */
struct Error
{
    Errc code = Errc::Ok;
    std::string message;

    Error() = default;
    Error(Errc c, std::string msg) : code(c), message(std::move(msg)) {}

    /** "corrupt: trailing checkpoint line failed its checksum". */
    std::string
    str() const
    {
        return message.empty()
                   ? std::string(toString(code))
                   : std::string(toString(code)) + ": " + message;
    }
};

/**
 * Either a T or an Error. Querying the wrong side is a simulator bug
 * (panic), not an exception: fallible paths must check ok() first.
 */
template <typename T>
class Result
{
  public:
    /*implicit*/ Result(T value) : value_(std::move(value)) {}

    /*implicit*/ Result(Error error) : error_(std::move(error))
    {
        panic_if(error_.code == Errc::Ok,
                 "Result error constructed with Errc::Ok");
    }

    Result(Errc code, std::string message)
        : Result(Error(code, std::move(message)))
    {
    }

    bool ok() const { return value_.has_value(); }
    explicit operator bool() const { return ok(); }

    /** Error code, or Errc::Ok on success. */
    Errc code() const { return ok() ? Errc::Ok : error_.code; }

    const T &
    value() const &
    {
        panic_if(!ok(), "Result::value() on error: %s",
                 error_.str().c_str());
        return *value_;
    }

    T &&
    value() &&
    {
        panic_if(!ok(), "Result::value() on error: %s",
                 error_.str().c_str());
        return std::move(*value_);
    }

    T
    valueOr(T fallback) const
    {
        return ok() ? *value_ : std::move(fallback);
    }

    const Error &
    error() const
    {
        panic_if(ok(), "Result::error() on success");
        return error_;
    }

  private:
    std::optional<T> value_;
    Error error_;
};

/** Result of an operation with no payload: success or an Error. */
template <>
class Result<void>
{
  public:
    Result() = default;

    /*implicit*/ Result(Error error) : error_(std::move(error)) {}

    Result(Errc code, std::string message)
        : error_(code, std::move(message))
    {
    }

    bool ok() const { return error_.code == Errc::Ok; }
    explicit operator bool() const { return ok(); }

    Errc code() const { return error_.code; }

    const Error &
    error() const
    {
        panic_if(ok(), "Result::error() on success");
        return error_;
    }

  private:
    Error error_;
};

} // namespace cbws

#endif // CBWS_BASE_RESULT_HH
