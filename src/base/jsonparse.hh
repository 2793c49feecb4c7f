/**
 * @file
 * Minimal recursive-descent JSON reader, the counterpart of the
 * JsonWriter in base/json.hh. Added for the crash-safe experiment
 * checkpoint: resume must read back the JSONL records the previous
 * process appended. Covers the full JSON grammar the project emits
 * (objects, arrays, strings with the writer's escapes, integers,
 * doubles, booleans, null); unsigned integers are preserved exactly
 * so 64-bit counters round-trip bit-for-bit.
 *
 * Checkpoint lines are read back from disk, where a torn write, bit
 * rot or a hand-edited file can hold anything, so the parser is
 * bounded: nesting depth, string length, number-token length and
 * whole-document size are all capped (JsonLimits), and exceeding a cap
 * is a clean Errc::Corrupt — never deep recursion or unbounded
 * allocation on a damaged or hostile file.
 */

#ifndef CBWS_BASE_JSONPARSE_HH
#define CBWS_BASE_JSONPARSE_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "base/result.hh"

namespace cbws
{

/** One parsed JSON value (a small tagged tree). */
struct JsonValue
{
    enum class Type
    {
        Null,
        Bool,
        Uint,   ///< non-negative integer that fits a uint64
        Number, ///< any other number (negative, fractional, exponent)
        String,
        Array,
        Object,
    };

    Type type = Type::Null;
    bool boolean = false;
    std::uint64_t uintValue = 0; ///< valid when type == Uint
    double number = 0.0;         ///< valid for Uint and Number
    std::string str;
    std::vector<JsonValue> array;
    std::vector<std::pair<std::string, JsonValue>> object;

    bool isObject() const { return type == Type::Object; }
    bool isArray() const { return type == Type::Array; }
    bool isString() const { return type == Type::String; }
    bool isUint() const { return type == Type::Uint; }

    /** Member lookup; nullptr when absent or not an object. */
    const JsonValue *find(const std::string &key) const;

    /** Member's uint value, or @p fallback when absent/mistyped. */
    std::uint64_t uintOr(const std::string &key,
                         std::uint64_t fallback = 0) const;

    /** Member's string value, or @p fallback when absent/mistyped. */
    std::string strOr(const std::string &key,
                      const std::string &fallback = "") const;
};

/**
 * Resource bounds enforced while parsing. The defaults are generous
 * enough for every format the project writes itself (checkpoints,
 * reports, profiles) while still bounding recursion and allocation;
 * a caller that knows its documents are small can pass tighter caps.
 * A cap of 0 means unlimited.
 */
struct JsonLimits
{
    /** Maximum object/array nesting (recursion) depth. */
    std::size_t maxDepth = 128;
    /** Maximum decoded bytes in a single string value or key. */
    std::size_t maxStringBytes = 1u << 22;
    /** Maximum characters in one number token. */
    std::size_t maxNumberChars = 64;
    /** Maximum size of the whole document, in bytes. */
    std::size_t maxDocumentBytes = 0;
};

/**
 * Parse @p text as one JSON document. Corrupt on any syntax error
 * (with position context), trailing garbage, or an exceeded limit.
 */
Result<JsonValue> parseJson(const std::string &text);

/** parseJson with explicit resource bounds. */
Result<JsonValue> parseJson(const std::string &text,
                            const JsonLimits &limits);

} // namespace cbws

#endif // CBWS_BASE_JSONPARSE_HH
