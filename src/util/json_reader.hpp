/**
 * @file
 * Minimal generic JSON parser — the read-side counterpart of
 * json_writer.hpp.
 *
 * The checkpoint journal carries its own schema-locked line parser;
 * this one is for documents whose shape is only known at runtime
 * (request documents, progress JSONL lines in tests).
 * It parses strict JSON into a Value tree; numbers are doubles
 * (sufficient for every artifact we read: counts fit in 2^53).
 */

#ifndef MRP_UTIL_JSON_READER_HPP
#define MRP_UTIL_JSON_READER_HPP

#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mrp::json {

class Value
{
  public:
    enum class Type { Null, Bool, Number, String, Array, Object };

    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<Value> array;
    /** Members in document order (duplicate keys: first wins in get()). */
    std::vector<std::pair<std::string, Value>> members;

    bool isNull() const { return type == Type::Null; }
    bool isBool() const { return type == Type::Bool; }
    bool isNumber() const { return type == Type::Number; }
    bool isString() const { return type == Type::String; }
    bool isArray() const { return type == Type::Array; }
    bool isObject() const { return type == Type::Object; }

    /** Object member by key, or null pointer. */
    const Value* get(std::string_view key) const;

    /** Member that must exist and have the given type; throws
     * FatalError(CorruptInput) otherwise. @p what names the document
     * for the error message. */
    const Value& require(std::string_view key, Type type,
                         const std::string& what) const;

    /**
     * Refuse (FatalError(CorruptInput)) any member whose key is not in
     * @p keys, and any key that appears twice. For decoders of
     * documents a writer emits with a fixed key set: a key they would
     * ignore, or a second copy that get() would not see, means the
     * bytes say something the decoded value does not.
     */
    void requireOnly(std::initializer_list<std::string_view> keys,
                     const std::string& what) const;
};

/**
 * @p n as a whole number in [lo, hi], else FatalError(CorruptInput)
 * naming @p name: casting a NaN, infinite or out-of-range double to an
 * integer type is undefined behaviour, and a fraction is not a count.
 */
double wholeNumber(const Value& n, double lo, double hi,
                   std::string_view name, const std::string& what);

/**
 * Parse @p text as one JSON document (trailing whitespace allowed,
 * trailing garbage not). Throws FatalError(ErrorCode::CorruptInput)
 * with @p what and a byte offset on malformed input.
 */
Value parseJson(std::string_view text, const std::string& what);

/** As parseJson but returns false instead of throwing. */
bool tryParseJson(std::string_view text, Value* out);

} // namespace mrp::json

#endif // MRP_UTIL_JSON_READER_HPP
