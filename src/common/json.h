/**
 * @file
 * Minimal JSON emission shared by every machine-readable output path
 * (`xsim --stats-json`, `xsim --trace`, the bench reporters). One
 * escaping/formatting implementation so all producers agree, plus one
 * strict parser for every document read back: requests, checkpoints,
 * capsules, the cache index and journal records.
 */

#ifndef XLOOPS_COMMON_JSON_H
#define XLOOPS_COMMON_JSON_H

#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.h"

namespace xloops {

/** Escape @p s for inclusion inside a JSON string literal. */
std::string jsonEscape(std::string_view s);

/** Inverse of jsonEscape (resolves \uXXXX to UTF-8). */
std::string jsonUnescape(const std::string &s);

/** True when jsonParse accepts @p text: one complete, well-formed
 *  JSON value. */
bool jsonValidate(const std::string &text);

class JsonWriter;

/**
 * A parsed JSON value (checkpoints, capsules, tooling round trips).
 *
 * Numbers keep their source lexeme so 64-bit integers (RNG states,
 * cycle counts) never pass through a double: asU64()/asI64() parse the
 * lexeme exactly and throw FatalError on range or syntax violations.
 */
class JsonValue
{
  public:
    enum class Kind : u8 { Null, Bool, Number, String, Array, Object };

    Kind kind() const { return k; }
    bool isNull() const { return k == Kind::Null; }

    bool asBool() const;
    u64 asU64() const;
    i64 asI64() const;
    double asDouble() const;
    const std::string &asString() const;

    const std::vector<JsonValue> &array() const;

    /** Object members in source order (producers emit sorted keys). */
    const std::vector<std::pair<std::string, JsonValue>> &members() const;

    bool has(const std::string &name) const;

    /** Member @p name; throws FatalError when absent. */
    const JsonValue &at(const std::string &name) const;

    /** Member @p name, or @p fallback when absent. */
    u64 getU64(const std::string &name, u64 fallback) const;

  private:
    friend JsonValue jsonParse(const std::string &text);
    friend struct ValueParser;
    friend class JsonWriter;
    friend void writeJsonValue(JsonWriter &w, const JsonValue &v);

    Kind k = Kind::Null;
    bool boolean = false;
    std::string text;  ///< string payload, or the number lexeme
    std::vector<JsonValue> elems;
    std::vector<std::pair<std::string, JsonValue>> fields;
};

/** Parse one complete JSON value; throws FatalError on malformed input. */
JsonValue jsonParse(const std::string &text);

/** Re-emit a parsed tree as the writer's next value, preserving number
 *  lexemes exactly (capsules embed whole checkpoint documents). */
void writeJsonValue(JsonWriter &w, const JsonValue &v);

/**
 * Streaming JSON writer with explicit structure calls. Callers are
 * responsible for key order; producers in this codebase emit sorted
 * keys (std::map iteration, or the stat catalogue's name order).
 */
class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream &out, bool pretty = true);

    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Emit an object key; must be followed by exactly one value. */
    JsonWriter &key(std::string_view name);

    JsonWriter &value(const std::string &v);
    JsonWriter &value(const char *v);
    JsonWriter &value(u64 v);
    JsonWriter &value(i64 v);
    JsonWriter &value(unsigned v) { return value(static_cast<u64>(v)); }
    JsonWriter &value(int v) { return value(static_cast<i64>(v)); }
    JsonWriter &value(double v);
    JsonWriter &value(bool v);

    /** Emit a number lexeme verbatim (exact JsonValue round trips). */
    JsonWriter &rawNumber(const std::string &lexeme);

    template <typename T>
    JsonWriter &
    field(std::string_view k, T v)
    {
        key(k);
        return value(v);
    }

  private:
    void separate();
    void newline();

    std::ostream &os;
    bool pretty;
    bool pendingKey = false;

    struct Level
    {
        bool isObject;
        size_t count;
    };
    std::vector<Level> stack;
};

} // namespace xloops

#endif // XLOOPS_COMMON_JSON_H
