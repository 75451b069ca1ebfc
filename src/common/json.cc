#include "common/json.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/log.h"

namespace xloops {

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (const char ch : s) {
        const unsigned char c = static_cast<unsigned char>(ch);
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += ch;
            }
        }
    }
    return out;
}

std::string
jsonUnescape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (size_t i = 0; i < s.size(); i++) {
        if (s[i] != '\\') {
            out += s[i];
            continue;
        }
        if (i + 1 >= s.size())
            fatal("jsonUnescape: dangling backslash");
        const char e = s[++i];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (i + 4 >= s.size())
                fatal("jsonUnescape: truncated \\u escape");
            u32 cp = 0;
            for (unsigned k = 0; k < 4; k++) {
                const char h = s[++i];
                cp <<= 4;
                if (h >= '0' && h <= '9')
                    cp |= static_cast<u32>(h - '0');
                else if (h >= 'a' && h <= 'f')
                    cp |= static_cast<u32>(h - 'a' + 10);
                else if (h >= 'A' && h <= 'F')
                    cp |= static_cast<u32>(h - 'A' + 10);
                else
                    fatal("jsonUnescape: bad hex digit in \\u escape");
            }
            // UTF-8 encode (basic multilingual plane only — enough for
            // everything jsonEscape produces).
            if (cp < 0x80) {
                out += static_cast<char>(cp);
            } else if (cp < 0x800) {
                out += static_cast<char>(0xc0 | (cp >> 6));
                out += static_cast<char>(0x80 | (cp & 0x3f));
            } else {
                out += static_cast<char>(0xe0 | (cp >> 12));
                out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
                out += static_cast<char>(0x80 | (cp & 0x3f));
            }
            break;
          }
          default:
            fatal(strf("jsonUnescape: unknown escape '\\", e, "'"));
        }
    }
    return out;
}

// ---------------------------------------------------------------------
// JsonValue / jsonParse.
// ---------------------------------------------------------------------

bool
JsonValue::asBool() const
{
    if (k != Kind::Bool)
        fatal("json: expected a boolean");
    return boolean;
}

u64
JsonValue::asU64() const
{
    if (k != Kind::Number || text.empty() || text[0] == '-' ||
        text.find_first_of(".eE") != std::string::npos)
        fatal(strf("json: expected an unsigned integer, got '", text, "'"));
    errno = 0;
    char *end = nullptr;
    const u64 v = std::strtoull(text.c_str(), &end, 10);
    if (errno != 0 || end != text.c_str() + text.size())
        fatal(strf("json: integer out of range: '", text, "'"));
    return v;
}

i64
JsonValue::asI64() const
{
    if (k != Kind::Number || text.find_first_of(".eE") != std::string::npos)
        fatal(strf("json: expected an integer, got '", text, "'"));
    errno = 0;
    char *end = nullptr;
    const i64 v = std::strtoll(text.c_str(), &end, 10);
    if (errno != 0 || end != text.c_str() + text.size())
        fatal(strf("json: integer out of range: '", text, "'"));
    return v;
}

double
JsonValue::asDouble() const
{
    if (k != Kind::Number)
        fatal("json: expected a number");
    return std::strtod(text.c_str(), nullptr);
}

const std::string &
JsonValue::asString() const
{
    if (k != Kind::String)
        fatal("json: expected a string");
    return text;
}

const std::vector<JsonValue> &
JsonValue::array() const
{
    if (k != Kind::Array)
        fatal("json: expected an array");
    return elems;
}

const std::vector<std::pair<std::string, JsonValue>> &
JsonValue::members() const
{
    if (k != Kind::Object)
        fatal("json: expected an object");
    return fields;
}

bool
JsonValue::has(const std::string &name) const
{
    if (k != Kind::Object)
        return false;
    for (const auto &[key, value] : fields)
        if (key == name)
            return true;
    return false;
}

const JsonValue &
JsonValue::at(const std::string &name) const
{
    for (const auto &[key, value] : members())
        if (key == name)
            return value;
    fatal(strf("json: missing member '", name, "'"));
}

u64
JsonValue::getU64(const std::string &name, u64 fallback) const
{
    return has(name) ? at(name).asU64() : fallback;
}

/** Recursive-descent parser building JsonValue trees. */
struct ValueParser
{
    const std::string &text;
    size_t pos = 0;

    [[noreturn]] void
    err(const std::string &what)
    {
        fatal(strf("json parse error at offset ", pos, ": ", what));
    }

    void
    skipWs()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r'))
            pos++;
    }

    char
    peek()
    {
        if (pos >= text.size())
            err("unexpected end of input");
        return text[pos];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            err(strf("expected '", c, "'"));
        pos++;
    }

    /** Consume a run of decimal digits; returns how many. */
    size_t
    digits()
    {
        const size_t start = pos;
        while (pos < text.size() &&
               std::isdigit(static_cast<unsigned char>(text[pos])))
            pos++;
        return pos - start;
    }

    std::string
    stringBody()
    {
        expect('"');
        const size_t start = pos;
        bool escaped = false;
        while (pos < text.size() && text[pos] != '"') {
            if (static_cast<unsigned char>(text[pos]) < 0x20)
                err("raw control character in string");
            if (text[pos] == '\\') {
                escaped = true;
                pos++;  // skip the escaped character
            }
            pos++;
        }
        if (pos >= text.size())
            err("unterminated string");
        std::string raw = text.substr(start, pos - start);
        pos++;  // closing quote
        return escaped ? jsonUnescape(raw) : raw;
    }

    JsonValue
    parseValue(unsigned depth)
    {
        if (depth > 64)
            err("nesting too deep");
        skipWs();
        JsonValue v;
        const char c = peek();
        if (c == '{') {
            pos++;
            v.k = JsonValue::Kind::Object;
            skipWs();
            if (peek() == '}') {
                pos++;
                return v;
            }
            while (true) {
                skipWs();
                std::string key = stringBody();
                skipWs();
                expect(':');
                v.fields.emplace_back(std::move(key),
                                      parseValue(depth + 1));
                skipWs();
                if (peek() == ',') {
                    pos++;
                    continue;
                }
                expect('}');
                return v;
            }
        }
        if (c == '[') {
            pos++;
            v.k = JsonValue::Kind::Array;
            skipWs();
            if (peek() == ']') {
                pos++;
                return v;
            }
            while (true) {
                v.elems.push_back(parseValue(depth + 1));
                skipWs();
                if (peek() == ',') {
                    pos++;
                    continue;
                }
                expect(']');
                return v;
            }
        }
        if (c == '"') {
            v.k = JsonValue::Kind::String;
            v.text = stringBody();
            return v;
        }
        if (text.compare(pos, 4, "true") == 0) {
            pos += 4;
            v.k = JsonValue::Kind::Bool;
            v.boolean = true;
            return v;
        }
        if (text.compare(pos, 5, "false") == 0) {
            pos += 5;
            v.k = JsonValue::Kind::Bool;
            return v;
        }
        if (text.compare(pos, 4, "null") == 0) {
            pos += 4;
            return v;
        }
        // Number, in the RFC 8259 grammar (leading zeros tolerated):
        // -?digits(.digits)?([eE][+-]?digits)?, its lexeme captured
        // verbatim.
        const size_t start = pos;
        if (text[pos] == '-')
            pos++;
        if (digits() == 0)
            err(pos == start ? "expected a value" : "malformed number");
        if (pos < text.size() && text[pos] == '.') {
            pos++;
            if (digits() == 0)
                err("malformed number");
        }
        if (pos < text.size() && (text[pos] == 'e' || text[pos] == 'E')) {
            pos++;
            if (pos < text.size() && (text[pos] == '+' || text[pos] == '-'))
                pos++;
            if (digits() == 0)
                err("malformed number");
        }
        v.k = JsonValue::Kind::Number;
        v.text = text.substr(start, pos - start);
        return v;
    }
};

JsonValue
jsonParse(const std::string &text)
{
    ValueParser p{text};
    JsonValue v = p.parseValue(0);
    p.skipWs();
    if (p.pos != text.size())
        p.err("trailing characters after value");
    return v;
}

bool
jsonValidate(const std::string &text)
{
    try {
        jsonParse(text);
        return true;
    } catch (const FatalError &) {
        return false;
    }
}

// ---------------------------------------------------------------------
// JsonWriter.
// ---------------------------------------------------------------------

JsonWriter::JsonWriter(std::ostream &out, bool pretty_print)
    : os(out), pretty(pretty_print)
{
}

void
JsonWriter::newline()
{
    if (!pretty)
        return;
    os << "\n";
    for (size_t i = 0; i < stack.size(); i++)
        os << "  ";
}

void
JsonWriter::separate()
{
    if (pendingKey) {
        pendingKey = false;
        return;  // value follows its key on the same line
    }
    if (stack.empty())
        return;
    if (stack.back().count > 0)
        os << ",";
    newline();
    stack.back().count++;
}

JsonWriter &
JsonWriter::beginObject()
{
    separate();
    os << "{";
    stack.push_back({true, 0});
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    XL_ASSERT(!stack.empty() && stack.back().isObject,
              "endObject outside an object");
    const bool empty = stack.back().count == 0;
    stack.pop_back();
    if (!empty)
        newline();
    os << "}";
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    separate();
    os << "[";
    stack.push_back({false, 0});
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    XL_ASSERT(!stack.empty() && !stack.back().isObject,
              "endArray outside an array");
    const bool empty = stack.back().count == 0;
    stack.pop_back();
    if (!empty)
        newline();
    os << "]";
    return *this;
}

JsonWriter &
JsonWriter::key(std::string_view name)
{
    XL_ASSERT(!stack.empty() && stack.back().isObject,
              "key outside an object");
    separate();
    os << "\"" << jsonEscape(name) << "\":" << (pretty ? " " : "");
    pendingKey = true;
    return *this;
}

JsonWriter &
JsonWriter::value(const std::string &v)
{
    separate();
    os << "\"" << jsonEscape(v) << "\"";
    return *this;
}

JsonWriter &
JsonWriter::value(const char *v)
{
    return value(std::string(v));
}

JsonWriter &
JsonWriter::value(u64 v)
{
    separate();
    os << v;
    return *this;
}

JsonWriter &
JsonWriter::value(i64 v)
{
    separate();
    os << v;
    return *this;
}

JsonWriter &
JsonWriter::value(double v)
{
    separate();
    if (!std::isfinite(v)) {
        os << "null";  // JSON has no NaN/Inf
        return *this;
    }
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    os << buf;
    return *this;
}

JsonWriter &
JsonWriter::value(bool v)
{
    separate();
    os << (v ? "true" : "false");
    return *this;
}

JsonWriter &
JsonWriter::rawNumber(const std::string &lexeme)
{
    separate();
    os << lexeme;
    return *this;
}

void
writeJsonValue(JsonWriter &w, const JsonValue &v)
{
    switch (v.kind()) {
      case JsonValue::Kind::Null:
        w.rawNumber("null");  // verbatim token, not a number
        return;
      case JsonValue::Kind::Bool:
        w.value(v.asBool());
        return;
      case JsonValue::Kind::Number:
        w.rawNumber(v.text);
        return;
      case JsonValue::Kind::String:
        w.value(v.asString());
        return;
      case JsonValue::Kind::Array:
        w.beginArray();
        for (const JsonValue &e : v.array())
            writeJsonValue(w, e);
        w.endArray();
        return;
      case JsonValue::Kind::Object:
        w.beginObject();
        for (const auto &[name, member] : v.members()) {
            w.key(name);
            writeJsonValue(w, member);
        }
        w.endObject();
        return;
    }
}

} // namespace xloops
