#include "common/json_writer.hh"

#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "common/logging.hh"

namespace vic
{

// ----------------------------------------------------------------------
// Construction
// ----------------------------------------------------------------------

JsonValue
JsonValue::null()
{
    return JsonValue();
}

JsonValue
JsonValue::boolean(bool b)
{
    JsonValue v;
    v.kind_ = Kind::Bool;
    v.bool_ = b;
    return v;
}

JsonValue
JsonValue::number(std::uint64_t n)
{
    return numberToken(format("%llu", (unsigned long long)n));
}

JsonValue
JsonValue::number(std::int64_t n)
{
    return numberToken(format("%lld", (long long)n));
}

JsonValue
JsonValue::number(double d)
{
    // Shortest decimal form that round-trips: %.15g covers most
    // doubles; fall back to %.17g (always exact) when it does not.
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.15g", d);
    if (std::strtod(buf, nullptr) != d)
        std::snprintf(buf, sizeof(buf), "%.17g", d);
    return numberToken(buf);
}

JsonValue
JsonValue::numberToken(std::string token)
{
    JsonValue v;
    v.kind_ = Kind::Number;
    v.scalar = std::move(token);
    return v;
}

JsonValue
JsonValue::str(std::string s)
{
    JsonValue v;
    v.kind_ = Kind::String;
    v.scalar = std::move(s);
    return v;
}

JsonValue
JsonValue::array()
{
    JsonValue v;
    v.kind_ = Kind::Array;
    return v;
}

JsonValue
JsonValue::object()
{
    JsonValue v;
    v.kind_ = Kind::Object;
    return v;
}

// ----------------------------------------------------------------------
// Access
// ----------------------------------------------------------------------

bool
JsonValue::asBool() const
{
    vic_assert(kind_ == Kind::Bool, "JSON value is not a bool");
    return bool_;
}

std::uint64_t
JsonValue::asU64() const
{
    vic_assert(kind_ == Kind::Number, "JSON value is not a number");
    return std::strtoull(scalar.c_str(), nullptr, 10);
}

std::int64_t
JsonValue::asI64() const
{
    vic_assert(kind_ == Kind::Number, "JSON value is not a number");
    return std::strtoll(scalar.c_str(), nullptr, 10);
}

double
JsonValue::asDouble() const
{
    vic_assert(kind_ == Kind::Number, "JSON value is not a number");
    return std::strtod(scalar.c_str(), nullptr);
}

const std::string &
JsonValue::asString() const
{
    vic_assert(kind_ == Kind::String, "JSON value is not a string");
    return scalar;
}

const std::string &
JsonValue::numberText() const
{
    vic_assert(kind_ == Kind::Number, "JSON value is not a number");
    return scalar;
}

void
JsonValue::push(JsonValue v)
{
    vic_assert(kind_ == Kind::Array, "JSON value is not an array");
    array_.push_back(std::move(v));
}

const std::vector<JsonValue> &
JsonValue::items() const
{
    vic_assert(kind_ == Kind::Array, "JSON value is not an array");
    return array_;
}

std::vector<JsonValue> &
JsonValue::items()
{
    vic_assert(kind_ == Kind::Array, "JSON value is not an array");
    return array_;
}

JsonValue &
JsonValue::set(const std::string &key, JsonValue v)
{
    vic_assert(kind_ == Kind::Object, "JSON value is not an object");
    for (auto &[k, existing] : object_) {
        if (k == key) {
            existing = std::move(v);
            return existing;
        }
    }
    object_.emplace_back(key, std::move(v));
    return object_.back().second;
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (kind_ != Kind::Object)
        return nullptr;
    for (const auto &[k, v] : object_) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

JsonValue *
JsonValue::find(const std::string &key)
{
    return const_cast<JsonValue *>(
        static_cast<const JsonValue *>(this)->find(key));
}

const std::vector<std::pair<std::string, JsonValue>> &
JsonValue::members() const
{
    vic_assert(kind_ == Kind::Object, "JSON value is not an object");
    return object_;
}

std::vector<std::pair<std::string, JsonValue>> &
JsonValue::members()
{
    vic_assert(kind_ == Kind::Object, "JSON value is not an object");
    return object_;
}

bool
JsonValue::operator==(const JsonValue &other) const
{
    if (kind_ != other.kind_)
        return false;
    switch (kind_) {
      case Kind::Null:
        return true;
      case Kind::Bool:
        return bool_ == other.bool_;
      case Kind::Number:
      case Kind::String:
        return scalar == other.scalar;
      case Kind::Array:
        return array_ == other.array_;
      case Kind::Object:
        return object_ == other.object_;
    }
    return false;
}

// ----------------------------------------------------------------------
// Serialisation
// ----------------------------------------------------------------------

std::string
jsonQuote(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    out += '"';
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += format("\\u%04x", c);
            else
                out += c;
        }
    }
    out += '"';
    return out;
}

void
JsonValue::dumpTo(std::string &out, int indent, int depth) const
{
    const auto newline = [&](int d) {
        if (indent > 0) {
            out += '\n';
            out.append(static_cast<std::size_t>(indent) * d, ' ');
        }
    };
    switch (kind_) {
      case Kind::Null:
        out += "null";
        break;
      case Kind::Bool:
        out += bool_ ? "true" : "false";
        break;
      case Kind::Number:
        out += scalar;
        break;
      case Kind::String:
        out += jsonQuote(scalar);
        break;
      case Kind::Array:
        if (array_.empty()) {
            out += "[]";
            break;
        }
        out += '[';
        for (std::size_t i = 0; i < array_.size(); ++i) {
            if (i)
                out += ',';
            newline(depth + 1);
            array_[i].dumpTo(out, indent, depth + 1);
        }
        newline(depth);
        out += ']';
        break;
      case Kind::Object:
        if (object_.empty()) {
            out += "{}";
            break;
        }
        out += '{';
        for (std::size_t i = 0; i < object_.size(); ++i) {
            if (i)
                out += ',';
            newline(depth + 1);
            out += jsonQuote(object_[i].first);
            out += indent > 0 ? ": " : ":";
            object_[i].second.dumpTo(out, indent, depth + 1);
        }
        newline(depth);
        out += '}';
        break;
    }
}

std::string
JsonValue::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    if (indent > 0)
        out += '\n';
    return out;
}

// ----------------------------------------------------------------------
// Parsing
// ----------------------------------------------------------------------

namespace
{

/** Deepest array/object nesting parse() accepts. The parser recurses
 *  once per level, so an unbounded input could exhaust the stack; the
 *  deepest documents the repo writes (SARIF, VERIFY reports) nest 9. */
constexpr int kMaxNesting = 64;

class Parser
{
  public:
    explicit Parser(const std::string &t) : text(t) {}

    JsonValue
    parseDocument()
    {
        JsonValue v = parseValue(0);
        skipWs();
        if (pos != text.size())
            fail("trailing characters");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const char *what) const
    {
        throw std::runtime_error(
            format("JSON parse error at offset %zu: %s", pos, what));
    }

    void
    skipWs()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r'))
            ++pos;
    }

    char
    peek()
    {
        skipWs();
        if (pos >= text.size())
            fail("unexpected end of input");
        return text[pos];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(format("expected '%c'", c).c_str());
        ++pos;
    }

    bool
    consumeWord(const char *w)
    {
        std::size_t n = 0;
        while (w[n])
            ++n;
        if (text.compare(pos, n, w) != 0)
            return false;
        pos += n;
        return true;
    }

    std::string
    parseStringBody()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos >= text.size())
                fail("unterminated string");
            char c = text[pos++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos >= text.size())
                fail("unterminated escape");
            char e = text[pos++];
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
                  if (pos + 4 > text.size())
                      fail("truncated \\u escape");
                  unsigned code = static_cast<unsigned>(std::strtoul(
                      text.substr(pos, 4).c_str(), nullptr, 16));
                  pos += 4;
                  // The writer only emits \u00xx control escapes;
                  // decode the Latin-1 range and pass anything wider
                  // through as UTF-8 is out of scope for artifacts.
                  if (code < 0x80) {
                      out += static_cast<char>(code);
                  } else {
                      out += static_cast<char>(0xc0 | (code >> 6));
                      out += static_cast<char>(0x80 | (code & 0x3f));
                  }
                  break;
              }
              default:
                fail("bad escape character");
            }
        }
    }

    JsonValue
    parseNumber()
    {
        const std::size_t start = pos;
        if (pos < text.size() && text[pos] == '-')
            ++pos;
        bool digits = false;
        auto eatDigits = [&] {
            while (pos < text.size() && text[pos] >= '0' &&
                   text[pos] <= '9') {
                ++pos;
                digits = true;
            }
        };
        eatDigits();
        if (pos < text.size() && text[pos] == '.') {
            ++pos;
            eatDigits();
        }
        if (pos < text.size() &&
            (text[pos] == 'e' || text[pos] == 'E')) {
            ++pos;
            if (pos < text.size() &&
                (text[pos] == '+' || text[pos] == '-'))
                ++pos;
            eatDigits();
        }
        if (!digits)
            fail("malformed number");
        return JsonValue::numberToken(text.substr(start, pos - start));
    }

    JsonValue
    parseValue(int depth)
    {
        const char c0 = peek();
        if ((c0 == '{' || c0 == '[') && depth == kMaxNesting)
            fail(format("nesting deeper than %d levels", kMaxNesting)
                     .c_str());
        switch (c0) {
          case '{': {
              ++pos;
              JsonValue obj = JsonValue::object();
              if (peek() == '}') {
                  ++pos;
                  return obj;
              }
              while (true) {
                  skipWs();
                  std::string key = parseStringBody();
                  expect(':');
                  obj.set(key, parseValue(depth + 1));
                  char c = peek();
                  ++pos;
                  if (c == '}')
                      return obj;
                  if (c != ',')
                      fail("expected ',' or '}'");
              }
          }
          case '[': {
              ++pos;
              JsonValue arr = JsonValue::array();
              if (peek() == ']') {
                  ++pos;
                  return arr;
              }
              while (true) {
                  arr.push(parseValue(depth + 1));
                  char c = peek();
                  ++pos;
                  if (c == ']')
                      return arr;
                  if (c != ',')
                      fail("expected ',' or ']'");
              }
          }
          case '"':
            return JsonValue::str(parseStringBody());
          case 't':
            if (!consumeWord("true"))
                fail("bad literal");
            return JsonValue::boolean(true);
          case 'f':
            if (!consumeWord("false"))
                fail("bad literal");
            return JsonValue::boolean(false);
          case 'n':
            if (!consumeWord("null"))
                fail("bad literal");
            return JsonValue::null();
          default:
            return parseNumber();
        }
    }

    const std::string &text;
    std::size_t pos = 0;
};

} // anonymous namespace

JsonValue
JsonValue::parse(const std::string &text)
{
    return Parser(text).parseDocument();
}

} // namespace vic
