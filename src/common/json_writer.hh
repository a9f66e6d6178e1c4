/**
 * @file
 * Minimal JSON document model: build, serialise, parse.
 *
 * The experiment engine's bench artifacts must be byte-identical
 * between serial and parallel runs, so serialisation is fully
 * deterministic: object members keep insertion order, numbers are
 * stored as their literal token text (64-bit counters survive a
 * round trip untruncated), and doubles are rendered with the
 * shortest "%.15g"/"%.17g" form that parses back exactly. The parser
 * exists for artifact diffing and round-trip tests, not for hostile
 * input; it throws std::runtime_error with an offset on malformed
 * text.
 */

#ifndef VIC_COMMON_JSON_WRITER_HH
#define VIC_COMMON_JSON_WRITER_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace vic
{

class JsonValue
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    JsonValue() = default;

    // --- constructors ---
    static JsonValue null();
    static JsonValue boolean(bool b);
    static JsonValue number(std::uint64_t n);
    static JsonValue number(std::int64_t n);
    static JsonValue number(double d);
    /** A number from its literal token (used by the parser). */
    static JsonValue numberToken(std::string token);
    static JsonValue str(std::string s);
    static JsonValue array();
    static JsonValue object();

    Kind kind() const { return kind_; }

    // --- scalar access (Kind must match; panics otherwise) ---
    bool asBool() const;
    std::uint64_t asU64() const;
    std::int64_t asI64() const;
    double asDouble() const;
    const std::string &asString() const;
    /** The literal number token as written. */
    const std::string &numberText() const;

    // --- array access ---
    void push(JsonValue v);
    const std::vector<JsonValue> &items() const;
    std::vector<JsonValue> &items();

    // --- object access (insertion-ordered) ---
    JsonValue &set(const std::string &key, JsonValue v);
    /** Member lookup; nullptr when absent (or not an object). */
    const JsonValue *find(const std::string &key) const;
    JsonValue *find(const std::string &key);
    const std::vector<std::pair<std::string, JsonValue>> &
    members() const;
    std::vector<std::pair<std::string, JsonValue>> &members();

    /** Serialise; indent > 0 pretty-prints with that many spaces. */
    std::string dump(int indent = 0) const;

    /** Parse @p text; throws std::runtime_error on malformed input
     *  and on arrays/objects nested more than 64 levels deep. */
    static JsonValue parse(const std::string &text);

    bool operator==(const JsonValue &other) const;

  private:
    void dumpTo(std::string &out, int indent, int depth) const;

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    /** Number token text, or string payload. */
    std::string scalar;
    std::vector<JsonValue> array_;
    std::vector<std::pair<std::string, JsonValue>> object_;
};

/** Escape @p s as a JSON string literal (with quotes). */
std::string jsonQuote(const std::string &s);

} // namespace vic

#endif // VIC_COMMON_JSON_WRITER_HH
