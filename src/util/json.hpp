#ifndef JSI_UTIL_JSON_HPP
#define JSI_UTIL_JSON_HPP

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace jsi::util::json {

/// Minimal JSON document model — just enough for the tooling in this
/// repo (scenario files, trace/metrics re-validation; no third-party
/// JSON dependency is available in-tree). Lived in `obs` until the
/// scenario layer needed it; it is a generic utility, so it moved here.
struct Value {
  enum class Type { Null, Bool, Number, String, Array, Object };

  Type type = Type::Null;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;  // insertion order

  bool is_object() const { return type == Type::Object; }
  bool is_array() const { return type == Type::Array; }
  bool is_number() const { return type == Type::Number; }
  bool is_string() const { return type == Type::String; }
  bool is_bool() const { return type == Type::Bool; }
  bool is_null() const { return type == Type::Null; }

  /// First member named `key` (objects only), nullptr when absent.
  const Value* find(const std::string& key) const;

  // -- literal builders (writer-side convenience) ---------------------------

  static Value make_null();
  static Value make_bool(bool b);
  static Value make_number(double n);
  static Value make_string(std::string s);
  static Value make_array();
  static Value make_object();

  /// Append a member to an object under construction (no duplicate-key
  /// check; the writer emits members in insertion order).
  Value& add(std::string key, Value v);

  /// Append an element to an array under construction.
  Value& push(Value v);
};

/// Strict recursive-descent parse of a complete JSON text. On failure
/// returns nullopt and, when `error` is given, a position-annotated
/// message. `\u` escapes are decoded to UTF-8; surrogate pairs must be
/// properly paired (a lone high or low surrogate is a parse error).
std::optional<Value> parse(std::string_view text, std::string* error = nullptr);

/// Write `s` as a quoted JSON string: `"` and `\` are backslash-escaped,
/// control characters (U+0000–U+001F) become \n/\t/\r/\b/\f or \u00XX.
/// Every emitter in the repo funnels through this, so any label is safe
/// on the output side — the strict parser above round-trips it.
void write_escaped_string(std::ostream& os, std::string_view s);

/// Deterministic number rendering shared by every JSON emitter: values
/// that are exactly integral print without a fraction (so counters and
/// configuration integers round-trip byte-identically), everything else
/// gets 12 significant digits.
void write_number(std::ostream& os, double v);

/// Serialize `v` as JSON text. Object members keep their insertion
/// order and the rendering is byte-deterministic: the same Value always
/// produces the same text, which is what scenario-spec round-trip tests
/// pin. `indent` > 0 pretty-prints with that many spaces per level
/// (arrays/objects one element per line); `indent` == 0 emits the
/// compact one-line form.
void write(std::ostream& os, const Value& v, int indent = 0);

/// `write` into a string. Pretty-printed output ends with a newline so
/// serialized files are valid POSIX text files.
std::string to_text(const Value& v, int indent = 0);

}  // namespace jsi::util::json

#endif  // JSI_UTIL_JSON_HPP
