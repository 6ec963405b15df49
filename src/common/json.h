// The program's one JSON lexer and string escaper. Every JSON format the
// repository reads back — trace JSONL, BENCH_*.json artifacts and fault
// plans (docs/FORMATS.md §1–§3) — is lexed by JsonReader; each module keeps
// only its grammar: which keys, in what order, and what they mean.

#ifndef HERMES_COMMON_JSON_H_
#define HERMES_COMMON_JSON_H_

#include <charconv>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace hermes {

// Appends `s` as a double-quoted JSON string, escaping quotes, backslashes
// and control characters (the inverse of JsonReader::String).
void AppendJsonString(std::string& out, std::string_view s);

// Parses all of `text` as a decimal integer of type T: digits with an
// optional leading '-' (signed T only), nothing else. False when `text` is
// malformed or the value lies outside T's range.
template <typename T>
bool ParseDecimal(std::string_view text, T& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end;
}

// A cursor over one JSON text. Every scan first skips whitespace (space,
// tab, CR, LF). A scan that fails returns false and records the first
// error with its byte offset; status() reports it as
// "<context> at offset <n>: <message>".
class JsonReader {
 public:
  JsonReader(std::string_view in, std::string_view context)
      : in_(in), context_(context) {}

  // True when nothing but whitespace is left.
  bool AtEnd();
  // Requires AtEnd(); fails with "trailing characters" otherwise.
  bool ExpectEnd();
  // Consumes `c` if it comes next.
  bool Consume(char c);
  // Consumes `c`, or fails.
  bool Expect(char c);

  // Scans a string. The view points into the input, or into a buffer of
  // the reader when the string has escapes; it is valid until the next
  // String call. Only ASCII \u escapes are accepted.
  bool String(std::string_view& out);
  bool String(std::string& out);
  // Consumes `"name":`; any other key fails.
  bool Key(std::string_view name);
  // Reads a string naming one of `kinds` (as spelled by `name_of`); `what`
  // names the kind in the error.
  template <typename Kind, size_t N>
  bool Name(const Kind (&kinds)[N], const char* (*name_of)(Kind),
            std::string_view what, Kind& out);

  bool Int64(int64_t& out);
  bool Int32(int32_t& out);  // fails outside int32_t's range
  bool Uint64(uint64_t& out);
  bool Double(double& out);
  bool Bool(bool& out);

  // `[e, ...]`: calls elem() for each element; elem returns false after
  // failing the reader.
  template <typename Elem>
  bool Array(Elem&& elem);
  // `{"k": v, ...}` in any key order: calls member(key) positioned at each
  // value; member returns false after failing the reader.
  template <typename Member>
  bool Object(Member&& member);
  // One JSON Lines record: Object(member) followed by the end of input,
  // so trailing characters are always rejected.
  template <typename Member>
  bool FlatObject(Member&& member) {
    return Object(member) && ExpectEnd();
  }

  // Records `message` at the current offset unless an error is already
  // recorded; returns false.
  bool Fail(std::string_view message);
  // OK, or InvalidArgument carrying the first recorded error.
  Status status() const;

 private:
  template <typename T>
  bool Integer(T& out);
  void SkipSpace();

  std::string_view in_;
  std::string_view context_;
  size_t pos_ = 0;
  std::string error_;
  std::string unescaped_;
};

template <typename Kind, size_t N>
bool JsonReader::Name(const Kind (&kinds)[N], const char* (*name_of)(Kind),
                      std::string_view what, Kind& out) {
  std::string_view name;
  if (!String(name)) return false;
  for (const Kind k : kinds) {
    if (name == name_of(k)) {
      out = k;
      return true;
    }
  }
  return Fail("unknown " + std::string(what) + ": " + std::string(name));
}

template <typename Elem>
bool JsonReader::Array(Elem&& elem) {
  if (!Expect('[')) return false;
  if (Consume(']')) return true;
  do {
    if (!elem()) return false;
  } while (Consume(','));
  return Expect(']');
}

template <typename Member>
bool JsonReader::Object(Member&& member) {
  if (!Expect('{')) return false;
  if (Consume('}')) return true;
  do {
    std::string_view key;
    if (!String(key) || !Expect(':') || !member(key)) return false;
  } while (Consume(','));
  return Expect('}');
}

// Bookkeeping of a lenient JSON Lines read.
struct JsonlSkips {
  static constexpr size_t kMaxWarnings = 10;

  int64_t lines = 0;          // non-blank lines seen
  int64_t skipped_lines = 0;  // lines that failed to parse
  std::vector<std::string> warnings;  // first kMaxWarnings skip reasons
};

// Reads JSON Lines text: runs parse_line on a JsonReader over each line
// that is not blank (only whitespace); parse_line returns false after
// failing the reader. Strict (`lenient` null): stops at the first bad line
// and returns its error as "line <n>: <error>". Lenient: skips bad lines,
// counting them in *lenient, and returns OK.
Status ReadJsonl(std::string_view text, std::string_view context,
                 const std::function<bool(JsonReader&)>& parse_line,
                 JsonlSkips* lenient = nullptr);

}  // namespace hermes

#endif  // HERMES_COMMON_JSON_H_
