#include "common/json.h"

#include <cstdio>

#include "common/str.h"

namespace hermes {

void AppendJsonString(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void JsonReader::SkipSpace() {
  while (pos_ < in_.size() && (in_[pos_] == ' ' || in_[pos_] == '\t' ||
                               in_[pos_] == '\r' || in_[pos_] == '\n')) {
    ++pos_;
  }
}

bool JsonReader::AtEnd() {
  SkipSpace();
  return pos_ == in_.size();
}

bool JsonReader::ExpectEnd() { return AtEnd() || Fail("trailing characters"); }

bool JsonReader::Consume(char c) {
  SkipSpace();
  if (pos_ < in_.size() && in_[pos_] == c) {
    ++pos_;
    return true;
  }
  return false;
}

bool JsonReader::Expect(char c) {
  return Consume(c) || Fail(StrCat("expected '", c, "'"));
}

bool JsonReader::String(std::string_view& out) {
  if (!Expect('"')) return false;
  const size_t start = pos_;
  const size_t stop = in_.find_first_of("\"\\", start);
  if (stop == std::string_view::npos) {
    pos_ = in_.size();
    return Fail("unterminated string");
  }
  if (in_[stop] == '"') {
    pos_ = stop + 1;
    out = in_.substr(start, stop - start);
    return true;
  }
  unescaped_.assign(in_.substr(start, stop - start));
  pos_ = stop;
  while (pos_ < in_.size()) {
    const char c = in_[pos_++];
    if (c == '"') {
      out = unescaped_;
      return true;
    }
    if (c != '\\') {
      unescaped_ += c;
      continue;
    }
    if (pos_ >= in_.size()) return Fail("dangling escape");
    switch (in_[pos_++]) {
      case '"':
        unescaped_ += '"';
        break;
      case '\\':
        unescaped_ += '\\';
        break;
      case '/':
        unescaped_ += '/';
        break;
      case 'b':
        unescaped_ += '\b';
        break;
      case 'f':
        unescaped_ += '\f';
        break;
      case 'n':
        unescaped_ += '\n';
        break;
      case 'r':
        unescaped_ += '\r';
        break;
      case 't':
        unescaped_ += '\t';
        break;
      case 'u': {
        const char* hex = in_.data() + pos_;
        uint16_t code = 0;
        if (pos_ + 4 > in_.size() ||
            std::from_chars(hex, hex + 4, code, 16).ptr != hex + 4) {
          return Fail("bad \\u escape");
        }
        if (code > 0x7f) return Fail("non-ASCII \\u escape unsupported");
        unescaped_ += static_cast<char>(code);
        pos_ += 4;
        break;
      }
      default:
        return Fail("unknown escape");
    }
  }
  return Fail("unterminated string");
}

bool JsonReader::String(std::string& out) {
  std::string_view view;
  if (!String(view)) return false;
  out.assign(view);
  return true;
}

bool JsonReader::Key(std::string_view name) {
  std::string_view got;
  if (!String(got)) return false;
  if (got != name) {
    return Fail(StrCat("expected key \"", name, "\", got \"", got, "\""));
  }
  return Expect(':');
}

template <typename T>
bool JsonReader::Integer(T& out) {
  SkipSpace();
  const char* begin = in_.data() + pos_;
  const auto [ptr, ec] = std::from_chars(begin, in_.data() + in_.size(), out);
  if (ec == std::errc::invalid_argument) return Fail("expected integer");
  pos_ += static_cast<size_t>(ptr - begin);
  return ec == std::errc() || Fail("integer out of range");
}

bool JsonReader::Int64(int64_t& out) { return Integer(out); }
bool JsonReader::Int32(int32_t& out) { return Integer(out); }
bool JsonReader::Uint64(uint64_t& out) { return Integer(out); }

bool JsonReader::Double(double& out) {
  SkipSpace();
  // JSON numbers start with a digit after the sign; from_chars would also
  // take "inf", "nan" and ".5".
  const size_t digit = pos_ + (pos_ < in_.size() && in_[pos_] == '-');
  if (digit >= in_.size() || in_[digit] < '0' || in_[digit] > '9') {
    return Fail("expected number");
  }
  const char* begin = in_.data() + pos_;
  const auto [ptr, ec] = std::from_chars(begin, in_.data() + in_.size(), out);
  pos_ += static_cast<size_t>(ptr - begin);
  return ec == std::errc() || Fail("number out of range");
}

bool JsonReader::Bool(bool& out) {
  SkipSpace();
  for (const bool value : {true, false}) {
    const std::string_view word = value ? "true" : "false";
    if (in_.substr(pos_, word.size()) == word) {
      out = value;
      pos_ += word.size();
      return true;
    }
  }
  return Fail("expected boolean");
}

bool JsonReader::Fail(std::string_view message) {
  if (error_.empty()) {
    error_ = StrCat(context_, " at offset ", pos_, ": ", message);
  }
  return false;
}

Status JsonReader::status() const {
  return error_.empty() ? Status::Ok() : Status::InvalidArgument(error_);
}

Status ReadJsonl(std::string_view text, std::string_view context,
                 const std::function<bool(JsonReader&)>& parse_line,
                 JsonlSkips* lenient) {
  size_t start = 0;
  int64_t line_no = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    JsonReader reader(text.substr(start, end - start), context);
    ++line_no;
    start = end + 1;
    if (reader.AtEnd()) continue;
    if (lenient != nullptr) ++lenient->lines;
    if (parse_line(reader)) continue;
    std::string message =
        StrCat("line ", line_no, ": ", reader.status().message());
    if (lenient == nullptr) return Status::InvalidArgument(std::move(message));
    ++lenient->skipped_lines;
    if (lenient->warnings.size() < JsonlSkips::kMaxWarnings) {
      lenient->warnings.push_back(std::move(message));
    }
  }
  return Status::Ok();
}

}  // namespace hermes
