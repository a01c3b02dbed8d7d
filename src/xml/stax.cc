#include "src/xml/stax.h"

#include <algorithm>
#include <array>
#include <functional>

#include "src/common/guardrail.h"
#include "src/common/strings.h"

namespace smoqe::xml {

namespace {

// Byte classes of the scanner, one table lookup per byte.
enum : uint8_t {
  kNameStart = 1,  // may start a name: ASCII letter or '_'
  kNameChar = 2,   // may continue a name: also digits, '-', '.', ':'
  kSpace = 4,      // std::isspace in the "C" locale
  kTextStop = 8,   // ends a verbatim text segment: '<', '&', NUL
};

constexpr std::array<uint8_t, 256> MakeByteClasses() {
  std::array<uint8_t, 256> t{};
  for (int i = 0; i < 256; ++i) {
    const char c = static_cast<char>(i);
    if (IsNameStartChar(c)) t[i] |= kNameStart;
    if (IsNameChar(c)) t[i] |= kNameChar;
    if (c == ' ' || (c >= '\t' && c <= '\r')) t[i] |= kSpace;
    if (c == '<' || c == '&' || c == '\0') t[i] |= kTextStop;
  }
  return t;
}

constexpr std::array<uint8_t, 256> kByteClass = MakeByteClasses();

inline bool Is(char c, uint8_t cls) {
  return (kByteClass[static_cast<unsigned char>(c)] & cls) != 0;
}

}  // namespace

StaxReader::StaxReader(std::string_view input, StaxOptions options)
    : input_(input), options_(options) {}

int StaxReader::line() const {
  return 1 + static_cast<int>(
                 std::count(input_.begin(), input_.begin() + pos_, '\n'));
}

int StaxReader::column() const {
  const size_t nl = pos_ == 0 ? std::string_view::npos
                              : input_.rfind('\n', pos_ - 1);
  return static_cast<int>(nl == std::string_view::npos ? pos_ + 1
                                                       : pos_ - nl);
}

bool StaxReader::IsInputView(std::string_view s) const {
  // std::less: a total order even over pointers into different objects.
  const std::less<const char*> before;
  return !before(s.data(), input_.data()) &&
         !before(input_.data() + input_.size(), s.data() + s.size());
}

Status StaxReader::Error(std::string msg) {
  msg += " at line ";
  msg += std::to_string(line());
  msg += ", column ";
  msg += std::to_string(column());
  error_ = Status::ParseError(std::move(msg));
  return error_;
}

void StaxReader::SkipWhitespace() {
  while (pos_ < input_.size() && Is(input_[pos_], kSpace)) ++pos_;
}

bool StaxReader::Consume(std::string_view lit) {
  if (input_.substr(pos_, lit.size()) != lit) return false;
  pos_ += lit.size();
  return true;
}

std::string_view StaxReader::ReadName() {
  const size_t start = pos_;
  if (pos_ >= input_.size() || !Is(input_[pos_], kNameStart)) return {};
  ++pos_;
  while (pos_ < input_.size() && Is(input_[pos_], kNameChar)) ++pos_;
  return input_.substr(start, pos_ - start);
}

Status StaxReader::DecodeEntity(std::string* out) {
  // Caller consumed '&'.
  size_t semi = input_.find(';', pos_);
  if (semi == std::string_view::npos || semi - pos_ > 10) {
    return Error("unterminated entity reference");
  }
  std::string_view ent = input_.substr(pos_, semi - pos_);
  if (ent == "amp") {
    *out += '&';
  } else if (ent == "lt") {
    *out += '<';
  } else if (ent == "gt") {
    *out += '>';
  } else if (ent == "quot") {
    *out += '"';
  } else if (ent == "apos") {
    *out += '\'';
  } else if (!ent.empty() && ent[0] == '#') {
    int base = 10;
    std::string_view digits = ent.substr(1);
    if (!digits.empty() && (digits[0] == 'x' || digits[0] == 'X')) {
      base = 16;
      digits = digits.substr(1);
    }
    if (digits.empty()) return Error("empty character reference");
    uint32_t code = 0;
    for (char c : digits) {
      int d;
      if (c >= '0' && c <= '9') {
        d = c - '0';
      } else if (base == 16 && c >= 'a' && c <= 'f') {
        d = c - 'a' + 10;
      } else if (base == 16 && c >= 'A' && c <= 'F') {
        d = c - 'A' + 10;
      } else {
        return Error("malformed character reference");
      }
      code = code * static_cast<uint32_t>(base) + static_cast<uint32_t>(d);
      if (code > 0x10FFFF) return Error("character reference out of range");
    }
    // XML 1.0 Char production: NUL, C0 controls (other than tab/LF/CR)
    // and surrogate halves are not XML characters. Rejecting them here
    // also protects downstream consumers that treat text as
    // NUL-terminated C strings.
    if (code == 0 ||
        (code < 0x20 && code != 0x9 && code != 0xA && code != 0xD) ||
        (code >= 0xD800 && code <= 0xDFFF)) {
      return Error("character reference to an invalid XML character");
    }
    // UTF-8 encode.
    if (code < 0x80) {
      *out += static_cast<char>(code);
    } else if (code < 0x800) {
      *out += static_cast<char>(0xC0 | (code >> 6));
      *out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      *out += static_cast<char>(0xE0 | (code >> 12));
      *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      *out += static_cast<char>(0xF0 | (code >> 18));
      *out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (code & 0x3F));
    }
  } else {
    return Error("unknown entity '&" + std::string(ent) + ";'");
  }
  pos_ = semi + 1;
  return Status::OK();
}

Status StaxReader::ReadAttrValue(StaxAttr* attr) {
  const char quote = Peek();
  if (quote != '"' && quote != '\'') {
    return Error("expected quoted attribute value");
  }
  ++pos_;
  const size_t start = pos_;
  // Verbatim up to the closing quote unless an entity reference comes
  // first; from there on, the value is decoded into `decoded_`.
  bool decoding = false;
  size_t begin = 0;
  while (true) {
    if (pos_ >= input_.size()) return Error("unterminated attribute value");
    const char c = input_[pos_];
    if (c == quote) {
      if (!decoding) {
        attr->value = input_.substr(start, pos_ - start);
      } else {
        decoded_values_.push_back(
            DecodedValue{attrs_.size(), begin, decoded_.size() - begin});
      }
      ++pos_;
      return Status::OK();
    }
    if (c == '<') return Error("'<' not allowed in attribute value");
    if (c == '\0') return Error("NUL byte in attribute value");
    if (c == '&') {
      if (!decoding) {
        decoding = true;
        begin = decoded_.size();
        decoded_.append(input_.substr(start, pos_ - start));
      }
      ++pos_;
      SMOQE_RETURN_IF_ERROR(DecodeEntity(&decoded_));
    } else {
      if (decoding) decoded_ += c;
      ++pos_;
    }
  }
}

Status StaxReader::SkipComment() {
  // Caller consumed "<!--".
  size_t end = input_.find("-->", pos_);
  if (end == std::string_view::npos) return Error("unterminated comment");
  pos_ = end + 3;
  return Status::OK();
}

Status StaxReader::SkipProcessingInstruction() {
  // Caller consumed "<?".
  size_t end = input_.find("?>", pos_);
  if (end == std::string_view::npos) {
    return Error("unterminated processing instruction");
  }
  pos_ = end + 2;
  return Status::OK();
}

Status StaxReader::ReadDoctype() {
  // Caller consumed "<!DOCTYPE".
  SkipWhitespace();
  doctype_name_ = ReadName();
  if (doctype_name_.empty()) return Error("expected a name");
  // Scan to the closing '>', capturing an internal subset if present and
  // skipping SYSTEM/PUBLIC external identifiers.
  while (true) {
    if (pos_ >= input_.size()) return Error("unterminated DOCTYPE");
    char c = Peek();
    if (c == '[') {
      ++pos_;
      size_t start = pos_;
      int depth = 1;
      while (pos_ < input_.size() && depth > 0) {
        if (input_[pos_] == '[') ++depth;
        if (input_[pos_] == ']') --depth;
        if (depth > 0) ++pos_;
      }
      if (depth != 0) return Error("unterminated DOCTYPE internal subset");
      doctype_ = input_.substr(start, pos_ - start);
      ++pos_;  // ']'
    } else if (c == '>') {
      ++pos_;
      return Status::OK();
    } else if (c == '"' || c == '\'') {
      char quote = c;
      ++pos_;
      while (pos_ < input_.size() && Peek() != quote) ++pos_;
      if (pos_ >= input_.size()) return Error("unterminated DOCTYPE literal");
      ++pos_;
    } else {
      ++pos_;
    }
  }
}

void StaxReader::OwnText() {
  if (text_owned_) return;
  decoded_.assign(text_);
  text_owned_ = true;
}

void StaxReader::AppendText(std::string_view seg) {
  if (seg.empty()) return;
  if (!text_owned_ && text_.empty()) {
    text_ = seg;
    return;
  }
  OwnText();
  decoded_.append(seg);
}

Result<bool> StaxReader::ReadTextRun() {
  text_ = {};
  text_owned_ = false;
  decoded_.clear();
  bool nonspace = false;
  while (pos_ < input_.size()) {
    // The verbatim segment up to the next '<', '&' or NUL.
    const size_t start = pos_;
    while (pos_ < input_.size() && !Is(input_[pos_], kTextStop)) {
      if (!Is(input_[pos_], kSpace)) nonspace = true;
      ++pos_;
    }
    AppendText(input_.substr(start, pos_ - start));
    if (pos_ >= input_.size()) break;
    const char c = input_[pos_];
    if (c == '<') {
      if (input_.substr(pos_, 9) == "<![CDATA[") {
        pos_ += 9;
        size_t end = input_.find("]]>", pos_);
        if (end == std::string_view::npos) return Error("unterminated CDATA");
        const std::string_view cdata = input_.substr(pos_, end - pos_);
        for (char d : cdata) {
          if (!Is(d, kSpace)) nonspace = true;
        }
        AppendText(cdata);
        pos_ = end + 3;
        continue;
      }
      if (input_.substr(pos_, 4) == "<!--") {
        pos_ += 4;
        SMOQE_RETURN_IF_ERROR(SkipComment());
        continue;
      }
      break;  // a tag: end of text run
    }
    if (c == '&') {
      ++pos_;
      OwnText();
      SMOQE_RETURN_IF_ERROR(DecodeEntity(&decoded_));
      nonspace = true;  // decoded entities count as content even if space
      continue;
    }
    // NUL: not an XML character, and it would silently truncate the text
    // once stored as a C string in the document arena.
    return Error("NUL byte in character data");
  }
  if (text_owned_) text_ = decoded_;
  if (!nonspace && options_.skip_whitespace_text) return false;
  return !text_.empty();
}

Status StaxReader::ReadStartTag() {
  // Caller consumed '<'.
  name_ = ReadName();
  if (name_.empty()) return Error("expected a name");
  attrs_.clear();
  decoded_.clear();
  decoded_values_.clear();
  while (true) {
    SkipWhitespace();
    const char d = Peek();
    if (d == '>') {
      ++pos_;
      break;
    }
    if (d == '/') {
      ++pos_;
      if (!Consume(">")) return Error("malformed self-closing tag");
      pending_end_ = true;
      break;
    }
    if (d == '\0') return Error("unterminated start tag");
    StaxAttr attr;
    attr.name = ReadName();
    if (attr.name.empty()) return Error("expected a name");
    SkipWhitespace();
    if (!Consume("=")) return Error("expected '=' in attribute");
    SkipWhitespace();
    SMOQE_RETURN_IF_ERROR(ReadAttrValue(&attr));
    for (const StaxAttr& existing : attrs_) {
      if (existing.name == attr.name) {
        return Error("duplicate attribute '" + std::string(attr.name) + "'");
      }
    }
    attrs_.push_back(attr);
  }
  // `decoded_` is complete: point the decoded values at their bytes.
  for (const DecodedValue& v : decoded_values_) {
    attrs_[v.attr].value = std::string_view(decoded_.data() + v.begin, v.len);
  }
  open_.push_back(name_);
  saw_root_ = true;
  return Status::OK();
}

Result<StaxEvent> StaxReader::Next() {
  if (!error_.ok()) return error_;
  if (fault::At("stax.read")) {
    error_ = Status::IOError("injected tokenizer fault (stax.read)");
    return error_;
  }
  if (!started_) {
    started_ = true;
    return StaxEvent::kStartDocument;
  }
  if (done_) return StaxEvent::kEndDocument;
  if (pending_end_) {
    pending_end_ = false;
    name_ = open_.back();
    open_.pop_back();
    return StaxEvent::kEndElement;
  }

  while (true) {
    if (pos_ >= input_.size()) {
      if (!open_.empty()) {
        return Error("unexpected end of input: <" + std::string(open_.back()) +
                     "> is not closed");
      }
      if (!saw_root_) return Error("document has no root element");
      done_ = true;
      return StaxEvent::kEndDocument;
    }

    const char c = input_[pos_];
    if (c != '<') {
      if (open_.empty()) {
        // Text outside the root: only whitespace is allowed.
        while (pos_ < input_.size() && input_[pos_] != '<') {
          if (!Is(input_[pos_], kSpace)) {
            return Error("content outside the root element");
          }
          ++pos_;
        }
        continue;
      }
      SMOQE_ASSIGN_OR_RETURN(bool has_text, ReadTextRun());
      if (has_text) return StaxEvent::kCharacters;
      continue;
    }

    // '<' — dispatch on what follows.
    const char c1 = pos_ + 1 < input_.size() ? input_[pos_ + 1] : '\0';
    if (c1 == '/') {
      pos_ += 2;
      const std::string_view name = ReadName();
      if (name.empty()) return Error("expected a name");
      SkipWhitespace();
      if (!Consume(">")) return Error("malformed end tag");
      if (open_.empty()) {
        return Error("unmatched end tag </" + std::string(name) + ">");
      }
      if (open_.back() != name) {
        return Error("mismatched end tag: expected </" +
                     std::string(open_.back()) + ">, found </" +
                     std::string(name) + ">");
      }
      name_ = name;
      open_.pop_back();
      return StaxEvent::kEndElement;
    }
    if (c1 == '?') {
      if (Consume("<?xml")) {
        size_t end = input_.find("?>", pos_);
        if (end == std::string_view::npos) {
          return Error("unterminated XML declaration");
        }
        pos_ = end + 2;
        continue;
      }
      pos_ += 2;
      SMOQE_RETURN_IF_ERROR(SkipProcessingInstruction());
      continue;
    }
    if (c1 == '!') {
      if (Consume("<!--")) {
        SMOQE_RETURN_IF_ERROR(SkipComment());
        continue;
      }
      if (input_.substr(pos_, 9) == "<![CDATA[") {
        if (open_.empty()) return Error("CDATA outside the root element");
        SMOQE_ASSIGN_OR_RETURN(bool has_text, ReadTextRun());
        if (has_text) return StaxEvent::kCharacters;
        continue;
      }
      if (Consume("<!DOCTYPE")) {
        if (saw_root_) return Error("DOCTYPE after the root element");
        SMOQE_RETURN_IF_ERROR(ReadDoctype());
        continue;
      }
      // Anything else after "<!" is a start tag with a bad name.
    }
    // Start tag.
    ++pos_;  // '<'
    if (open_.empty() && saw_root_) {
      return Error("multiple root elements");
    }
    SMOQE_RETURN_IF_ERROR(ReadStartTag());
    return StaxEvent::kStartElement;
  }
}

}  // namespace smoqe::xml
