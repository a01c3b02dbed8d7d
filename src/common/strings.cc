#include "src/common/strings.h"

#include <cctype>
#include <cstdio>

namespace smoqe {

std::vector<std::string_view> Split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string Join(const std::vector<std::string>& pieces, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out += sep;
    out += pieces[i];
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  while (b < s.size() && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  size_t e = s.size();
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

void AppendXmlEscaped(std::string_view s, std::string* out) {
  size_t run = 0;  // start of the pending unescaped run
  for (size_t i = 0; i < s.size(); ++i) {
    const char* entity;
    switch (s[i]) {
      case '&':
        entity = "&amp;";
        break;
      case '<':
        entity = "&lt;";
        break;
      case '>':
        entity = "&gt;";
        break;
      case '"':
        entity = "&quot;";
        break;
      case '\'':
        entity = "&apos;";
        break;
      default:
        continue;
    }
    out->append(s.data() + run, i - run);
    out->append(entity);
    run = i + 1;
  }
  out->append(s.data() + run, s.size() - run);
}

std::string XmlEscape(std::string_view s) {
  std::string out;
  AppendXmlEscaped(s, &out);
  return out;
}

void AppendJsonEscaped(std::string_view s, std::string* out) {
  size_t run = 0;  // start of the pending unescaped run
  for (size_t i = 0; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out->append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\t':
        out->append("\\t");
        break;
      case '\r':
        out->append("\\r");
        break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out->append(buf);
      }
    }
  }
  out->append(s.data() + run, s.size() - run);
}

uint64_t Fnv1a64(std::string_view s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

bool IsValidXmlName(std::string_view s) {
  if (s.empty() || !IsNameStartChar(s[0])) return false;
  for (char c : s) {
    if (!IsNameChar(c)) return false;
  }
  return true;
}

}  // namespace smoqe
