#ifndef SMOQE_COMMON_STRINGS_H_
#define SMOQE_COMMON_STRINGS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace smoqe {

/// Splits `s` on `sep`, keeping empty pieces.
std::vector<std::string_view> Split(std::string_view s, char sep);

/// Joins pieces with `sep`.
std::string Join(const std::vector<std::string>& pieces, std::string_view sep);

/// Removes leading/trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// True if `s` starts with / ends with the given prefix/suffix.
bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Appends `s` to `*out` with the five XML special characters (& < > " ')
/// escaped, copying each unescaped run in one append.
void AppendXmlEscaped(std::string_view s, std::string* out);

/// Escapes the five XML special characters (& < > " ') for text/attr output.
std::string XmlEscape(std::string_view s);

/// Appends `s` to `*out` as the body of a JSON string: '"' and '\\' are
/// backslash-escaped, \n \t \r get their short escapes and every other
/// control character becomes \u00XX, so distinct inputs stay distinct.
void AppendJsonEscaped(std::string_view s, std::string* out);

/// 64-bit FNV-1a hash. Stable across runs and platforms (used for plan
/// fingerprints that end up in cache keys, so std::hash's
/// implementation-defined values won't do).
uint64_t Fnv1a64(std::string_view s);

/// True for ASCII name-start / name characters of our XML-name subset
/// (letters, digits, '_', '-', '.', ':'; names start with a letter or '_').
/// constexpr so the tokenizer can build its byte-class table from them.
constexpr bool IsNameStartChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}
constexpr bool IsNameChar(char c) {
  return IsNameStartChar(c) || (c >= '0' && c <= '9') || c == '-' ||
         c == '.' || c == ':';
}
bool IsValidXmlName(std::string_view s);

}  // namespace smoqe

#endif  // SMOQE_COMMON_STRINGS_H_
