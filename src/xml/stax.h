#ifndef SMOQE_XML_STAX_H_
#define SMOQE_XML_STAX_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"

namespace smoqe::xml {

/// Pull-parsing event kinds, mirroring the StAX (JSR-173) vocabulary the
/// paper's streaming mode consumes.
enum class StaxEvent {
  kStartDocument,
  kStartElement,
  kEndElement,
  kCharacters,
  kEndDocument,
};

/// Decoded attribute of a kStartElement event. Both fields are views with
/// the lifetimes StaxReader documents: `name` is always a view of the
/// input; `value` is one too unless it carried an entity reference.
struct StaxAttr {
  std::string_view name;
  std::string_view value;
};

/// Options controlling the scanner.
struct StaxOptions {
  /// Drop text events that consist solely of whitespace (the usual choice
  /// for data-centric XML; pretty-printed inputs parse to the same tree).
  bool skip_whitespace_text = true;
};

/// \brief Streaming XML pull reader (StAX mode).
///
/// One sequential, forward-only scan of the input; no document tree is
/// built. `Next()` advances to the next event. The DOM parser is a thin
/// layer over this reader, so both modes share one tokenizer.
///
/// Zero-copy: names, text and attribute values are `std::string_view`s.
/// Lifetimes:
///  * bytes that appear verbatim in the input (every element and
///    attribute name, a text run with no entity reference that a comment
///    or CDATA section does not split, the content of a CDATA section
///    standing alone, an attribute value with no entity reference) are
///    views of the input and live as long as the input does;
///  * decoded bytes (entity-bearing text and attribute values, text runs
///    joined across a comment or CDATA boundary) live in a buffer the
///    reader owns and are valid only until the next `Next()` call.
/// `IsInputView()` tells the two apart; a consumer that keeps an event's
/// strings past `Next()` must copy the decoded ones.
///
/// Errors are sticky: once `Next()` has returned an error, every later
/// call returns the same status and the scan point does not move.
///
/// Supported syntax: XML declaration, DOCTYPE (captured, see
/// `doctype_internal_subset()`), elements, attributes, text, CDATA,
/// comments, processing instructions, and the five built-in entities plus
/// numeric character references. Namespaces are treated as plain names
/// (prefix kept, no URI resolution) — the SMOQE data model is
/// namespace-free, like the paper's.
class StaxReader {
 public:
  explicit StaxReader(std::string_view input, StaxOptions options = {});

  /// Advances to the next event. After kEndDocument further calls keep
  /// returning kEndDocument; after an error (a malformed input or an
  /// injected `stax.read` fault) they keep returning that same error.
  Result<StaxEvent> Next();

  /// Element name; valid for kStartElement / kEndElement. Always a view
  /// of the input.
  std::string_view name() const { return name_; }
  /// Decoded text; valid for kCharacters.
  std::string_view text() const { return text_; }
  /// Decoded attributes; valid for kStartElement.
  const std::vector<StaxAttr>& attrs() const { return attrs_; }

  /// True iff `s` is a view of the input (it outlives the next `Next()`);
  /// false for bytes the reader decoded into its own buffer.
  bool IsInputView(std::string_view s) const;

  /// Raw text between '[' and ']' of the DOCTYPE internal subset, empty if
  /// none was present. Available once the reader has moved past the prolog.
  std::string_view doctype_internal_subset() const { return doctype_; }
  /// Root element name declared by DOCTYPE, empty if none.
  std::string_view doctype_name() const { return doctype_name_; }

  /// 1-based position of the current scan point (for error messages).
  /// Computed from the byte offset on each call, so O(offset): the scan
  /// itself tracks no line or column.
  int line() const;
  int column() const;

  /// Current element nesting depth (after the event: a kStartElement for
  /// the root reports depth 1).
  int depth() const { return static_cast<int>(open_.size()); }

 private:
  /// An attribute value decoded into `decoded_`: `attrs_[attr]` is
  /// pointed at its bytes once the start tag is complete (the buffer may
  /// still grow until then).
  struct DecodedValue {
    size_t attr;
    size_t begin;
    size_t len;
  };

  /// Builds the parse error for the scan point and keeps it in `error_`:
  /// every error `Next()` returns is made here or by the fault site.
  Status Error(std::string msg);
  void SkipWhitespace();
  bool Consume(std::string_view lit);
  /// The name at the scan point, or an empty view (scan point unmoved)
  /// if none starts there.
  std::string_view ReadName();
  Status DecodeEntity(std::string* out);
  Status ReadAttrValue(StaxAttr* attr);
  Status SkipComment();
  Status SkipProcessingInstruction();
  Status ReadDoctype();
  Status ReadStartTag();
  Result<bool> ReadTextRun();  // sets text_; false if only skippable ws
  /// Appends a verbatim segment to the current text run: the first
  /// segment stays a view, a second moves the run into `decoded_`.
  void AppendText(std::string_view seg);
  /// Moves the text run so far into `decoded_` (before decoding into it).
  void OwnText();
  char Peek() const { return pos_ < input_.size() ? input_[pos_] : '\0'; }

  std::string_view input_;
  StaxOptions options_;
  size_t pos_ = 0;
  bool started_ = false;
  bool done_ = false;
  bool saw_root_ = false;
  bool pending_end_ = false;  // self-closing tag: emit EndElement next
  bool text_owned_ = false;   // text_ is (being built) in decoded_
  Status error_;              // the error Next() returned; sticky
  std::vector<std::string_view> open_;
  std::string_view name_;
  std::string_view text_;
  std::vector<StaxAttr> attrs_;
  /// Decoded bytes of the current event (see the class comment).
  std::string decoded_;
  std::vector<DecodedValue> decoded_values_;
  std::string_view doctype_;
  std::string_view doctype_name_;
};

}  // namespace smoqe::xml

#endif  // SMOQE_XML_STAX_H_
