#ifndef SMOQE_XML_SERIALIZER_H_
#define SMOQE_XML_SERIALIZER_H_

#include <string>
#include <vector>

#include "src/common/guardrail.h"
#include "src/common/status.h"
#include "src/xml/dom.h"

namespace smoqe::xml {

/// Serialization options.
struct SerializeOptions {
  /// Pretty-print with indentation and one element per line; when false the
  /// output is a single compact line (round-trips losslessly for documents
  /// parsed with skip_whitespace_text).
  bool pretty = false;
  int indent_width = 2;
};

/// Serializes the subtree rooted at `node` to XML text. `names` must be the
/// table the node's document was built with.
std::string SerializeNode(const Node* node, const NameTable& names,
                          SerializeOptions options = {});

/// Serializes each of `nodes` (elements or text nodes of one document) in
/// the compact form: result i == SerializeNode(nodes[i], names). Each
/// outermost node is written once into a scratch buffer, and every node
/// nested inside it is copied out of that buffer as a span, so answers
/// that nest (recursive view queries) cost O(outermost bytes), not
/// O(Σ subtree bytes). Nesting is only shared when `nodes` is in document
/// order (as HyPE returns answers); any order gives the same strings.
///
/// `guard` (nullptr = ungoverned) is ticked per node; scratch growth and
/// the copied answer bytes are charged to its budget, and a trip returns
/// the guard's status with no partial result.
Result<std::vector<std::string>> SerializeNodes(
    const std::vector<const Node*>& nodes, const NameTable& names,
    const Guardrail* guard = nullptr);

/// Serializes a whole document.
std::string SerializeDocument(const Document& doc,
                              SerializeOptions options = {});

}  // namespace smoqe::xml

#endif  // SMOQE_XML_SERIALIZER_H_
