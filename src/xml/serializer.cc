#include "src/xml/serializer.h"

#include <utility>

#include "src/common/strings.h"

namespace smoqe::xml {

namespace {

bool HasTextChild(const Node* node) {
  for (const Node* c = node->first_child; c != nullptr; c = c->next_sibling) {
    if (c->is_text()) return true;
  }
  return false;
}

// "<name a=\"v\"…" — the start tag without its closing '>' or "/>".
void AppendStartTag(const Node* node, const NameTable& names,
                    std::string* out) {
  *out += '<';
  *out += names.NameOf(node->label);
  for (uint32_t i = 0; i < node->num_attrs; ++i) {
    *out += ' ';
    *out += names.NameOf(node->attrs[i].name);
    *out += "=\"";
    AppendXmlEscaped(node->attrs[i].value, out);
    *out += '"';
  }
}

void SerializeRec(const Node* node, const NameTable& names,
                  const SerializeOptions& options, int depth, bool pretty,
                  std::string* out) {
  if (node->is_text()) {
    AppendXmlEscaped(node->text, out);
    return;
  }
  if (pretty) {
    out->append(static_cast<size_t>(depth * options.indent_width), ' ');
  }
  const std::string& name = names.NameOf(node->label);
  AppendStartTag(node, names, out);
  if (node->first_child == nullptr) {
    *out += "/>";
    if (pretty) *out += '\n';
    return;
  }
  *out += '>';
  // Elements containing text serialize inline even in pretty mode, so that
  // indentation never alters text content (the pretty form re-parses to the
  // same tree).
  bool pretty_children = pretty && !HasTextChild(node);
  if (pretty_children) *out += '\n';
  for (const Node* c = node->first_child; c != nullptr; c = c->next_sibling) {
    SerializeRec(c, names, options, depth + 1, pretty_children, out);
  }
  if (pretty_children) {
    out->append(static_cast<size_t>(depth * options.indent_width), ' ');
  }
  *out += "</";
  *out += name;
  *out += '>';
  if (pretty) *out += '\n';
}

}  // namespace

std::string SerializeNode(const Node* node, const NameTable& names,
                          SerializeOptions options) {
  std::string out;
  SerializeRec(node, names, options, 0, options.pretty, &out);
  return out;
}

Result<std::vector<std::string>> SerializeNodes(
    const std::vector<const Node*>& nodes, const NameTable& names,
    const Guardrail* guard) {
  std::vector<std::string> out(nodes.size());
  // [begin, end) of nodes[i]'s bytes in `buf` while its group is written.
  std::vector<std::pair<size_t, size_t>> spans(nodes.size());
  std::vector<size_t> open;  // indexes of nodes whose subtree is being written
  std::string buf;           // the current outermost node's bytes
  size_t charged = 0;        // scratch capacity already charged to `guard`
  auto charge_scratch = [&] {
    if (buf.capacity() > charged) {
      guard->ChargeBytes(buf.capacity() - charged);
      charged = buf.capacity();
    }
  };
  GuardTicker ticker(guard);
  size_t next = 0;  // the next node not yet met by a walk
  while (next < nodes.size()) {
    const size_t first = next;
    const Node* const top = nodes[first];
    buf.clear();
    // Iterative pre-order walk of `top`'s subtree over the sibling and
    // parent links; each pending node is met at its own start.
    const Node* n = top;
    for (bool done = false; !done;) {
      if (ticker.Due()) {
        charge_scratch();
        SMOQE_RETURN_IF_ERROR(ticker.Now());
      }
      for (; next < nodes.size() && nodes[next] == n; ++next) {
        spans[next].first = buf.size();
        open.push_back(next);
      }
      if (n->is_text()) {
        AppendXmlEscaped(n->text, &buf);
      } else {
        AppendStartTag(n, names, &buf);
        if (n->first_child != nullptr) {
          buf += '>';
          n = n->first_child;
          continue;
        }
        buf += "/>";
      }
      // `n` is complete: end its spans, then close every ancestor whose
      // last child it is, up to the next sibling or `top`.
      for (;;) {
        for (; !open.empty() && nodes[open.back()] == n; open.pop_back()) {
          spans[open.back()].second = buf.size();
        }
        if (n == top) {
          done = true;
          break;
        }
        if (n->next_sibling != nullptr) {
          n = n->next_sibling;
          break;
        }
        n = n->parent;
        buf += "</";
        buf += names.NameOf(n->label);
        buf += '>';
      }
    }
    if (guard != nullptr) {
      charge_scratch();
      size_t copied = 0;
      for (size_t k = first; k < next; ++k) {
        copied += spans[k].second - spans[k].first;
      }
      guard->ChargeBytes(copied);
      SMOQE_RETURN_IF_ERROR(guard->Check());
    }
    // Copy innermost first (reverse document order). Filled outermost
    // first, the small copies sit above the large ones at the heap top,
    // and once freed they keep glibc from trimming it (higher peak RSS on
    // deep genealogies).
    for (size_t k = next; k-- > first;) {
      out[k].assign(buf, spans[k].first, spans[k].second - spans[k].first);
    }
  }
  return out;
}

std::string SerializeDocument(const Document& doc, SerializeOptions options) {
  return SerializeNode(doc.root(), *doc.names(), options);
}

}  // namespace smoqe::xml
