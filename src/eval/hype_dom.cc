#include "src/eval/hype_dom.h"

#include <algorithm>
#include <cstdint>
#include <utility>

namespace smoqe::eval {

namespace {

class DomAttrs : public AttrProvider {
 public:
  explicit DomAttrs(const xml::Node* node) : node_(node) {}
  std::optional<std::string_view> Find(xml::NameId name) const override {
    for (uint32_t i = 0; i < node_->num_attrs; ++i) {
      if (node_->attrs[i].name == name) return node_->attrs[i].view();
    }
    return std::nullopt;
  }

 private:
  const xml::Node* node_;
};

// Explain marks, one bit each, per document node id.
constexpr uint8_t kVisited = 1, kPruned = 2, kCandidate = 4, kAnswer = 8;

// One line per element of `doc`: its "VPCA" marks ('.' where unset),
// two spaces of indent per level, then its label.
std::string RenderMarks(const xml::Document& doc,
                        const std::vector<uint8_t>& marks) {
  std::string out;
  std::vector<std::pair<const xml::Node*, int>> stack = {{doc.root(), 0}};
  while (!stack.empty()) {
    auto [node, depth] = stack.back();
    stack.pop_back();
    for (int bit = 0; bit < 4; ++bit) {
      out += ((marks[node->node_id] >> bit) & 1) != 0 ? "VPCA"[bit] : '.';
    }
    out += ' ';
    out.append(static_cast<size_t>(depth) * 2, ' ');
    out += doc.names()->NameOf(node->label);
    out += '\n';
    // Children in reverse so the leftmost is rendered first.
    size_t first = stack.size();
    for (const xml::Node* c = node->first_child; c != nullptr;
         c = c->next_sibling) {
      if (c->is_element()) stack.emplace_back(c, depth + 1);
    }
    std::reverse(stack.begin() + static_cast<ptrdiff_t>(first), stack.end());
  }
  return out;
}

}  // namespace

Result<DomEvalResult> EvalHypeDom(const automata::Mfa& mfa,
                                  const xml::Document& doc,
                                  const DomEvalOptions& options,
                                  std::string* explain_tree) {
  if (mfa.names() != doc.names()) {
    return Status::InvalidArgument(
        "MFA and document must share one name table");
  }
  HypeEngine engine(mfa);
  DomEvalResult result;
  // Only an explain walk keeps marks; a plain walk pays one branch per
  // node for them.
  std::vector<uint8_t> marks;
  if (explain_tree != nullptr) {
    marks.assign(static_cast<size_t>(doc.num_nodes()), 0);
  }

  // The guard is polled before every event of the walk: an element's
  // Enter, a text node, an unpruned element's Leave. At each tick the
  // engine's allocations and the node map's growth since the last one
  // are charged.
  GuardTicker ticker(options.guard);
  std::vector<const xml::Node*>& node_map = result.nodes_by_engine_id;
  size_t map_charged = 0;  // node-map capacity already charged, in entries
  auto charge_and_check = [&]() -> Status {
    const size_t cap = node_map.capacity();
    options.guard->ChargeBytes(engine.TakeAllocBytes() +
                               (cap - map_charged) * sizeof(const xml::Node*));
    map_charged = cap;
    return ticker.Now();
  };

  // Stackless pre-order walk over the first-child, next-sibling and
  // parent links; `n` is entered once, and left once its subtree is done.
  const xml::Node* const root = doc.root();
  const xml::Node* n = root;
  for (;;) {
    if (ticker.Due()) SMOQE_RETURN_IF_ERROR(charge_and_check());
    if (n->is_text()) {
      engine.Text(n->text);
    } else {
      DomAttrs attrs(n);
      const DynamicBitset* types =
          options.tax != nullptr ? options.tax->DescendantTypes(n->node_id)
                                 : nullptr;
      HypeEngine::EnterResult r = engine.Enter(n->label, attrs, types);
      node_map.push_back(n);
      if (explain_tree != nullptr) {
        marks[n->node_id] |= kVisited | (r.can_skip_subtree ? kPruned : 0);
      }
      if (r.can_skip_subtree) {
        if (r.needs_direct_text) {
          engine.Text(xml::Document::DirectText(n));
        }
        engine.Leave();
        engine.mutable_stats()->nodes_pruned +=
            static_cast<uint64_t>(n->subtree_end - n->order - 1);
      } else if (n->first_child != nullptr) {
        n = n->first_child;
        continue;
      } else {
        if (ticker.Due()) SMOQE_RETURN_IF_ERROR(charge_and_check());
        engine.Leave();
      }
    }
    // `n` is done: leave every ancestor whose last child it is, up to the
    // next sibling or the root.
    while (n != root && n->next_sibling == nullptr) {
      n = n->parent;
      if (ticker.Due()) SMOQE_RETURN_IF_ERROR(charge_and_check());
      engine.Leave();
    }
    if (n == root) break;
    n = n->next_sibling;
  }
  // The walk's tail since the last tick (all of a small document) is
  // charged before the selection pass.
  if (options.guard != nullptr) SMOQE_RETURN_IF_ERROR(charge_and_check());

  const std::vector<int32_t>& ids = engine.FinishDocument();
  result.answers.reserve(ids.size());
  for (int32_t id : ids) {
    result.answers.push_back(result.nodes_by_engine_id[id]);
  }
  result.stats = engine.stats();
  if (explain_tree != nullptr) {
    for (int32_t id : engine.cans().NodeIds()) {
      marks[result.nodes_by_engine_id[id]->node_id] |= kCandidate;
    }
    for (const xml::Node* a : result.answers) marks[a->node_id] |= kAnswer;
    *explain_tree = RenderMarks(doc, marks);
  }
  return result;
}

}  // namespace smoqe::eval
