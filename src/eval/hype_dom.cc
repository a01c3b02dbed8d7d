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

  // Iterative DFS. nullptr entries are Leave markers for the enclosing
  // element; text nodes become Text events.
  GuardTicker ticker(options.guard);
  std::vector<const xml::Node*> stack;
  stack.push_back(doc.root());
  while (!stack.empty()) {
    if (ticker.Due()) {
      options.guard->ChargeBytes(engine.TakeAllocBytes());
      Status guard_st = ticker.Now();
      if (!guard_st.ok()) return guard_st;
    }
    const xml::Node* node = stack.back();
    stack.pop_back();
    if (node == nullptr) {
      engine.Leave();
      continue;
    }
    if (node->is_text()) {
      engine.Text(node->text);
      continue;
    }
    DomAttrs attrs(node);
    const DynamicBitset* types =
        options.tax != nullptr ? options.tax->DescendantTypes(node->node_id)
                               : nullptr;
    HypeEngine::EnterResult r = engine.Enter(node->label, attrs, types);
    result.nodes_by_engine_id.push_back(node);
    if (explain_tree != nullptr) {
      marks[node->node_id] |= kVisited | (r.can_skip_subtree ? kPruned : 0);
    }
    if (r.can_skip_subtree) {
      if (r.needs_direct_text) {
        engine.Text(xml::Document::DirectText(node));
      }
      engine.Leave();
      engine.mutable_stats()->nodes_pruned += static_cast<uint64_t>(
          node->subtree_end - node->order - 1);
      continue;
    }
    stack.push_back(nullptr);
    // Children in reverse so the leftmost is processed first.
    size_t mark = stack.size();
    for (const xml::Node* c = node->first_child; c != nullptr;
         c = c->next_sibling) {
      stack.push_back(c);
    }
    std::reverse(stack.begin() + static_cast<ptrdiff_t>(mark), stack.end());
  }
  // The walk's tail since the last tick (all of a small document) is
  // charged before the selection pass.
  if (options.guard != nullptr) {
    options.guard->ChargeBytes(engine.TakeAllocBytes());
    SMOQE_RETURN_IF_ERROR(ticker.Now());
  }

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
    for (const xml::Node* n : result.answers) marks[n->node_id] |= kAnswer;
    *explain_tree = RenderMarks(doc, marks);
  }
  return result;
}

}  // namespace smoqe::eval
