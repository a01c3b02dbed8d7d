#include "src/eval/hype_dom.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <utility>

#include "src/common/thread_pool.h"

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

/// One engine's walk over (part of) a document: the engine, its node map
/// (engine id → node, one entry per entered element; pruned subtrees get
/// no ids) and its guard ticker. A serial walk is one walker over the
/// whole tree; a split walk runs one per group of the root's children
/// (docs/DESIGN.md §3.7).
class DomWalker {
 public:
  DomWalker(const automata::Mfa& mfa, const DomEvalOptions& options,
            std::vector<uint8_t>* marks)
      : engine_(mfa),
        tax_(options.tax),
        guard_(options.guard),
        ticker_(options.guard),
        marks_(marks) {}

  HypeEngine& engine() { return engine_; }
  const xml::Node* NodeOf(int32_t id) const { return node_map_[id]; }

  /// Polls the guard, then enters the root; `*descend` is false when
  /// `Enter` pruned the whole tree.
  Status EnterRoot(const xml::Node* root, bool* descend) {
    if (ticker_.Due()) SMOQE_RETURN_IF_ERROR(ChargeAndCheck());
    *descend = Visit(root);
    return Status::OK();
  }

  /// Walks the children of `parent` from `n` up to `stop` (exclusive;
  /// nullptr = the last child) with their subtrees, then leaves `parent`.
  /// Stackless pre-order over the first-child, next-sibling and parent
  /// links. The guard is polled before every event: an element's Enter, a
  /// text node, an unpruned element's Leave. At each tick the engine's
  /// allocations and the node map's growth since the last one are
  /// charged.
  Status WalkChildren(const xml::Node* parent, const xml::Node* n,
                      const xml::Node* stop) {
    while (n != stop) {
      if (ticker_.Due()) SMOQE_RETURN_IF_ERROR(ChargeAndCheck());
      if (n->is_text()) {
        engine_.Text(n->text);
      } else if (Visit(n)) {
        if (n->first_child != nullptr) {
          n = n->first_child;
          continue;
        }
        if (ticker_.Due()) SMOQE_RETURN_IF_ERROR(ChargeAndCheck());
        engine_.Leave();
      }
      // `n` is done: leave every ancestor below `parent` whose last child
      // it is, up to the next sibling.
      while (n->parent != parent && n->next_sibling == nullptr) {
        n = n->parent;
        if (ticker_.Due()) SMOQE_RETURN_IF_ERROR(ChargeAndCheck());
        engine_.Leave();
      }
      n = n->next_sibling;
    }
    if (ticker_.Due()) SMOQE_RETURN_IF_ERROR(ChargeAndCheck());
    engine_.Leave();
    return Status::OK();
  }

  /// Charges the walk's tail since the last tick (all of a small
  /// document), runs the selection pass and appends the answers to `out`,
  /// without the root when `drop_root`.
  Status Finish(bool drop_root, std::vector<const xml::Node*>* out) {
    if (guard_ != nullptr) SMOQE_RETURN_IF_ERROR(ChargeAndCheck());
    const std::vector<int32_t>& ids = engine_.FinishDocument();
    // The root is engine id 0 in every walker.
    const size_t from = drop_root && !ids.empty() && ids[0] == 0 ? 1 : 0;
    out->reserve(out->size() + ids.size() - from);
    for (size_t i = from; i < ids.size(); ++i) {
      out->push_back(node_map_[ids[i]]);
    }
    return Status::OK();
  }

 private:
  /// Enters element `n`; true iff the walk descends into its children.
  /// A pruned element gets its direct text if a check waits on it and is
  /// left at once.
  bool Visit(const xml::Node* n) {
    DomAttrs attrs(n);
    const DynamicBitset* types =
        tax_ != nullptr ? tax_->DescendantTypes(n->node_id) : nullptr;
    HypeEngine::EnterResult r = engine_.Enter(n->label, attrs, types);
    node_map_.push_back(n);
    if (marks_ != nullptr) {
      (*marks_)[n->node_id] |=
          kVisited | (r.can_skip_subtree ? kPruned : 0);
    }
    if (!r.can_skip_subtree) return true;
    if (r.needs_direct_text) engine_.Text(xml::Document::DirectText(n));
    engine_.Leave();
    engine_.mutable_stats()->nodes_pruned +=
        static_cast<uint64_t>(n->subtree_end - n->order - 1);
    return false;
  }

  Status ChargeAndCheck() {
    const size_t cap = node_map_.capacity();
    guard_->ChargeBytes(engine_.TakeAllocBytes() +
                        (cap - map_charged_) * sizeof(const xml::Node*));
    map_charged_ = cap;
    return ticker_.Now();
  }

  HypeEngine engine_;
  const index::TaxIndex* tax_;
  const Guardrail* guard_;
  GuardTicker ticker_;
  std::vector<const xml::Node*> node_map_;
  size_t map_charged_ = 0;  // node-map capacity already charged, in entries
  std::vector<uint8_t>* marks_;  // explain marks, or nullptr
};

/// The first child of each group of the root's children, then nullptr:
/// group i is [starts[i], starts[i + 1]). Groups are contiguous and hold
/// at least max(2048, size / (4 · threads)) nodes each, so there are at
/// most four per thread for the pool to balance.
std::vector<const xml::Node*> GroupStarts(const xml::Node* root,
                                          int threads) {
  const int32_t min_group =
      std::max<int32_t>(2048, (root->subtree_end - root->order) /
                                  (4 * threads));
  std::vector<const xml::Node*> starts = {root->first_child};
  int32_t size = 0;  // of the group being filled
  for (const xml::Node* c = root->first_child; c != nullptr;
       c = c->next_sibling) {
    size += c->subtree_end - c->order;
    if (size >= min_group && c->next_sibling != nullptr) {
      starts.push_back(c->next_sibling);
      size = 0;
    }
  }
  // A short last group joins the one before it.
  if (starts.size() > 1 && size < min_group) starts.pop_back();
  starts.push_back(nullptr);
  return starts;
}

/// Adds an extra part's counters to `into`, less what its own entry into
/// the root counted (part 0 counted that once already). The guard-pool
/// figures belong to each engine's own tables and simply sum.
void AddPartStats(const EvalStats& part, const EvalStats& at_root,
                  EvalStats* into) {
  into->nodes_visited += part.nodes_visited - at_root.nodes_visited;
  into->subtrees_pruned += part.subtrees_pruned - at_root.subtrees_pruned;
  into->nodes_pruned += part.nodes_pruned - at_root.nodes_pruned;
  into->cans_entries += part.cans_entries - at_root.cans_entries;
  into->pred_instances += part.pred_instances - at_root.pred_instances;
  into->obligations += part.obligations - at_root.obligations;
  into->runs_deduped += part.runs_deduped - at_root.runs_deduped;
  into->run_dedup_probes += part.run_dedup_probes - at_root.run_dedup_probes;
  into->max_active_pairs =
      std::max(into->max_active_pairs, part.max_active_pairs);
  into->guard_pool_entries += part.guard_pool_entries;
  into->guard_pool_hits += part.guard_pool_hits;
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
  // Only an explain walk keeps marks; a plain walk pays one branch per
  // node for them.
  std::vector<uint8_t> marks;
  if (explain_tree != nullptr) {
    marks.assign(static_cast<size_t>(doc.num_nodes()), 0);
  }
  DomWalker first(mfa, options, explain_tree != nullptr ? &marks : nullptr);
  const xml::Node* const root = doc.root();
  bool descend = false;
  SMOQE_RETURN_IF_ERROR(first.EnterRoot(root, &descend));

  // Split at the root only when the walk is large enough to pay for the
  // extra engines and nothing below the root reaches outside its own
  // child subtree (§3.7).
  std::vector<const xml::Node*> starts;
  if (descend && explain_tree == nullptr && options.pool != nullptr &&
      options.pool->thread_count() > 1 &&
      root->subtree_end - root->order >= kSplitNodes &&
      first.engine().FrameIsClosed()) {
    starts = GroupStarts(root, options.pool->thread_count());
  }

  DomEvalResult result;
  if (starts.size() <= 2) {  // one part: the serial walk
    if (descend) {
      SMOQE_RETURN_IF_ERROR(
          first.WalkChildren(root, root->first_child, nullptr));
    }
    SMOQE_RETURN_IF_ERROR(first.Finish(/*drop_root=*/false, &result.answers));
    result.stats = first.engine().stats();
    result.stats.dom_parts = 1;
    if (explain_tree != nullptr) {
      for (int32_t id : first.engine().cans().NodeIds()) {
        marks[first.NodeOf(id)->node_id] |= kCandidate;
      }
      for (const xml::Node* a : result.answers) marks[a->node_id] |= kAnswer;
      *explain_tree = RenderMarks(doc, marks);
    }
    return result;
  }

  // Part 0 goes on with `first`; every other part enters the root in its
  // own engine, walks its group and leaves the root.
  struct Part {
    Status status;
    std::vector<const xml::Node*> answers;
    EvalStats stats;
    EvalStats at_root;  // stats right after its own Enter(root)
  };
  std::vector<Part> parts(starts.size() - 1);
  options.pool->ParallelFor(parts.size(), [&](size_t i) {
    Part& p = parts[i];
    auto walk = [&](DomWalker& w) -> Status {
      SMOQE_RETURN_IF_ERROR(w.WalkChildren(root, starts[i], starts[i + 1]));
      return w.Finish(/*drop_root=*/i > 0, &p.answers);
    };
    if (i == 0) {
      p.status = walk(first);
      p.stats = first.engine().stats();
      return;
    }
    DomWalker w(mfa, options, nullptr);
    bool entered = false;
    p.status = w.EnterRoot(root, &entered);
    assert(!p.status.ok() || entered);  // as in part 0: one Enter(root)
    p.at_root = w.engine().stats();
    if (p.status.ok()) p.status = walk(w);
    p.stats = w.engine().stats();
  });
  for (const Part& p : parts) SMOQE_RETURN_IF_ERROR(p.status);

  size_t total = 0;
  for (const Part& p : parts) total += p.answers.size();
  result.answers.reserve(total);
  result.stats = parts[0].stats;
  for (size_t i = 0; i < parts.size(); ++i) {
    result.answers.insert(result.answers.end(), parts[i].answers.begin(),
                          parts[i].answers.end());
    if (i > 0) AddPartStats(parts[i].stats, parts[i].at_root, &result.stats);
  }
  result.stats.answers = result.answers.size();
  result.stats.dom_parts = parts.size();
  return result;
}

}  // namespace smoqe::eval
