#include "src/view/access.h"

#include <map>

#include "src/rxpath/naive_eval.h"
#include "src/rxpath/printer.h"

namespace smoqe::view {

namespace {

std::string RenderAnnotation(const std::string& parent,
                             const std::string& child, const Annotation& ann) {
  std::string out = parent + "/" + child + " : ";
  switch (ann.kind) {
    case AnnKind::kAllow:
      out += "Y";
      break;
    case AnnKind::kDeny:
      out += "N";
      break;
    case AnnKind::kCondition:
      out += "[" + rxpath::ToString(*ann.condition) + "]";
      break;
  }
  return out;
}

}  // namespace

AccessMap AccessMap::Compute(const Policy& policy, const xml::Document& doc) {
  AccessMap map;
  map.nodes_.resize(doc.num_nodes());
  rxpath::NaiveEvaluator eval(doc);
  // Rendered-edge interning so every node carries only indexes.
  std::map<std::pair<const void*, AnnKind>, int32_t> edge_ids;
  auto intern_edge = [&](const std::string& parent, const std::string& child,
                         const Annotation& ann) -> int32_t {
    auto key = std::make_pair(static_cast<const void*>(&ann), ann.kind);
    auto it = edge_ids.find(key);
    if (it != edge_ids.end()) return it->second;
    map.edges_.push_back(RenderAnnotation(parent, child, ann));
    int32_t id = static_cast<int32_t>(map.edges_.size()) - 1;
    edge_ids.emplace(key, id);
    return id;
  };

  const xml::NameTable& names = *doc.names();
  std::vector<const xml::Node*> stack = {doc.root()};
  // Root: visible, no deciding edge — the NodeState defaults.
  while (!stack.empty()) {
    const xml::Node* n = stack.back();
    stack.pop_back();
    const NodeState& cur = map.nodes_[n->node_id];
    const std::string& parent_name = names.NameOf(n->label);
    for (const xml::Node* c = n->first_child; c != nullptr;
         c = c->next_sibling) {
      NodeState& cs = map.nodes_[c->node_id];
      if (c->is_text()) {
        cs = cur;  // text inherits its parent element's status
        continue;
      }
      const std::string& child_name = names.NameOf(c->label);
      const Annotation* ann = policy.Find(parent_name, child_name);
      if (ann == nullptr) {
        cs = cur;
      } else {
        switch (ann->kind) {
          case AnnKind::kAllow:
            cs.visible = true;
            cs.vis_edge = intern_edge(parent_name, child_name, *ann);
            cs.cond_edge = cur.cond_edge;
            break;
          case AnnKind::kDeny:
            cs.visible = false;
            cs.vis_edge = intern_edge(parent_name, child_name, *ann);
            cs.cond_edge = cur.cond_edge;
            break;
          case AnnKind::kCondition: {
            int32_t edge = intern_edge(parent_name, child_name, *ann);
            cs.visible = eval.QualifierHolds(*ann->condition, c);
            cs.vis_edge = edge;
            cs.cond_edge = edge;
            break;
          }
        }
      }
      stack.push_back(c);
    }
  }
  return map;
}

std::string AccessMap::DecidingAnnotation(int32_t node_id) const {
  int32_t e = nodes_[node_id].vis_edge;
  return e < 0 ? "(visible by default)" : edges_[static_cast<size_t>(e)];
}

std::string AccessMap::ProtectingCondition(int32_t node_id) const {
  int32_t e = nodes_[node_id].cond_edge;
  return e < 0 ? "(unconditional)" : edges_[static_cast<size_t>(e)];
}

}  // namespace smoqe::view
