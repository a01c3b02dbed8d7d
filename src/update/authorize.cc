#include "src/update/authorize.h"

#include <string>

#include "src/rxpath/printer.h"

namespace smoqe::update {

NodeAccess PathAccess::Step(const NodeAccess& parent, const xml::Node* child) {
  if (child->is_text()) return parent;  // text inherits its element's status
  const view::Annotation* ann = policy_.Find(
      names_.NameOf(child->parent->label), names_.NameOf(child->label));
  if (ann == nullptr) return parent;
  switch (ann->kind) {
    case view::AnnKind::kAllow:
      return NodeAccess{true, child, parent.protected_by};
    case view::AnnKind::kDeny:
      return NodeAccess{false, child, parent.protected_by};
    case view::AnnKind::kCondition:
      return NodeAccess{eval_.QualifierHolds(*ann->condition, child), child,
                        child};
  }
  return parent;
}

NodeAccess PathAccess::Of(const xml::Node* n) {
  // Climb to the root or to the nearest ancestor already folded, then
  // fold back down, memoizing every node on the way.
  std::vector<const xml::Node*> path;
  NodeAccess state;  // the root: visible, decided by no annotation
  for (const xml::Node* a = n; a->parent != nullptr; a = a->parent) {
    auto it = memo_.find(a);
    if (it != memo_.end()) {
      state = it->second;
      break;
    }
    path.push_back(a);
  }
  for (auto it = path.rbegin(); it != path.rend(); ++it) {
    state = Step(state, *it);
    memo_.emplace(*it, state);
  }
  return state;
}

std::string PathAccess::RenderEdge(const xml::Node* child) const {
  const std::string& parent_name = names_.NameOf(child->parent->label);
  const std::string& child_name = names_.NameOf(child->label);
  const view::Annotation& ann = *policy_.Find(parent_name, child_name);
  std::string out = parent_name + "/" + child_name + " : ";
  switch (ann.kind) {
    case view::AnnKind::kAllow:
      out += "Y";
      break;
    case view::AnnKind::kDeny:
      out += "N";
      break;
    case view::AnnKind::kCondition:
      out += "[" + rxpath::ToString(*ann.condition) + "]";
      break;
  }
  return out;
}

std::string PathAccess::DecidingAnnotation(const NodeAccess& a) const {
  return a.decided_by == nullptr ? "(visible by default)"
                                 : RenderEdge(a.decided_by);
}

std::string PathAccess::ProtectingCondition(const NodeAccess& a) const {
  return a.protected_by == nullptr ? "(unconditional)"
                                   : RenderEdge(a.protected_by);
}

namespace {

std::string Describe(const xml::NameTable& names, const xml::Node* n) {
  return "element '" + names.NameOf(n->label) + "' (node " +
         std::to_string(n->node_id) + ")";
}

/// Rejects if any node of the subtree rooted at `t` (whose status is
/// `t_access`) is hidden or condition-protected — the delete/replace
/// effect region. The status is carried down the walk edge by edge.
Status CheckRemovedSubtree(PathAccess& access, const xml::NameTable& names,
                           const xml::Node* t, const NodeAccess& t_access,
                           const char* op) {
  std::vector<std::pair<const xml::Node*, NodeAccess>> stack = {
      {t, t_access}};
  while (!stack.empty()) {
    const auto [n, a] = stack.back();
    stack.pop_back();
    if (n->is_element()) {
      if (!a.visible) {
        return Status::PermissionDenied(
            std::string("update rejected: ") + op + " would remove hidden " +
            Describe(names, n) + ", hidden by annotation '" +
            access.DecidingAnnotation(a) + "'");
      }
      if (a.condition_protected()) {
        return Status::PermissionDenied(
            std::string("update rejected: ") + op + " would remove " +
            Describe(names, n) + ", which is condition-protected by "
            "annotation '" + access.ProtectingCondition(a) + "'");
      }
    }
    for (const xml::Node* c = n->first_child; c != nullptr;
         c = c->next_sibling) {
      stack.push_back({c, access.Step(a, c)});
    }
  }
  return Status::OK();
}

/// Rejects if grafting `frag_root` as a child of an element labeled
/// `graft_parent_label` would create any N- or [q]-annotated edge —
/// the graft edge itself or any edge inside the fragment. Pass
/// `graft_parent_label == kNoName` when there is no graft edge (a root
/// replacement): only the fragment's internal edges are checked.
Status CheckGraftedFragment(const view::Policy& policy,
                            const xml::NameTable& doc_names,
                            xml::NameId graft_parent_label,
                            const xml::Document& fragment, const char* op) {
  const xml::NameTable& fnames = *fragment.names();
  // (parent label name, node) pairs; the graft edge seeds the walk —
  // or, with no graft edge, the fragment root's own children do.
  std::vector<std::pair<const std::string*, const xml::Node*>> stack;
  if (graft_parent_label != xml::kNoName) {
    stack.push_back({&doc_names.NameOf(graft_parent_label), fragment.root()});
  } else {
    const std::string& root_name = fnames.NameOf(fragment.root()->label);
    for (const xml::Node* c = fragment.root()->first_child; c != nullptr;
         c = c->next_sibling) {
      if (c->is_element()) stack.push_back({&root_name, c});
    }
  }
  while (!stack.empty()) {
    auto [parent_name, n] = stack.back();
    stack.pop_back();
    const std::string& child_name = fnames.NameOf(n->label);
    const view::Annotation* ann = policy.Find(*parent_name, child_name);
    if (ann != nullptr && ann->kind != view::AnnKind::kAllow) {
      const bool deny = ann->kind == view::AnnKind::kDeny;
      return Status::PermissionDenied(
          std::string("update rejected: ") + op + " would create " +
          (deny ? "hidden" : "condition-protected") + " element '" +
          child_name + "' under '" + *parent_name + "', edge annotated '" +
          *parent_name + "/" + child_name + " : " +
          (deny ? "N" : "[...]") + "' in the policy");
    }
    for (const xml::Node* c = n->first_child; c != nullptr;
         c = c->next_sibling) {
      if (c->is_element()) stack.push_back({&child_name, c});
    }
  }
  return Status::OK();
}

}  // namespace

Status AuthorizeScript(const view::Policy& policy, const xml::Document& doc,
                       const std::vector<ResolvedEdit>& script) {
  const xml::NameTable& names = *doc.names();
  PathAccess access(policy, doc);
  for (const ResolvedEdit& e : script) {
    const xml::Node* t = e.target;
    if (t == nullptr || !t->is_element()) {
      return Status::InvalidArgument("edit has no element target");
    }
    // The anchor node itself must be unconditionally visible — for
    // inserts that is the parent written under, for removals the subtree
    // root (also covered by the subtree walk; checked here for the
    // sharper "target" wording).
    const NodeAccess a = access.Of(t);
    if (!a.visible) {
      return Status::PermissionDenied(
          "update rejected: target " + Describe(names, t) +
          " is hidden by annotation '" + access.DecidingAnnotation(a) + "'");
    }
    if (a.condition_protected()) {
      return Status::PermissionDenied(
          "update rejected: target " + Describe(names, t) +
          " is condition-protected by annotation '" +
          access.ProtectingCondition(a) + "'");
    }
    switch (e.kind) {
      case OpKind::kDelete:
        SMOQE_RETURN_IF_ERROR(
            CheckRemovedSubtree(access, names, t, a, "delete"));
        break;
      case OpKind::kReplace:
        SMOQE_RETURN_IF_ERROR(
            CheckRemovedSubtree(access, names, t, a, "replace"));
        // Root replacement has no graft edge, but the fragment's internal
        // edges must still be free of hidden/conditional annotations.
        SMOQE_RETURN_IF_ERROR(CheckGraftedFragment(
            policy, names,
            t->parent != nullptr ? t->parent->label : xml::kNoName,
            *e.fragment, "replace"));
        break;
      case OpKind::kInsert:
        SMOQE_RETURN_IF_ERROR(CheckGraftedFragment(
            policy, names, t->label, *e.fragment, "insert"));
        break;
    }
  }
  return Status::OK();
}

}  // namespace smoqe::update
