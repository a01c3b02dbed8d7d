/// \file
/// \brief Per-node accessibility classification of a document under an
/// access-control policy — the node-level companion of the type-level
/// view derivation (derive.h).
///
/// Where DeriveView asks "which *types* does a user group see", AccessMap
/// asks "which *nodes* of this document does it see, and why". The update
/// subsystem authorizes with it (docs/DESIGN.md §6): an update posed
/// through a view is rejected whole if its effect region touches a hidden
/// or condition-protected node, and the explain string names the deciding
/// annotation.

#ifndef SMOQE_VIEW_ACCESS_H_
#define SMOQE_VIEW_ACCESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/view/annotation.h"
#include "src/xml/dom.h"

namespace smoqe::view {

/// \brief Accessibility of every live node of one document under one
/// policy, with provenance to the deciding annotation.
///
/// Semantics (matching derive.h): the root is visible; an unannotated
/// edge inherits the parent node's status; Y forces visible (a hidden
/// node's descendants may surface through it); N forces hidden; [q] is
/// visible iff q holds at the node, and marks the node — and everything
/// that inherits through it — *condition-protected*. Text nodes inherit
/// their parent element's status.
class AccessMap {
 public:
  /// Classifies every live node of `doc`. Conditional annotations are
  /// evaluated with the reference evaluator, so Compute is as expensive
  /// as the qualifiers it runs; qualifier-free policies classify in one
  /// cheap tree walk.
  static AccessMap Compute(const Policy& policy, const xml::Document& doc);

  /// Whether the node is part of the view's virtual document.
  bool visible(int32_t node_id) const { return nodes_[node_id].visible; }

  /// Whether the node's exposure depends on a conditional annotation —
  /// its own edge or any edge it inherited through.
  bool condition_protected(int32_t node_id) const {
    return nodes_[node_id].cond_edge >= 0;
  }

  /// Renders the annotation that decided the node's visibility, e.g.
  /// "patient/pname : N", or "(visible by default)" if no annotation
  /// applies on the path.
  std::string DecidingAnnotation(int32_t node_id) const;

  /// Renders the nearest enclosing conditional annotation, e.g.
  /// "hospital/patient : [visit/treatment/medication = 'autism']".
  /// Only meaningful when condition_protected(node_id).
  std::string ProtectingCondition(int32_t node_id) const;

 private:
  struct NodeState {
    bool visible = true;
    int32_t vis_edge = -1;   ///< edges_ index deciding visibility, -1 = default
    int32_t cond_edge = -1;  ///< nearest enclosing conditional edge, -1 = none
  };

  /// One rendered annotated edge ("parent/child : ann").
  std::vector<std::string> edges_;
  std::vector<NodeState> nodes_;  // by node id; retired ids keep defaults
};

}  // namespace smoqe::view

#endif  // SMOQE_VIEW_ACCESS_H_
