/// \file
/// \brief View-checked update authorization — accept/reject semantics
/// over the view's access annotations (docs/DESIGN.md §6.2; the update
/// model of Mahfoud & Imine's secure-updating extension of the
/// security-view framework SMOQE reproduces).
///
/// An update posed through a view is rejected *whole* if its effect
/// region touches anything the user group cannot unconditionally see:
///
///  * delete/replace — every node of the removed subtree must be visible
///    and not condition-protected (deleting what you cannot see, or what
///    you only see because a qualifier currently holds, is denied);
///  * insert/replace — every edge the grafted fragment would create,
///    including the graft edge itself, must be free of N and [q]
///    annotations (writes may not create data that would be hidden from,
///    or conditionally exposed to, the writer).
///
/// The returned PermissionDenied names the violated annotation verbatim,
/// e.g. `update rejected: delete would remove hidden element 'pname'
/// (node 4), hidden by annotation 'patient/pname : N'`.

#ifndef SMOQE_UPDATE_AUTHORIZE_H_
#define SMOQE_UPDATE_AUTHORIZE_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/rxpath/naive_eval.h"
#include "src/update/applier.h"
#include "src/view/annotation.h"
#include "src/xml/dom.h"

namespace smoqe::update {

/// One node's accessibility under a policy, with the nodes whose incoming
/// edges decided it.
struct NodeAccess {
  bool visible = true;
  /// Node whose edge annotation decided `visible`; null = visible by
  /// default (no annotation on the path).
  const xml::Node* decided_by = nullptr;
  /// Node whose [q] edge is the nearest enclosing conditional annotation;
  /// null = no condition on the path.
  const xml::Node* protected_by = nullptr;

  bool condition_protected() const { return protected_by != nullptr; }
};

/// \brief Node accessibility as a fold over each node's root path
/// (matching derive.h): the root is visible; an unannotated edge inherits
/// the parent node's status; Y forces visible (a hidden node's
/// descendants may surface through it); N forces hidden; [q] is visible
/// iff q holds at the node, and marks the node — and everything that
/// inherits through it — *condition-protected*. Text nodes inherit their
/// parent element's status.
///
/// Nothing is computed up front: Of() folds a node's path on demand and
/// memoizes the ancestors it visits, and qualifiers run on the reference
/// evaluator (memoized per qualifier and node). One instance serves one
/// request over one immutable document.
class PathAccess {
 public:
  PathAccess(const view::Policy& policy, const xml::Document& doc)
      : policy_(policy), names_(*doc.names()), eval_(doc) {}

  /// The status of a live node of the document.
  NodeAccess Of(const xml::Node* n);

  /// The status of `child` given its parent's — the per-edge step.
  NodeAccess Step(const NodeAccess& parent, const xml::Node* child);

  /// Renders the annotation that decided `a.visible`, e.g.
  /// "patient/pname : N", or "(visible by default)".
  std::string DecidingAnnotation(const NodeAccess& a) const;

  /// Renders the nearest enclosing conditional annotation, e.g.
  /// "hospital/patient : [visit/treatment/medication = 'autism']", or
  /// "(unconditional)".
  std::string ProtectingCondition(const NodeAccess& a) const;

 private:
  std::string RenderEdge(const xml::Node* child) const;

  const view::Policy& policy_;
  const xml::NameTable& names_;
  rxpath::NaiveEvaluator eval_;
  std::unordered_map<const xml::Node*, NodeAccess> memo_;
};

/// Checks every edit of `script` (targets resolved to nodes of `doc`)
/// against the policy's node-level accessibility, folding only the
/// targets' root paths and removed subtrees. `doc` is only read, so it
/// may be a published snapshot that readers share.
/// OK = accepted; PermissionDenied = rejected whole, with the explain
/// string; other codes = malformed script.
Status AuthorizeScript(const view::Policy& policy, const xml::Document& doc,
                       const std::vector<ResolvedEdit>& script);

}  // namespace smoqe::update

#endif  // SMOQE_UPDATE_AUTHORIZE_H_
