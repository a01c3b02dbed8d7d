/// \file
/// \brief DOM-mode HyPE driver: one engine walk of an in-memory tree,
/// optionally pruned by the TAX type index (docs/DESIGN.md §3; E2/E6 in
/// §4), and the iSMOQE explain tree rendered from that walk (§3.2).

#ifndef SMOQE_EVAL_HYPE_DOM_H_
#define SMOQE_EVAL_HYPE_DOM_H_

#include <string>
#include <vector>

#include "src/automata/mfa.h"
#include "src/common/counters.h"
#include "src/common/guardrail.h"
#include "src/common/status.h"
#include "src/eval/engine.h"
#include "src/index/tax.h"
#include "src/xml/dom.h"

namespace smoqe::eval {

/// Options for DOM-mode evaluation.
struct DomEvalOptions {
  /// TAX index of the document; enables type-aware subtree pruning.
  const index::TaxIndex* tax = nullptr;
  /// Per-request guardrail (deadline/cancel/budget); nullptr = ungoverned.
  /// A tripped guard unwinds with its status — never a partial answer.
  const Guardrail* guard = nullptr;
};

/// Result of a DOM-mode evaluation.
struct DomEvalResult {
  std::vector<const xml::Node*> answers;  ///< document order, unique
  EvalStats stats;
  /// Engine-id → node mapping: every visited node (pruned subtrees have
  /// no ids).
  std::vector<const xml::Node*> nodes_by_engine_id;
};

/// \brief DOM-mode HyPE: drives the single-pass engine over an in-memory
/// document (paper §2, "DOM mode").
///
/// The MFA must have been compiled against `doc`'s name table. When
/// `explain_tree` is non-null, the walk also writes its iSMOQE explain
/// tree there: one line per element of `doc` with V=visited, P=pruned
/// (subtree skipped), C=candidate, A=answer — the text analogue of
/// iSMOQE's coloured tree mode. Elements under a pruned node are never
/// visited and show "....". Without it the walk records no marks.
Result<DomEvalResult> EvalHypeDom(const automata::Mfa& mfa,
                                  const xml::Document& doc,
                                  const DomEvalOptions& options = {},
                                  std::string* explain_tree = nullptr);

}  // namespace smoqe::eval

#endif  // SMOQE_EVAL_HYPE_DOM_H_
