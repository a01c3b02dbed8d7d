/// \file
/// \brief DOM-mode HyPE driver: one engine walk of an in-memory tree,
/// optionally pruned by the TAX type index (docs/DESIGN.md §3; E2/E6 in
/// §4) and optionally split across a thread pool at the root (§3.7), and
/// the iSMOQE explain tree rendered from that walk (§3.2).

#ifndef SMOQE_EVAL_HYPE_DOM_H_
#define SMOQE_EVAL_HYPE_DOM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/automata/mfa.h"
#include "src/common/counters.h"
#include "src/common/guardrail.h"
#include "src/common/status.h"
#include "src/eval/engine.h"
#include "src/index/tax.h"
#include "src/xml/dom.h"

namespace smoqe {
class ThreadPool;
}  // namespace smoqe

namespace smoqe::eval {

/// Options for DOM-mode evaluation.
struct DomEvalOptions {
  /// TAX index of the document; enables type-aware subtree pruning.
  const index::TaxIndex* tax = nullptr;
  /// Per-request guardrail (deadline/cancel/budget); nullptr = ungoverned.
  /// A tripped guard unwinds with its status — never a partial answer.
  const Guardrail* guard = nullptr;
  /// Pool to split the walk on; nullptr = serial. The walk splits only
  /// when the root's subtree has at least kSplitNodes nodes, the pool has
  /// more than one thread, no explain tree is asked for, and the root's
  /// frame is closed (`HypeEngine::FrameIsClosed`).
  ThreadPool* pool = nullptr;
};

/// Smallest root subtree (in nodes, text included) whose walk is split.
inline constexpr int32_t kSplitNodes = 8192;

/// Result of a DOM-mode evaluation.
struct DomEvalResult {
  std::vector<const xml::Node*> answers;  ///< document order, unique
  /// `dom_parts` is the number of engines the walk ran (1 = serial).
  EvalStats stats;
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
///
/// A split walk (see `DomEvalOptions::pool`) cuts the root's children
/// into contiguous groups and runs each group in its own engine, which
/// enters the root, walks its group and leaves the root. Its answers,
/// their order and these `stats` equal the serial walk's: the additive
/// walk counters, `answers` and `max_active_pairs`. Only
/// `guard_pool_entries`, `guard_pool_hits` and `run_dedup_probes` may
/// differ (each engine has its own tables), and `dom_parts` counts the
/// engines. Every part charges the shared budget and polls the guard at
/// its own ticks; if any part trips, the call returns the first failing
/// part's status in document order, and no answer.
Result<DomEvalResult> EvalHypeDom(const automata::Mfa& mfa,
                                  const xml::Document& doc,
                                  const DomEvalOptions& options = {},
                                  std::string* explain_tree = nullptr);

}  // namespace smoqe::eval

#endif  // SMOQE_EVAL_HYPE_DOM_H_
