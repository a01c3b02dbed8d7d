/// \file
/// \brief Atomic application of authorized edit scripts to a DOM
/// document, with DTD revalidation *before* any mutation and incremental
/// TAX maintenance after (docs/DESIGN.md §6.3–6.4).
///
/// All-or-nothing contract: PlanScript() plans and validates the whole
/// script against the DTD — nesting normalization, fragment validity,
/// simulated post-edit child sequences of every affected parent —
/// without mutating anything, and only Commit() mutates. The commit
/// phase is pure pointer surgery plus arena allocation and cannot fail,
/// so a script either applies completely or leaves the document (and its
/// TAX index) untouched.

#ifndef SMOQE_UPDATE_APPLIER_H_
#define SMOQE_UPDATE_APPLIER_H_

#include <cstdint>
#include <vector>

#include "src/common/guardrail.h"
#include "src/common/status.h"
#include "src/index/tax.h"
#include "src/update/update_lang.h"
#include "src/xml/dom.h"
#include "src/xml/dtd.h"

namespace smoqe::update {

/// One edit of a script, resolved to a document node.
///
/// For kInsert, `target` is the *parent* the fragment is grafted under;
/// for kDelete/kReplace it is the subtree being removed/swapped. Targets
/// are always element nodes (Regular XPath selects elements). The engine
/// resolves them on the published snapshot, which it only reads: the
/// edit is committed onto a clone of it by node id (see EditPlan).
struct ResolvedEdit {
  OpKind kind = OpKind::kDelete;
  const xml::Node* target = nullptr;
  /// Fragment grafted by kInsert/kReplace (a copy per edit); null for
  /// kDelete. Owned by the caller (typically the UpdateStatement).
  const xml::Document* fragment = nullptr;
};

/// A validated script, ready to commit: the surviving edits keyed by
/// target node id, with their chosen insert positions. Node ids (and
/// order ranks) survive Document::Clone, so a plan made on a published
/// snapshot commits verbatim onto the snapshot's clone.
struct EditPlan {
  struct Step {
    OpKind kind = OpKind::kDelete;
    int32_t target = -1;  ///< node id
    const xml::Document* fragment = nullptr;
    size_t elem_pos = 0;  ///< kInsert: element position under the target
  };
  std::vector<Step> steps;
  uint64_t dropped = 0;  ///< duplicates and edits nested in a removal
};

/// Work counters of one applied script.
struct ApplyStats {
  uint64_t edits_applied = 0;    ///< after nesting normalization
  uint64_t edits_dropped = 0;    ///< nested inside another removed subtree
  uint64_t nodes_inserted = 0;
  uint64_t nodes_deleted = 0;
  uint64_t tax_sets_recomputed = 0;  ///< incremental repair work
};

struct ApplierOptions {
  /// Revalidation schema; when null only structural rules are enforced
  /// (root preservation, well-formed grafts).
  const xml::Dtd* dtd = nullptr;
  /// TAX index of the document, repaired incrementally across the update
  /// when non-null.
  index::TaxIndex* tax = nullptr;
  /// Per-request guardrail, checked per edit while planning and again
  /// before the commit. A guard trip (or an armed "update.apply" /
  /// "tax.repair" fault) during the commit's TAX maintenance may leave
  /// the *document object* mutated — the engine applies scripts to a
  /// pre-publish clone, so the published snapshot chain stays untouched.
  const Guardrail* guard = nullptr;
};

/// Plans and validates `script` against `doc` (whose nodes the targets
/// are) without mutating it — the dry-run entry. `options.tax` is not
/// read.
///
/// Insert position: a fragment is grafted at the *rightmost* element
/// position of its parent at which the projected child sequence still
/// matches the parent's content model (append-preferring; e.g. a new
/// `visit` lands after existing visits but before `parent` genealogy in
/// the hospital DTD). Without a DTD, inserts append after every child.
///
/// Nesting: an edit whose target lies inside another edit's removed
/// subtree is dropped (outermost wins — XQuery-Update-style snapshot
/// semantics); two different edits of the *same* node are an error.
Result<EditPlan> PlanScript(const xml::Document& doc,
                            const std::vector<ResolvedEdit>& script,
                            const ApplierOptions& options);

/// \brief Applies validated edit plans to one document.
class UpdateApplier {
 public:
  UpdateApplier(xml::Document* doc, const ApplierOptions& options)
      : doc_(doc), options_(options) {}

  /// Applies `plan`, made by PlanScript on this document or on the
  /// document this one was cloned from. A guard trip or the armed
  /// "update.apply" fault before the first mutation leaves the document
  /// untouched.
  Result<ApplyStats> Commit(const EditPlan& plan);

  /// PlanScript on this document, then Commit. On a planning error the
  /// document is untouched.
  Result<ApplyStats> Run(const std::vector<ResolvedEdit>& script);

 private:
  xml::Document* doc_;
  ApplierOptions options_;
};

}  // namespace smoqe::update

#endif  // SMOQE_UPDATE_APPLIER_H_
