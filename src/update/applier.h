/// \file
/// \brief Atomic application of authorized edit scripts to a DOM
/// document, with DTD revalidation *before* any mutation and incremental
/// TAX maintenance after (docs/DESIGN.md §6.3–6.4).
///
/// All-or-nothing contract: Run() first plans and validates the whole
/// script against the DTD — nesting normalization, fragment validity,
/// simulated post-edit child sequences of every affected parent — and
/// only then mutates. The commit phase is pure pointer surgery plus arena
/// allocation and cannot fail, so a script either applies completely or
/// leaves the document (and its TAX index) untouched.

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
/// are always element nodes (Regular XPath selects elements).
struct ResolvedEdit {
  OpKind kind = OpKind::kDelete;
  xml::Node* target = nullptr;
  /// Fragment grafted by kInsert/kReplace (a copy per edit); null for
  /// kDelete. Owned by the caller (typically the UpdateStatement).
  const xml::Document* fragment = nullptr;
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

/// \brief Plans, validates and applies one edit script.
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
class UpdateApplier {
 public:
  UpdateApplier(xml::Document* doc, const ApplierOptions& options)
      : doc_(doc), options_(options) {}

  /// Validates without mutating (the dry-run entry).
  Status Validate(const std::vector<ResolvedEdit>& script);

  /// Validates, then applies. On error the document is untouched.
  Result<ApplyStats> Run(const std::vector<ResolvedEdit>& script);

 private:
  /// A committed plan: surviving edits plus chosen insert positions.
  struct PlannedEdit {
    ResolvedEdit edit;
    size_t elem_pos = 0;  ///< kInsert: element position under the parent
  };

  Status Plan(const std::vector<ResolvedEdit>& script,
              std::vector<PlannedEdit>* plan, uint64_t* dropped);
  Result<ApplyStats> Commit(const std::vector<PlannedEdit>& plan,
                            uint64_t dropped);

  xml::Document* doc_;
  ApplierOptions options_;
};

}  // namespace smoqe::update

#endif  // SMOQE_UPDATE_APPLIER_H_
