#ifndef SMOQE_INDEX_TAX_H_
#define SMOQE_INDEX_TAX_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/common/bitset.h"
#include "src/common/guardrail.h"
#include "src/common/status.h"
#include "src/xml/dom.h"

namespace smoqe::index {

/// \brief TAX — the Type-Aware XML index (paper §3, Indexer).
///
/// TAX classifies the descendants of every element node by element type:
/// for each node it stores the set of element types occurring *strictly
/// below* it. The evaluator consults this set before descending — if no
/// active automaton state can consume any type present in the subtree,
/// the whole subtree is pruned (experiment E6). Unlike interval labeling
/// schemes that only accelerate the ancestor/descendant test of `//`, the
/// type sets prune subtrees for queries with or without `//` (paper's
/// comparison).
///
/// Layout: type sets are interned. Each document id holds a 4-byte
/// reference into a table of distinct DynamicBitsets (bit positions =
/// NameIds of the shared name table); ref 0 means "no set" (text nodes and
/// retired ids). A document has few distinct descendant-type sets — a
/// 30k-node deep hospital ward has 17 — so the index costs about 4 bytes
/// per id instead of a bitset header plus a heap chunk per element. Built
/// in a single post-order pass, O(|T|·W) where W is words per set. The
/// compressed on-disk form is in tax_io.h (experiment E7).
class TaxIndex {
 public:
  /// Builds the index for `doc`. Width is the name-table size at call
  /// time, so types from other documents sharing the table are
  /// representable. Handles updated documents (retired ids, non-pre-order
  /// id assignment) — the build is a pointer walk, not an id sweep.
  static TaxIndex Build(const xml::Document& doc);

  /// Guarded build: ticks `guard` during the post-order walk and charges
  /// the reference array and every interned set against its budget. A
  /// tripped guard abandons the half-built index and returns the guard's
  /// status.
  static Result<TaxIndex> Build(const xml::Document& doc,
                                const Guardrail* guard);

  /// Descendant type set of the element with document id `node_id`
  /// (bits exclude the node's own label). Returns nullptr for text nodes.
  const DynamicBitset* DescendantTypes(int32_t node_id) const {
    const uint32_t ref = refs_[node_id];
    return ref == 0 ? nullptr : &sets_[ref];
  }

  /// Incrementally repairs the index after a structural edit whose lowest
  /// changed element is `parent` (docs/DESIGN.md §6.4): builds sets for
  /// nodes the edit grafted in (ids beyond the previous id range, or
  /// listed in `new_subtrees`), clears sets of retired ids, then
  /// recomputes the descendant-type set of `parent` and of every ancestor
  /// up to the root from their children's (now final) sets. Sets created
  /// here use the *current* name-table width; untouched sets keep their
  /// build-time width (the evaluator's prune test and DescendantTypes are
  /// width-tolerant, and EquivalentTo compares bits, not widths). A
  /// recomputed set whose bits are already in the table reuses that
  /// entry, whatever its width; sets no id refers to any more stay in the
  /// table (at most one per recomputed set) until the next Build.
  ///
  /// Call once per dirty parent of an edit script, after the script's
  /// mutations; any call order is correct because every chain runs to the
  /// root bottom-up. Returns the number of sets recomputed.
  size_t RepairAfterEdit(const xml::Document& doc, const xml::Node* parent,
                         const std::vector<const xml::Node*>& new_subtrees,
                         const std::vector<int32_t>& retired_ids);

  /// Guarded repair (the update path): same algorithm, plus guard ticks,
  /// budget charging, and the "tax.repair" fault site. On error the
  /// index is in an unspecified state — callers repair a throwaway copy
  /// and publish only on success (smoqe.cc UpdateImpl does exactly that).
  Result<size_t> RepairAfterEdit(const xml::Document& doc,
                                 const xml::Node* parent,
                                 const std::vector<const xml::Node*>& new_subtrees,
                                 const std::vector<int32_t>& retired_ids,
                                 const Guardrail* guard);

  /// True iff both indexes assign the same descendant-type bits to the
  /// same ids (width- and capacity-insensitive; retired/text slots count
  /// as empty). The contract of the incremental-vs-rebuild differential
  /// suite (E12).
  bool EquivalentTo(const TaxIndex& other) const;

  /// Number of distinct element types representable (bitset width).
  size_t type_width() const { return width_; }
  /// Number of indexed elements.
  size_t num_elements() const { return elements_; }
  /// Number of document ids the index has a slot for (DescendantTypes
  /// accepts exactly the ids below it).
  size_t num_ids() const { return refs_.size(); }
  /// Number of distinct descendant-type sets in the intern table.
  size_t distinct_sets() const { return sets_.size() - 1; }
  /// In-memory footprint of the (uncompressed) index: the per-id
  /// references plus the intern table.
  size_t memory_bytes() const;

  /// Structured dump (element path → type list) of the first `max_nodes`
  /// elements — the text analogue of iSMOQE's index view (Fig. 6).
  std::string Dump(const xml::Document& doc, int max_nodes = 50) const;

 private:
  friend class TaxIo;
  TaxIndex() : sets_(1) {}

  /// Returns the table reference of a set with `bits`' bits (width-
  /// insensitive), adding a copy of `bits` when it is new.
  uint32_t Intern(const DynamicBitset& bits);
  /// Recomputes one element's set from its children's sets (which must be
  /// final) in `scratch`, a buffer of the build or repair width.
  void RecomputeFromChildren(const xml::Node* n, DynamicBitset* scratch);
  /// Builds sets for every element of a freshly grafted subtree
  /// (post-order pointer walk) at width `width`. `ticker` may be null
  /// (unguarded); a tripped guard stops the walk mid-subtree.
  Status BuildSubtree(const xml::Node* subtree, size_t width,
                      size_t* recomputed, GuardTicker* ticker);
  /// Charges `guard` (may be null) for the table bytes added since the
  /// last charge.
  void ChargeNewSets(const Guardrail* guard);

  size_t width_ = 0;
  size_t elements_ = 0;
  // Indexed by document node id: a reference into sets_, 0 for text
  // nodes and retired ids.
  std::vector<uint32_t> refs_;
  // The intern table. sets_[0] is an empty placeholder that no element
  // refers to (a childless element refers to an interned empty set).
  std::vector<DynamicBitset> sets_;
  // Hash of a set's bits → its references.
  std::unordered_multimap<uint64_t, uint32_t> set_index_;
  size_t table_bytes_ = 0;    // bytes held by sets_ entries and set_index_
  size_t charged_bytes_ = 0;  // of table_bytes_, charged to a guard
};

}  // namespace smoqe::index

#endif  // SMOQE_INDEX_TAX_H_
