/// \file
/// \brief Cans — the candidate-answer store — plus the guard and
/// predicate-instance records that HyPE's single pass resolves against
/// (docs/DESIGN.md §3.2).

#ifndef SMOQE_EVAL_CANS_H_
#define SMOQE_EVAL_CANS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/automata/nfa.h"

namespace smoqe::eval {

/// Index of a predicate instance in an engine run.
using InstId = int32_t;

/// Handle of a guard set interned in the engine's GuardPool (32-bit;
/// 0 = the empty, unconditional guard). Valid for one document traversal.
using GuardRef = int32_t;

/// One predicate instantiated at one anchor node during the traversal.
struct PredInstance {
  automata::PredId pred = -1;
  int32_t anchor = -1;  ///< engine (element pre-order) id of the anchor
  bool resolved = false;
  bool value = false;
  /// First of this instance's witness-list heads in the engine's head
  /// arena, one per leaf position of the predicate: the leaf is true iff
  /// some witness guard on its list is fully true at resolution time.
  int32_t witness_base = -1;
};

/// \brief Cans — the candidate-answer store of HyPE (paper §3, Evaluator).
///
/// During the single document traversal, nodes reached in an accepting
/// selection state are appended together with the guard (set of pending
/// predicate instances) of the run that reached them. After the traversal
/// — when every instance has resolved — one pass over Cans selects the
/// nodes with a fully-true guard alternative. Entries are appended at node
/// entry, so they are already in document order.
///
/// Storage is three flat arrays — nodes, their alternatives, and the
/// instance ids of every alternative back to back — so staging a
/// candidate costs no allocation of its own (docs/DESIGN.md §3.4).
class Cans {
 public:
  /// Stages node `id` under the guard `guard[0..len)` (sorted instance
  /// ids), copying it. Consecutive calls for the same node maintain a
  /// dominance-pruned alternative list (an empty guard makes the node
  /// unconditional and drops the other alternatives).
  void Add(int32_t id, const InstId* guard, size_t len);

  /// Number of staged candidate entries (Σ alternatives).
  size_t entry_count() const { return entries_; }
  /// Number of distinct candidate nodes.
  size_t node_count() const { return nodes_.size(); }
  /// Ids of the distinct candidate nodes, document order.
  std::vector<int32_t> NodeIds() const;

  /// The single post-traversal pass: returns ids (document order) whose
  /// guard alternatives contain one with every instance resolved true.
  std::vector<int32_t> Select(const std::vector<PredInstance>& instances) const;

  /// Bytes reserved by the flat arrays (never shrinks; the engine charges
  /// its growth to the request's budget).
  size_t capacity_bytes() const {
    return nodes_.capacity() * sizeof(Node) + alts_.capacity() * sizeof(Alt) +
           ids_.capacity() * sizeof(InstId);
  }

 private:
  /// A candidate node; its alternatives are alts_[alt_begin, next node's
  /// alt_begin).
  struct Node {
    int32_t id;
    uint32_t alt_begin;
  };
  /// One guard alternative: ids_[begin, begin + len).
  struct Alt {
    uint32_t begin;
    uint32_t len;
  };

  uint32_t AltEnd(size_t node) const {
    return node + 1 < nodes_.size() ? nodes_[node + 1].alt_begin
                                    : static_cast<uint32_t>(alts_.size());
  }

  std::vector<Node> nodes_;
  std::vector<Alt> alts_;
  std::vector<InstId> ids_;
  size_t entries_ = 0;
};

}  // namespace smoqe::eval

#endif  // SMOQE_EVAL_CANS_H_
