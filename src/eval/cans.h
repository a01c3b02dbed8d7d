/// \file
/// \brief Cans — the candidate-answer store — plus the guard and
/// predicate-instance records that HyPE's single pass resolves against
/// (docs/DESIGN.md §3.2).

#ifndef SMOQE_EVAL_CANS_H_
#define SMOQE_EVAL_CANS_H_

#include <cstdint>
#include <vector>

#include "src/automata/nfa.h"

namespace smoqe::eval {

/// Index of a predicate instance in an engine run.
using InstId = int32_t;

/// Sorted conjunction of predicate-instance ids; empty = unconditional.
using GuardSet = std::vector<InstId>;

/// Handle of a guard set interned in the engine's GuardPool (32-bit;
/// 0 = the empty, unconditional guard). Valid for one document traversal.
using GuardRef = int32_t;

/// One predicate instantiated at one anchor node during the traversal.
struct PredInstance {
  automata::PredId pred = -1;
  int32_t anchor = -1;  ///< engine (element pre-order) id of the anchor
  bool resolved = false;
  bool value = false;
  /// Conditional witnesses per leaf position of the predicate: the leaf is
  /// true iff some witness guard is fully true at resolution time. Guards
  /// are GuardPool handles owned by the engine that built the instance.
  std::vector<std::vector<GuardRef>> leaf_witnesses;
};

/// \brief Cans — the candidate-answer store of HyPE (paper §3, Evaluator).
///
/// During the single document traversal, nodes reached in an accepting
/// selection state are appended together with the guard (set of pending
/// predicate instances) of the run that reached them. After the traversal
/// — when every instance has resolved — one pass over Cans selects the
/// nodes with a fully-true guard alternative. Entries are appended at node
/// entry, so they are already in document order.
class Cans {
 public:
  /// Stages node `id` under `guard`. Consecutive calls for the same node
  /// maintain a dominance-pruned alternative list (an empty guard makes
  /// the node unconditional and drops the other alternatives).
  void Add(int32_t id, GuardSet guard);

  /// Number of staged candidate entries (Σ alternatives).
  size_t entry_count() const { return entries_; }
  /// Number of distinct candidate nodes.
  size_t node_count() const { return nodes_.size(); }
  /// Ids of the distinct candidate nodes, document order.
  std::vector<int32_t> NodeIds() const;

  /// The single post-traversal pass: returns ids (document order) whose
  /// guard alternatives contain one with every instance resolved true.
  std::vector<int32_t> Select(const std::vector<PredInstance>& instances) const;

 private:
  struct Node {
    int32_t id;
    std::vector<GuardSet> alternatives;
  };
  std::vector<Node> nodes_;
  size_t entries_ = 0;
};

}  // namespace smoqe::eval

#endif  // SMOQE_EVAL_CANS_H_
