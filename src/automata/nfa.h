#ifndef SMOQE_AUTOMATA_NFA_H_
#define SMOQE_AUTOMATA_NFA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/xml/name_table.h"

namespace smoqe::automata {

/// Index into an Mfa's predicate table.
using PredId = int32_t;

/// A child-step label test: a specific element name or any element.
struct LabelTest {
  xml::NameId label = xml::kNoName;
  bool wildcard = false;

  static LabelTest Wildcard() { return LabelTest{xml::kNoName, true}; }
  static LabelTest Name(xml::NameId id) { return LabelTest{id, false}; }

  bool Matches(xml::NameId node_label) const {
    return wildcard || label == node_label;
  }
  bool operator==(const LabelTest& o) const {
    return wildcard == o.wildcard && (wildcard || label == o.label);
  }
};

/// \brief Thompson-construction NFA with ε-transitions, used only during
/// compilation. Predicates are *state annotations*: entering an annotated
/// state at a node charges the predicate at that node.
class BuildNfa {
 public:
  struct Transition {
    LabelTest test;
    int target;
  };

  int AddState() {
    eps_.emplace_back();
    trans_.emplace_back();
    anns_.emplace_back();
    return static_cast<int>(eps_.size()) - 1;
  }

  void AddEps(int from, int to) { eps_[from].push_back(to); }
  void AddTransition(int from, LabelTest test, int to) {
    trans_[from].push_back(Transition{test, to});
  }
  void Annotate(int state, PredId pred) { anns_[state].push_back(pred); }

  int num_states() const { return static_cast<int>(eps_.size()); }
  const std::vector<int>& eps(int s) const { return eps_[s]; }
  const std::vector<Transition>& trans(int s) const { return trans_[s]; }
  const std::vector<PredId>& anns(int s) const { return anns_[s]; }

 private:
  std::vector<std::vector<int>> eps_;
  std::vector<std::vector<Transition>> trans_;
  std::vector<std::vector<PredId>> anns_;
};

/// Sorted, deduplicated set of predicate ids charged together (a
/// conjunction). Empty means "unconditional".
using PredSet = std::vector<PredId>;

/// Merges two PredSets (set union, keeps sorted/unique form).
PredSet MergePredSets(const PredSet& a, const PredSet& b);

/// \brief ε-free runtime NFA. One transition-list scan per (run, document
/// step).
///
/// Semantics of a transition (see DESIGN.md §3): from node u in state
/// `src`, moving to a child w whose label passes `test`, charge
/// `src_preds` at u and `dst_preds` at w, continue in `target`.
/// Accept guards: a node entered in state s is accepted under any one of
/// `accept_guards[s]` (each alternative a conjunction charged at that
/// node). `initial` lists the (state, guard) pairs active at the context
/// node; `initial_accept_guards` are accept alternatives for the context
/// node itself (queries like "." that select their context).
class FlatNfa {
 public:
  struct Transition {
    LabelTest test;
    PredSet src_preds;
    PredSet dst_preds;
    int target;
  };

  struct State {
    std::vector<Transition> trans;
    std::vector<PredSet> accept_guards;
    /// Labels that EVERY accepting continuation (of ≥1 step) from this
    /// state must consume at least once (sorted). The TAX prune test: if
    /// any necessary label is absent from a subtree's descendant-type set,
    /// a run sitting at this state cannot accept inside that subtree.
    /// Computed as a greatest fixpoint (wildcard steps contribute no
    /// label), so `//`-style loops still yield useful sets — e.g. for
    /// `(*)*/parent/patient` the set is {parent, patient}.
    std::vector<xml::NameId> necessary_labels;
    /// True if acceptance is reachable at all from this state.
    bool live = true;
  };

  std::vector<State> states;
  std::vector<std::pair<int, PredSet>> initial;
  std::vector<PredSet> initial_accept_guards;

  int num_states() const { return static_cast<int>(states.size()); }
  size_t TransitionCount() const;

  /// Flattens a BuildNfa: eliminates ε-transitions, folding state
  /// annotations into per-transition charges and accept guards, and
  /// computes reachability metadata. `accepting` flags construction
  /// states.
  static FlatNfa Flatten(const BuildNfa& build, int start,
                         const std::vector<bool>& accepting);
};

}  // namespace smoqe::automata

#endif  // SMOQE_AUTOMATA_NFA_H_
