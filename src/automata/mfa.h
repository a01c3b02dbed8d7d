#ifndef SMOQE_AUTOMATA_MFA_H_
#define SMOQE_AUTOMATA_MFA_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/automata/nfa.h"
#include "src/automata/pred.h"
#include "src/common/status.h"
#include "src/rxpath/ast.h"

namespace smoqe::automata {

/// \brief Mixed finite state automaton (MFA) — the paper's representation
/// of a Regular XPath query (Fig. 4(a)).
///
/// An MFA is a selection NFA over child steps, annotated with predicate
/// automata: transitions and accept states charge predicates (`Pred`),
/// whose boolean structure alternates over path `Obligation`s, whose NFAs
/// may in turn charge further predicates — the alternating automata (AFA)
/// of the paper, in a factored form that HyPE executes in one pass.
///
/// The MFA of a query is **linear in the query size**: every AST node
/// contributes O(1) states (verified by MfaTest.SizeLinearInQuery and the
/// E1 benchmark).
class Mfa {
 public:
  Mfa() = default;
  Mfa(Mfa&&) = default;
  Mfa& operator=(Mfa&&) = default;

  /// Compiles a query. Labels are interned into `names` (shared with the
  /// documents the MFA will run on).
  static Result<Mfa> Compile(const rxpath::PathExpr& query,
                             std::shared_ptr<xml::NameTable> names);

  const FlatNfa& selection() const { return selection_; }
  const std::vector<Pred>& preds() const { return preds_; }
  const Pred& pred(PredId id) const { return preds_[id]; }
  const std::vector<Obligation>& obligations() const { return obligations_; }
  const Obligation& obligation(ObligationId id) const {
    return obligations_[id];
  }
  const std::shared_ptr<xml::NameTable>& names() const { return names_; }

  /// Total state / transition counts across the selection NFA and every
  /// obligation NFA (the |MFA| measure of experiment E1).
  size_t TotalStates() const;
  size_t TotalTransitions() const;

  /// Human-readable dump of the automaton structure — the textual
  /// counterpart of the iSMOQE automaton visualizer (Fig. 4(b)).
  std::string ToString() const;

  /// Graphviz rendering (dotted edges link annotated states to their
  /// predicate boxes, like the paper's figure).
  std::string ToDot() const;

 private:
  friend class MfaBuilder;

  FlatNfa selection_;
  std::vector<Pred> preds_;
  std::vector<Obligation> obligations_;
  std::shared_ptr<xml::NameTable> names_;
};

/// \brief Incremental MFA assembly, shared by the query compiler and the
/// view rewriter (which inlines σ-path fragments while compiling).
///
/// Usage: construct, compile paths/qualifiers into the tables, then
/// `Finish` with the selection automaton's start/accept states.
class MfaBuilder {
 public:
  explicit MfaBuilder(std::shared_ptr<xml::NameTable> names);

  /// The under-construction selection NFA.
  BuildNfa* build() { return &build_; }

  /// Compiles `path` as a fragment of the selection NFA from `in`; returns
  /// the fragment's exit state. Qualifiers become predicate annotations.
  int CompilePath(const rxpath::PathExpr& path, int in);

  /// Compiles a qualifier into the predicate table; returns its id.
  PredId CompileQualifier(const rxpath::Qualifier& qual);

  /// Compiles a path + accept test into the obligation table.
  ObligationId CompileObligation(const rxpath::PathExpr& path,
                                 AcceptTest test);

  /// Hook type for custom leaf compilation: receives the leaf qualifier
  /// (kPath / kTextEq / kAttr) and its ready-made accept test, and must
  /// register an obligation. The view rewriter uses this to compile
  /// qualifier paths with type-threaded σ inlining.
  using LeafCompiler =
      std::function<ObligationId(const rxpath::Qualifier&, AcceptTest)>;

  /// CompileQualifier with a custom leaf compiler.
  PredId CompileQualifierVia(const rxpath::Qualifier& qual,
                             const LeafCompiler& leaf);

  /// Registers an obligation whose NFA is produced by `body`, which runs
  /// against a fresh sub-automaton (the builder's working NFA is swapped
  /// for the duration): body(start) returns the accept states. Re-entrant:
  /// `body` may compile nested qualifiers/obligations through this
  /// builder.
  ObligationId CompileObligationVia(
      AcceptTest test, const std::function<std::vector<int>(int)>& body);

  /// Builds the AcceptTest for a leaf qualifier (interning attr names).
  AcceptTest MakeAcceptTest(const rxpath::Qualifier& leaf);

  /// Flattens and packages the result.
  Mfa Finish(int start, std::vector<int> accept_states);

  xml::NameTable* names() { return names_.get(); }

 private:
  std::shared_ptr<xml::NameTable> names_;
  BuildNfa build_;
  std::vector<Pred> preds_;
  std::vector<Obligation> obligations_;
};

}  // namespace smoqe::automata

#endif  // SMOQE_AUTOMATA_MFA_H_
