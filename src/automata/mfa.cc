#include "src/automata/mfa.h"

#include <functional>

#include "src/rxpath/printer.h"

namespace smoqe::automata {

using rxpath::PathExpr;
using rxpath::Qualifier;

MfaBuilder::MfaBuilder(std::shared_ptr<xml::NameTable> names)
    : names_(std::move(names)) {}

int MfaBuilder::CompilePath(const PathExpr& path, int in) {
  switch (path.kind()) {
    case PathExpr::Kind::kEmpty:
      return in;
    case PathExpr::Kind::kLabel: {
      int out = build_.AddState();
      build_.AddTransition(in, LabelTest::Name(names_->Intern(path.label())),
                           out);
      return out;
    }
    case PathExpr::Kind::kWildcard: {
      int out = build_.AddState();
      build_.AddTransition(in, LabelTest::Wildcard(), out);
      return out;
    }
    case PathExpr::Kind::kSeq: {
      int cur = in;
      for (const auto& part : path.parts()) cur = CompilePath(*part, cur);
      return cur;
    }
    case PathExpr::Kind::kUnion: {
      int out = build_.AddState();
      for (const auto& part : path.parts()) {
        int branch_in = build_.AddState();
        build_.AddEps(in, branch_in);
        int branch_out = CompilePath(*part, branch_in);
        build_.AddEps(branch_out, out);
      }
      return out;
    }
    case PathExpr::Kind::kStar: {
      // Classic Thompson star with dedicated entry/exit so annotations in
      // the body charge once per iteration at the right nodes.
      int body_in = build_.AddState();
      int out = build_.AddState();
      build_.AddEps(in, body_in);
      build_.AddEps(in, out);
      int body_out = CompilePath(path.body(), body_in);
      build_.AddEps(body_out, body_in);
      build_.AddEps(body_out, out);
      return out;
    }
    case PathExpr::Kind::kPred: {
      int base_out = CompilePath(*path.parts()[0], in);
      PredId pred = CompileQualifier(path.qual());
      // Entering the post-base state at a node charges the predicate there.
      // Route through a fresh annotated state so the annotation does not
      // leak onto unrelated paths sharing `base_out`.
      int out = build_.AddState();
      build_.AddEps(base_out, out);
      build_.Annotate(out, pred);
      return out;
    }
  }
  return in;
}

AcceptTest MfaBuilder::MakeAcceptTest(const Qualifier& leaf) {
  AcceptTest test;
  switch (leaf.kind()) {
    case Qualifier::Kind::kPath:
      test.kind = AcceptTest::Kind::kExists;
      break;
    case Qualifier::Kind::kTextEq:
      test.kind = AcceptTest::Kind::kTextEq;
      test.value = leaf.value();
      break;
    case Qualifier::Kind::kAttr:
      test.kind = leaf.has_value() ? AcceptTest::Kind::kAttrEq
                                   : AcceptTest::Kind::kAttrExists;
      test.attr = names_->Intern(leaf.attr_name());
      test.value = leaf.value();
      break;
    default:
      break;  // non-leaf kinds never reach here
  }
  return test;
}

PredId MfaBuilder::CompileQualifier(const Qualifier& qual) {
  return CompileQualifierVia(qual,
                             [this](const Qualifier& leaf, AcceptTest test) {
                               return CompileObligation(leaf.path(),
                                                        std::move(test));
                             });
}

PredId MfaBuilder::CompileQualifierVia(const Qualifier& qual,
                                       const LeafCompiler& leaf_compiler) {
  Pred pred;
  pred.description = rxpath::ToString(qual);

  std::function<int(const Qualifier&)> compile =
      [&](const Qualifier& q) -> int {
    Pred::BNode node;
    switch (q.kind()) {
      case Qualifier::Kind::kTrue:
        node.kind = Pred::BNode::Kind::kTrue;
        break;
      case Qualifier::Kind::kPath:
      case Qualifier::Kind::kTextEq:
      case Qualifier::Kind::kAttr: {
        node.kind = Pred::BNode::Kind::kLeaf;
        node.leaf = static_cast<int>(pred.leaf_obligations.size());
        pred.leaf_obligations.push_back(leaf_compiler(q, MakeAcceptTest(q)));
        break;
      }
      case Qualifier::Kind::kNot: {
        node.kind = Pred::BNode::Kind::kNot;
        node.left = compile(q.left());
        break;
      }
      case Qualifier::Kind::kAnd:
      case Qualifier::Kind::kOr: {
        node.kind = q.kind() == Qualifier::Kind::kAnd ? Pred::BNode::Kind::kAnd
                                                      : Pred::BNode::Kind::kOr;
        node.left = compile(q.left());
        node.right = compile(q.right());
        break;
      }
    }
    pred.bnodes.push_back(node);
    return static_cast<int>(pred.bnodes.size()) - 1;
  };

  pred.root = compile(qual);
  preds_.push_back(std::move(pred));
  return static_cast<PredId>(preds_.size()) - 1;
}

ObligationId MfaBuilder::CompileObligation(const PathExpr& path,
                                           AcceptTest test) {
  return CompileObligationVia(std::move(test), [&](int start) {
    return std::vector<int>{CompilePath(path, start)};
  });
}

ObligationId MfaBuilder::CompileObligationVia(
    AcceptTest test, const std::function<std::vector<int>(int)>& body) {
  // Each obligation gets its own NFA: the working automaton is swapped out
  // for the duration. Predicate/obligation tables are shared, so `body`
  // may recursively compile nested qualifiers through this builder.
  BuildNfa saved = std::move(build_);
  build_ = BuildNfa();
  int start = build_.AddState();
  std::vector<int> accepts = body(start);

  Obligation ob;
  std::vector<bool> accepting(build_.num_states(), false);
  for (int a : accepts) accepting[a] = true;
  ob.nfa = FlatNfa::Flatten(build_, start, accepting);
  ob.test = std::move(test);

  build_ = std::move(saved);
  obligations_.push_back(std::move(ob));
  return static_cast<ObligationId>(obligations_.size()) - 1;
}

Mfa MfaBuilder::Finish(int start, std::vector<int> accept_states) {
  std::vector<bool> accepting(build_.num_states(), false);
  for (int s : accept_states) accepting[s] = true;
  Mfa mfa;
  mfa.selection_ = FlatNfa::Flatten(build_, start, accepting);
  mfa.preds_ = std::move(preds_);
  mfa.obligations_ = std::move(obligations_);
  mfa.names_ = std::move(names_);
  return mfa;
}

Result<Mfa> Mfa::Compile(const PathExpr& query,
                         std::shared_ptr<xml::NameTable> names) {
  if (names == nullptr) {
    return Status::InvalidArgument("Mfa::Compile requires a name table");
  }
  MfaBuilder builder(std::move(names));
  int start = builder.build()->AddState();
  int out = builder.CompilePath(query, start);
  return builder.Finish(start, {out});
}

size_t Mfa::TotalStates() const {
  size_t n = selection_.states.size();
  for (const Obligation& ob : obligations_) n += ob.nfa.states.size();
  return n;
}

size_t Mfa::TotalTransitions() const {
  size_t n = selection_.TransitionCount();
  for (const Obligation& ob : obligations_) n += ob.nfa.TransitionCount();
  return n;
}

namespace {

std::string TestToString(const LabelTest& t, const xml::NameTable& names) {
  return t.wildcard ? "*" : names.NameOf(t.label);
}

std::string PredSetToString(const PredSet& s) {
  if (s.empty()) return "";
  std::string out = "{";
  for (size_t i = 0; i < s.size(); ++i) {
    if (i > 0) out += ",";
    out += "P" + std::to_string(s[i]);
  }
  out += "}";
  return out;
}

void DumpNfa(const FlatNfa& nfa, const xml::NameTable& names,
             const std::string& indent, std::string* out) {
  for (int s = 0; s < nfa.num_states(); ++s) {
    const FlatNfa::State& st = nfa.states[s];
    if (!st.live && st.trans.empty() && st.accept_guards.empty()) continue;
    *out += indent + "state " + std::to_string(s);
    if (!st.accept_guards.empty()) {
      *out += " ACCEPT";
      for (const PredSet& g : st.accept_guards) {
        *out += g.empty() ? "[]" : PredSetToString(g);
      }
    }
    *out += "\n";
    for (const FlatNfa::Transition& t : st.trans) {
      *out += indent + "  --" + TestToString(t.test, names);
      if (!t.src_preds.empty()) *out += " src" + PredSetToString(t.src_preds);
      if (!t.dst_preds.empty()) *out += " dst" + PredSetToString(t.dst_preds);
      *out += "--> " + std::to_string(t.target) + "\n";
    }
  }
}

}  // namespace

std::string Mfa::ToString() const {
  std::string out;
  out += "MFA: " + std::to_string(TotalStates()) + " states, " +
         std::to_string(TotalTransitions()) + " transitions, " +
         std::to_string(preds_.size()) + " predicates, " +
         std::to_string(obligations_.size()) + " obligations\n";
  out += "selection NFA (start " +
         std::to_string(selection_.initial.empty()
                            ? -1
                            : selection_.initial[0].first) +
         PredSetToString(selection_.initial.empty()
                             ? PredSet{}
                             : selection_.initial[0].second) +
         "):\n";
  DumpNfa(selection_, *names_, "  ", &out);
  for (size_t p = 0; p < preds_.size(); ++p) {
    out += "P" + std::to_string(p) + ": [" + preds_[p].description + "]  (";
    for (size_t i = 0; i < preds_[p].leaf_obligations.size(); ++i) {
      if (i > 0) out += ", ";
      out += "O" + std::to_string(preds_[p].leaf_obligations[i]);
    }
    out += ")\n";
  }
  for (size_t o = 0; o < obligations_.size(); ++o) {
    const Obligation& ob = obligations_[o];
    out += "O" + std::to_string(o) + " (";
    switch (ob.test.kind) {
      case AcceptTest::Kind::kExists:
        out += "exists";
        break;
      case AcceptTest::Kind::kTextEq:
        out += "text='" + ob.test.value + "'";
        break;
      case AcceptTest::Kind::kAttrExists:
        out += "@" + names_->NameOf(ob.test.attr);
        break;
      case AcceptTest::Kind::kAttrEq:
        out += "@" + names_->NameOf(ob.test.attr) + "='" + ob.test.value + "'";
        break;
    }
    out += "):\n";
    DumpNfa(ob.nfa, *names_, "  ", &out);
  }
  return out;
}

std::string Mfa::ToDot() const {
  std::string out = "digraph mfa {\n  rankdir=LR;\n";
  auto emit_nfa = [&](const FlatNfa& nfa, const std::string& prefix,
                      const std::string& color) {
    for (int s = 0; s < nfa.num_states(); ++s) {
      const FlatNfa::State& st = nfa.states[s];
      if (!st.live && st.trans.empty() && st.accept_guards.empty()) continue;
      std::string id = prefix + std::to_string(s);
      out += "  " + id + " [label=\"" + std::to_string(s) + "\"";
      if (!st.accept_guards.empty()) out += ", shape=doublecircle";
      out += ", color=" + color + "];\n";
      for (const FlatNfa::Transition& t : st.trans) {
        out += "  " + id + " -> " + prefix + std::to_string(t.target) +
               " [label=\"" + TestToString(t.test, *names_);
        if (!t.dst_preds.empty()) out += " " + PredSetToString(t.dst_preds);
        if (!t.src_preds.empty()) {
          out += " src" + PredSetToString(t.src_preds);
        }
        out += "\"];\n";
      }
    }
  };
  emit_nfa(selection_, "s", "black");
  for (size_t o = 0; o < obligations_.size(); ++o) {
    emit_nfa(obligations_[o].nfa, "o" + std::to_string(o) + "_", "blue");
  }
  // Dotted links from predicates to their obligations, like Fig. 4(a).
  for (size_t p = 0; p < preds_.size(); ++p) {
    std::string pid = "p" + std::to_string(p);
    out += "  " + pid + " [label=\"P" + std::to_string(p) +
           "\", shape=box, style=dashed];\n";
    for (ObligationId ob : preds_[p].leaf_obligations) {
      out += "  " + pid + " -> o" + std::to_string(ob) +
             "_0 [style=dotted];\n";
    }
  }
  out += "}\n";
  return out;
}

}  // namespace smoqe::automata
