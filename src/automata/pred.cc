#include "src/automata/pred.h"

#include <cassert>

namespace smoqe::automata {

namespace {

// Plain recursion: HyPE evaluates a predicate per resolved instance, so
// this path must not allocate.
bool EvalNode(const Pred& p, int i, const std::vector<bool>& leaf_values) {
  const Pred::BNode& n = p.bnodes[i];
  switch (n.kind) {
    case Pred::BNode::Kind::kTrue:
      return true;
    case Pred::BNode::Kind::kLeaf:
      return leaf_values[n.leaf];
    case Pred::BNode::Kind::kNot:
      return !EvalNode(p, n.left, leaf_values);
    case Pred::BNode::Kind::kAnd:
      return EvalNode(p, n.left, leaf_values) &&
             EvalNode(p, n.right, leaf_values);
    case Pred::BNode::Kind::kOr:
      return EvalNode(p, n.left, leaf_values) ||
             EvalNode(p, n.right, leaf_values);
  }
  return false;
}

}  // namespace

bool Pred::Evaluate(const std::vector<bool>& leaf_values) const {
  assert(leaf_values.size() == leaf_obligations.size());
  return EvalNode(*this, root, leaf_values);
}

}  // namespace smoqe::automata
