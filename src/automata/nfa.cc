#include "src/automata/nfa.h"

#include <algorithm>
#include <set>

#include "src/common/bitset.h"

namespace smoqe::automata {

PredSet MergePredSets(const PredSet& a, const PredSet& b) {
  PredSet out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

namespace {

PredSet Normalize(PredSet s) {
  std::sort(s.begin(), s.end());
  s.erase(std::unique(s.begin(), s.end()), s.end());
  return s;
}

bool IsSubset(const PredSet& a, const PredSet& b) {
  return std::includes(b.begin(), b.end(), a.begin(), a.end());
}

/// Inserts `g` into an antichain of minimal guard sets: drops it when a
/// weaker (subset) guard is already present, evicts stronger ones. A guard
/// is a conjunction, so fewer predicates ⇒ weaker condition ⇒ dominant.
void InsertGuard(std::vector<PredSet>* guards, PredSet g) {
  for (const PredSet& h : *guards) {
    if (IsSubset(h, g)) return;
  }
  guards->erase(
      std::remove_if(guards->begin(), guards->end(),
                     [&](const PredSet& h) { return IsSubset(g, h); }),
      guards->end());
  guards->push_back(std::move(g));
}

/// (state, guard) pairs with dominance pruning per state.
class PairSet {
 public:
  explicit PairSet(int num_states) : per_state_(num_states) {}

  /// Returns true if the pair was genuinely new (not dominated).
  bool Insert(int state, PredSet g) {
    std::vector<PredSet>& guards = per_state_[state];
    for (const PredSet& h : guards) {
      if (IsSubset(h, g)) return false;
    }
    guards.erase(
        std::remove_if(guards.begin(), guards.end(),
                       [&](const PredSet& h) { return IsSubset(g, h); }),
        guards.end());
    guards.push_back(std::move(g));
    return true;
  }

  template <typename Fn>
  void ForEach(Fn fn) const {
    for (size_t s = 0; s < per_state_.size(); ++s) {
      for (const PredSet& g : per_state_[s]) fn(static_cast<int>(s), g);
    }
  }

 private:
  std::vector<std::vector<PredSet>> per_state_;
};

/// ε-closure of `s` with guard accumulation: the closure contains (s, ∅);
/// following an ε edge into q' charges ann(q') at the current node.
PairSet Closure(const BuildNfa& build, int s) {
  PairSet pairs(build.num_states());
  std::vector<std::pair<int, PredSet>> work;
  pairs.Insert(s, {});
  work.emplace_back(s, PredSet{});
  while (!work.empty()) {
    auto [q, g] = std::move(work.back());
    work.pop_back();
    for (int q2 : build.eps(q)) {
      PredSet g2 = MergePredSets(g, Normalize(build.anns(q2)));
      if (pairs.Insert(q2, g2)) {
        work.emplace_back(q2, std::move(g2));
      }
    }
  }
  return pairs;
}

}  // namespace

size_t FlatNfa::TransitionCount() const {
  size_t n = 0;
  for (const State& s : states) n += s.trans.size();
  return n;
}

FlatNfa FlatNfa::Flatten(const BuildNfa& build, int start,
                         const std::vector<bool>& accepting) {
  FlatNfa flat;
  flat.states.resize(build.num_states());

  for (int s = 0; s < build.num_states(); ++s) {
    PairSet closure = Closure(build, s);
    State& out = flat.states[s];
    closure.ForEach([&](int q, const PredSet& g) {
      for (const BuildNfa::Transition& t : build.trans(q)) {
        Transition ft;
        ft.test = t.test;
        ft.src_preds = g;
        ft.dst_preds = Normalize(build.anns(t.target));
        ft.target = t.target;
        bool dup = false;
        for (const Transition& e : out.trans) {
          if (e.test == ft.test && e.target == ft.target &&
              e.src_preds == ft.src_preds && e.dst_preds == ft.dst_preds) {
            dup = true;
            break;
          }
        }
        if (!dup) out.trans.push_back(std::move(ft));
      }
      if (accepting[q]) {
        InsertGuard(&out.accept_guards, g);
      }
    });
  }

  // Initial pair: entering the start state charges its own annotations.
  PredSet start_anns = Normalize(build.anns(start));
  flat.initial.emplace_back(start, start_anns);
  for (const PredSet& g : flat.states[start].accept_guards) {
    flat.initial_accept_guards.push_back(MergePredSets(g, start_anns));
  }

  // Liveness: states from which acceptance is reachable.
  std::vector<bool> live(flat.states.size(), false);
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t s = 0; s < flat.states.size(); ++s) {
      if (live[s]) continue;
      bool l = !flat.states[s].accept_guards.empty();
      if (!l) {
        for (const Transition& t : flat.states[s].trans) {
          if (live[t.target]) {
            l = true;
            break;
          }
        }
      }
      if (l) {
        live[s] = true;
        changed = true;
      }
    }
  }
  // Transitions into dead states can never contribute answers; drop them.
  for (State& s : flat.states) {
    s.trans.erase(
        std::remove_if(s.trans.begin(), s.trans.end(),
                       [&](const Transition& t) { return !live[t.target]; }),
        s.trans.end());
  }
  for (size_t s = 0; s < flat.states.size(); ++s) {
    flat.states[s].live = live[s];
  }

  // Necessary-label sets (greatest fixpoint over the pruned graph).
  //
  //   A(q) — necessary labels to accept from q allowing zero steps:
  //          ∅ when q accepts, else F(q).
  //   F(q) — necessary labels to accept from q in ≥1 step:
  //          ∩ over transitions t of (label(t) ∪ A(target)), with
  //          wildcard transitions contributing no label.
  //
  // Initialized to the full label universe and iterated downward. Dead
  // states keep the full set — a run stuck there can always be pruned
  // (it can never accept), which is exactly what the test implies.
  {
    std::set<xml::NameId> universe_set;
    for (const State& st : flat.states) {
      for (const Transition& t : st.trans) {
        if (!t.test.wildcard) universe_set.insert(t.test.label);
      }
    }
    std::vector<xml::NameId> universe(universe_set.begin(),
                                      universe_set.end());
    auto bit_of = [&](xml::NameId l) {
      return static_cast<size_t>(
          std::lower_bound(universe.begin(), universe.end(), l) -
          universe.begin());
    };
    const size_t w = universe.size();
    std::vector<DynamicBitset> f(flat.states.size(), DynamicBitset(w));
    for (auto& b : f) {
      for (size_t i = 0; i < w; ++i) b.Set(i);  // ⊤
    }
    auto a_of = [&](size_t q) -> DynamicBitset {
      if (!flat.states[q].accept_guards.empty()) {
        return DynamicBitset(w);  // ∅
      }
      return f[q];
    };
    changed = true;
    while (changed) {
      changed = false;
      for (size_t q = 0; q < flat.states.size(); ++q) {
        if (flat.states[q].trans.empty()) continue;  // stays ⊤
        DynamicBitset acc(w);
        bool first = true;
        for (const Transition& t : flat.states[q].trans) {
          DynamicBitset term = a_of(static_cast<size_t>(t.target));
          if (!t.test.wildcard) term.Set(bit_of(t.test.label));
          if (first) {
            acc = std::move(term);
            first = false;
          } else {
            acc.IntersectWith(term);
          }
        }
        if (!(acc == f[q])) {
          f[q] = std::move(acc);
          changed = true;
        }
      }
    }
    for (size_t q = 0; q < flat.states.size(); ++q) {
      f[q].ForEachSetBit([&](size_t bit) {
        flat.states[q].necessary_labels.push_back(universe[bit]);
      });
    }
  }
  return flat;
}

}  // namespace smoqe::automata
