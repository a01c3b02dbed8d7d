#include "src/eval/cans.h"

#include <algorithm>
#include <cassert>

namespace smoqe::eval {

namespace {

bool IsSubset(const GuardSet& a, const GuardSet& b) {
  return std::includes(b.begin(), b.end(), a.begin(), a.end());
}

}  // namespace

void Cans::Add(int32_t id, GuardSet guard) {
  ++entries_;
  if (nodes_.empty() || nodes_.back().id != id) {
    // Entries for one node are contiguous (all added when it is entered).
    assert(nodes_.empty() || nodes_.back().id < id);
    nodes_.push_back(Node{id, {}});
  }
  std::vector<GuardSet>& alts = nodes_.back().alternatives;
  // Weaker guards dominate; an unconditional entry clears the rest.
  for (const GuardSet& g : alts) {
    if (IsSubset(g, guard)) return;
  }
  alts.erase(std::remove_if(alts.begin(), alts.end(),
                            [&](const GuardSet& g) {
                              return IsSubset(guard, g);
                            }),
             alts.end());
  alts.push_back(std::move(guard));
}

std::vector<int32_t> Cans::NodeIds() const {
  std::vector<int32_t> out;
  out.reserve(nodes_.size());
  for (const Node& n : nodes_) out.push_back(n.id);
  return out;
}

std::vector<int32_t> Cans::Select(
    const std::vector<PredInstance>& instances) const {
  std::vector<int32_t> out;
  for (const Node& n : nodes_) {
    for (const GuardSet& g : n.alternatives) {
      bool all = true;
      for (InstId i : g) {
        const PredInstance& inst = instances[i];
        assert(inst.resolved);
        if (!inst.value) {
          all = false;
          break;
        }
      }
      if (all) {
        out.push_back(n.id);
        break;
      }
    }
  }
  return out;
}

}  // namespace smoqe::eval
