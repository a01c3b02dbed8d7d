#include "src/eval/cans.h"

#include <algorithm>
#include <cassert>

namespace smoqe::eval {

void Cans::Add(int32_t id, const InstId* guard, size_t len) {
  ++entries_;
  if (nodes_.empty() || nodes_.back().id != id) {
    // Entries for one node are contiguous (all added when it is entered).
    assert(nodes_.empty() || nodes_.back().id < id);
    nodes_.push_back(Node{id, static_cast<uint32_t>(alts_.size())});
  }
  // The current node's alternatives are the tail of alts_, and their ids
  // the tail of ids_. Weaker guards dominate; an unconditional entry
  // clears the rest.
  const InstId* const end = guard + len;
  const uint32_t first = nodes_.back().alt_begin;
  for (uint32_t a = first; a < alts_.size(); ++a) {
    const InstId* g = ids_.data() + alts_[a].begin;
    if (std::includes(guard, end, g, g + alts_[a].len)) return;
  }
  // Drop the alternatives the new guard dominates, compacting the tails.
  uint32_t kept = first;
  uint32_t write = first < alts_.size() ? alts_[first].begin
                                        : static_cast<uint32_t>(ids_.size());
  for (uint32_t a = first; a < alts_.size(); ++a) {
    const Alt alt = alts_[a];
    const InstId* g = ids_.data() + alt.begin;
    if (std::includes(g, g + alt.len, guard, end)) continue;
    if (write != alt.begin) std::copy(g, g + alt.len, ids_.begin() + write);
    alts_[kept++] = Alt{write, alt.len};
    write += alt.len;
  }
  alts_.resize(kept);
  ids_.resize(write);
  alts_.push_back(Alt{write, static_cast<uint32_t>(len)});
  ids_.insert(ids_.end(), guard, end);
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
  for (size_t n = 0; n < nodes_.size(); ++n) {
    const uint32_t alt_end = AltEnd(n);
    for (uint32_t a = nodes_[n].alt_begin; a < alt_end; ++a) {
      const InstId* g = ids_.data() + alts_[a].begin;
      const bool all = std::all_of(g, g + alts_[a].len, [&](InstId i) {
        assert(instances[i].resolved);
        return instances[i].value;
      });
      if (all) {
        out.push_back(nodes_[n].id);
        break;
      }
    }
  }
  return out;
}

}  // namespace smoqe::eval
