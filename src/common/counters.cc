#include "src/common/counters.h"

#include <algorithm>

namespace smoqe {

void EvalStats::MergeFrom(const EvalStats& other) {
  nodes_visited += other.nodes_visited;
  subtrees_pruned += other.subtrees_pruned;
  nodes_pruned += other.nodes_pruned;
  cans_entries += other.cans_entries;
  answers += other.answers;
  pred_instances += other.pred_instances;
  obligations += other.obligations;
  max_active_pairs = std::max(max_active_pairs, other.max_active_pairs);
  tree_passes += other.tree_passes;
  aux_passes += other.aux_passes;
  buffered_bytes = std::max(buffered_bytes, other.buffered_bytes);
  guard_pool_entries += other.guard_pool_entries;
  guard_pool_hits += other.guard_pool_hits;
  run_dedup_probes += other.run_dedup_probes;
  runs_deduped += other.runs_deduped;
  plan_cache_hits += other.plan_cache_hits;
  plan_cache_misses += other.plan_cache_misses;
  batch_plans += other.batch_plans;
  dom_parts += other.dom_parts;
}

std::string EvalStats::ToString() const {
  std::string s;
  s += "visited=" + std::to_string(nodes_visited);
  s += " pruned_subtrees=" + std::to_string(subtrees_pruned);
  s += " pruned_nodes=" + std::to_string(nodes_pruned);
  s += " cans=" + std::to_string(cans_entries);
  s += " answers=" + std::to_string(answers);
  s += " pred_instances=" + std::to_string(pred_instances);
  s += " obligations=" + std::to_string(obligations);
  s += " max_active_pairs=" + std::to_string(max_active_pairs);
  s += " tree_passes=" + std::to_string(tree_passes);
  s += " aux_passes=" + std::to_string(aux_passes);
  if (buffered_bytes > 0) {
    s += " buffered_bytes=" + std::to_string(buffered_bytes);
  }
  if (guard_pool_entries > 0) {
    s += " guard_pool=" + std::to_string(guard_pool_entries) + " (" +
         std::to_string(guard_pool_hits) + "h)";
  }
  if (run_dedup_probes > 0) {
    s += " dedup_probes=" + std::to_string(run_dedup_probes);
  }
  if (runs_deduped > 0) {
    s += " runs_deduped=" + std::to_string(runs_deduped);
  }
  if (plan_cache_hits + plan_cache_misses > 0) {
    s += " plan_cache=" + std::to_string(plan_cache_hits) + "h/" +
         std::to_string(plan_cache_misses) + "m";
  }
  if (batch_plans > 0) {
    s += " batch_plans=" + std::to_string(batch_plans);
  }
  if (dom_parts > 0) {
    s += " dom_parts=" + std::to_string(dom_parts);
  }
  return s;
}

}  // namespace smoqe
