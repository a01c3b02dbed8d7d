#ifndef SMOQE_COMMON_COUNTERS_H_
#define SMOQE_COMMON_COUNTERS_H_

#include <cstdint>
#include <string>

namespace smoqe {

/// \brief Instrumentation counters filled in by the evaluator and indexer.
///
/// These back the paper's iSMOQE displays (nodes visited / pruned / put in
/// Cans) and the benchmark tables; collecting them is cheap (plain
/// increments, no atomics — engines are single-threaded per query).
struct EvalStats {
  uint64_t nodes_visited = 0;      ///< element nodes entered by the traversal
  uint64_t subtrees_pruned = 0;    ///< subtrees skipped by the TAX prune test
  uint64_t nodes_pruned = 0;       ///< nodes inside pruned subtrees (if known)
  uint64_t cans_entries = 0;       ///< candidate answers staged in Cans
  uint64_t answers = 0;            ///< final answer count
  uint64_t pred_instances = 0;     ///< predicate instances created
  uint64_t obligations = 0;        ///< path-obligation runner pairs created
  uint64_t max_active_pairs = 0;   ///< peak (state, guard) pairs on one node
  uint64_t tree_passes = 0;        ///< full document traversals performed
  uint64_t aux_passes = 0;         ///< passes over auxiliary structures (Cans)
  uint64_t buffered_bytes = 0;     ///< StAX mode: bytes buffered for answers

  // Hot-path machinery (guard arena, hashed run dedup; DESIGN.md §3.4–§3.5).
  uint64_t guard_pool_entries = 0;  ///< guard sets stored at finish
  uint64_t guard_pool_hits = 0;     ///< merges answered with an existing set
                                    ///< (no new storage)
  uint64_t run_dedup_probes = 0;    ///< hashed-dedup bucket probes
  uint64_t runs_deduped = 0;        ///< runs rejected as dominated/duplicate

  // Service layer (plan cache + batch evaluation, DESIGN.md §5).
  uint64_t plan_cache_hits = 0;    ///< compile served from the plan cache
  uint64_t plan_cache_misses = 0;  ///< compiled fresh (then cached)
  uint64_t batch_plans = 0;        ///< plans co-evaluated on this StAX scan
                                   ///< (1 = single-query streaming; 0 = not
                                   ///< a streaming evaluation)
  uint64_t dom_parts = 0;          ///< engines the DOM walk ran (1 = serial,
                                   ///< more = split at the root; 0 = not a
                                   ///< DOM walk)

  void Reset() { *this = EvalStats(); }

  /// Folds another evaluation's stats into this one, making `this` the
  /// batch-level aggregate: additive counters sum (`dom_parts` too, so a
  /// batch reports the engines all its walks ran); the two peak values
  /// (`max_active_pairs`, and `buffered_bytes`, which reports a shared
  /// capture footprint in batch mode) take the max. Used by
  /// `Smoqe::QueryBatch` so batch stats equal the sum of per-plan stats
  /// regardless of serial vs parallel execution.
  void MergeFrom(const EvalStats& other);

  /// One-line rendering for examples and debugging.
  std::string ToString() const;
};

}  // namespace smoqe

#endif  // SMOQE_COMMON_COUNTERS_H_
