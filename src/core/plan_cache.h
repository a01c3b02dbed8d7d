/// \file
/// \brief Compiled-query plan cache — the service-layer half of the
/// compiler (docs/DESIGN.md §5.1).
///
/// SMOQE's point is many users firing queries against the same security
/// views over the same documents; rewriting + MFA compilation are pure
/// functions of (view definition, query), so the engine caches the
/// finished artifact and recompiles only when a view or DTD actually
/// changes.

#ifndef SMOQE_CORE_PLAN_CACHE_H_
#define SMOQE_CORE_PLAN_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/automata/mfa.h"
#include "src/telemetry/metrics.h"

namespace smoqe::core {

/// The fully compiled artifact of one (view, query) pair: the rewritten
/// MFA with its flattened NFAs (everything an engine needs to start
/// running — per-document run sets and guard pools are built per
/// evaluation, see DESIGN.md §3.4), plus the static-analysis by-products
/// worth reusing.
struct CompiledPlan {
  automata::Mfa mfa;
  /// Labels the query mentions that are outside the schema it was posed
  /// against (iSMOQE query assistance; recomputing needs the view DTD).
  std::vector<std::string> unknown_labels;
  /// Canonical printer rendering of the query this plan was compiled
  /// from — the cache key's query component, kept on the artifact so
  /// PROFILE can report "what actually ran" without re-parsing.
  std::string normalized_query;
};

/// Aggregate cache counters (monotonic over the cache's lifetime).
struct PlanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;      ///< capacity-driven LRU drops
  uint64_t invalidations = 0;  ///< entries dropped by Invalidate*/Clear
  size_t size = 0;
  size_t capacity = 0;
};

/// \brief Sharded-nothing LRU cache of compiled plans.
///
/// Key = (view name, view fingerprint, normalized query text):
///
///  * the *view name* scopes entries so a redefinition can invalidate
///    exactly its plans ("" = direct document queries);
///  * the *fingerprint* is a stable hash of the view's full definition
///    (view DTD + σ) and its document DTD name — even if explicit
///    invalidation were missed, a redefined view can never hit a stale
///    entry, because its fingerprint changes;
///  * the *normalized query* is the canonical printer rendering of the
///    parsed AST, so `//a [b]` and `//a[b]` share one plan.
///
/// Thread safety: the table (map + LRU list) is guarded by a mutex;
/// compilations happen outside the lock, and plans are immutable
/// shared_ptrs, so concurrent readers can keep evaluating a plan that
/// eviction or invalidation already dropped from the table. The counters
/// are relaxed atomics, not mutex state — `stats()` never contends with
/// the hot Lookup path. When two threads miss on the same key and both
/// compile, the first Insert wins and the second caller is handed the
/// first's plan back (see Insert), so a race can neither leak an entry
/// nor invalidate a pointer already handed out.
class PlanCache {
 public:
  static constexpr size_t kDefaultCapacity = 256;

  explicit PlanCache(size_t capacity = kDefaultCapacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  struct Key {
    std::string view;  ///< "" for direct (trusted) document queries
    uint64_t view_fingerprint = 0;
    std::string normalized_query;

    bool operator==(const Key& o) const {
      return view_fingerprint == o.view_fingerprint && view == o.view &&
             normalized_query == o.normalized_query;
    }
  };

  /// Returns the cached plan and refreshes its LRU position, or nullptr.
  /// Counts a hit or a miss.
  std::shared_ptr<const CompiledPlan> Lookup(const Key& key);

  /// Inserts the plan for `key`, evicting the least recently used entry
  /// when over capacity, and returns the plan now cached under the key.
  /// If a concurrent compile of the same key got there first, the cached
  /// (first) plan is kept and returned — callers should adopt the return
  /// value so every racer converges on one shared artifact.
  std::shared_ptr<const CompiledPlan> Insert(
      const Key& key, std::shared_ptr<const CompiledPlan> plan);

  /// Drops every plan compiled against view `view` (after a view
  /// redefinition or a change to its underlying DTD). Returns the number
  /// of entries dropped.
  size_t InvalidateView(std::string_view view);

  /// Drops everything.
  void Clear();

  PlanCacheStats stats() const;

  /// Redirects the cache's counters into `registry` (docs/DESIGN.md §8.4):
  /// `plan_cache.hits` / `.misses` / `.evictions` / `.invalidations`
  /// counters and the `plan_cache.size` gauge. Counts accumulated before
  /// attachment stay in the private counters and stop being reported, so
  /// attach at construction time (as `Smoqe` does). nullptr re-targets
  /// the private counters.
  void AttachTelemetry(telemetry::MetricsRegistry* registry);

 private:
  struct KeyHash {
    size_t operator()(const Key& k) const {
      // The fingerprint already mixes well; fold in the strings' hashes.
      size_t h = std::hash<std::string>()(k.normalized_query);
      h ^= std::hash<std::string>()(k.view) + 0x9e3779b97f4a7c15ull +
           (h << 6) + (h >> 2);
      return h ^ static_cast<size_t>(k.view_fingerprint);
    }
  };

  using LruList = std::list<std::pair<Key, std::shared_ptr<const CompiledPlan>>>;

  mutable std::mutex mu_;  // guards lru_ + index_ (not the counters)
  size_t capacity_;
  LruList lru_;  // front = most recently used
  std::unordered_map<Key, LruList::iterator, KeyHash> index_;
  // Sharded telemetry counters (relaxed atomics underneath): exact per-op
  // ordering is irrelevant, stats() must not serialize against hot
  // lookups. The cache owns a private set; AttachTelemetry re-targets the
  // pointers at registry-owned metrics (release/acquire so a reader that
  // sees the new pointer sees the object behind it).
  telemetry::Counter own_hits_, own_misses_, own_evictions_,
      own_invalidations_;
  telemetry::Gauge own_size_;
  std::atomic<telemetry::Counter*> hits_{&own_hits_};
  std::atomic<telemetry::Counter*> misses_{&own_misses_};
  std::atomic<telemetry::Counter*> evictions_{&own_evictions_};
  std::atomic<telemetry::Counter*> invalidations_{&own_invalidations_};
  std::atomic<telemetry::Gauge*> size_{&own_size_};
};

}  // namespace smoqe::core

#endif  // SMOQE_CORE_PLAN_CACHE_H_
