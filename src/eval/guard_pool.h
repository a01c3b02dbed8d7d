/// \file
/// \brief Append-only arena of immutable guard sets (32-bit handles) — the
/// per-traversal conjunction store of the engine's runs (docs/DESIGN.md
/// §3.4).

#ifndef SMOQE_EVAL_GUARD_POOL_H_
#define SMOQE_EVAL_GUARD_POOL_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/common/arena.h"
#include "src/eval/cans.h"

namespace smoqe::eval {

/// \brief Append-only pool of guard sets (sorted InstId conjunctions).
///
/// The HyPE hot path extends guards on every (run, transition) step that
/// charges a predicate. Each set is written once into an arena and never
/// changes, so runs, pending-text checks and witnesses share one set by
/// carrying its 32-bit handle (`GuardRef`):
///
///  * `Merge(base, x)` with x ∈ base returns `base` itself — no storage;
///    otherwise it appends one new sorted set;
///  * subset / dominance tests run over the sorted storage;
///  * `kEmpty` (ref 0) is the unconditional guard.
///
/// There is no hash-consing: two equal sets built by different merges get
/// different handles, so equality is by content (IsSubset both ways), not
/// by handle. Entries live as long as the pool, i.e. one document
/// traversal — instance ids, the set elements, mean nothing beyond it.
class GuardPool {
 public:
  static constexpr GuardRef kEmpty = 0;

  GuardPool() { entries_.push_back(Entry{nullptr, 0}); }

  /// Returns base ∪ {extra}. When `extra` already belongs to `base` the
  /// handle is returned unchanged and counted as a hit.
  GuardRef Merge(GuardRef base, InstId extra) {
    const Entry e = entries_[static_cast<size_t>(base)];  // copy: push_back
    const InstId* end = e.data + e.len;
    const InstId* lo = std::lower_bound(e.data, end, extra);
    if (lo != end && *lo == extra) {
      ++hits_;
      return base;
    }
    InstId* stored = static_cast<InstId*>(
        arena_.Allocate((e.len + 1) * sizeof(InstId), alignof(InstId)));
    InstId* out = std::copy(e.data, lo, stored);
    *out++ = extra;
    std::copy(lo, end, out);
    entries_.push_back(Entry{stored, e.len + 1});
    return static_cast<GuardRef>(entries_.size()) - 1;
  }

  const InstId* data(GuardRef g) const {
    return entries_[static_cast<size_t>(g)].data;
  }
  size_t size(GuardRef g) const {
    return entries_[static_cast<size_t>(g)].len;
  }

  /// a ⊆ b over the sorted storage.
  bool IsSubset(GuardRef a, GuardRef b) const {
    if (a == b || a == kEmpty) return true;
    const Entry& ea = entries_[static_cast<size_t>(a)];
    const Entry& eb = entries_[static_cast<size_t>(b)];
    if (ea.len > eb.len) return false;
    return std::includes(eb.data, eb.data + eb.len, ea.data,
                         ea.data + ea.len);
  }

  /// Bytes reserved by the set storage and the handle table (never
  /// shrinks; the engine charges its growth to the request's budget).
  size_t capacity_bytes() const {
    return arena_.bytes_reserved() + entries_.capacity() * sizeof(Entry);
  }

  /// Number of non-empty sets stored (the empty sentinel is not counted).
  size_t entry_count() const { return entries_.size() - 1; }
  /// Merges answered with an existing set (no new storage).
  uint64_t hits() const { return hits_; }

 private:
  struct Entry {
    const InstId* data;
    uint32_t len;
  };

  Arena arena_;
  std::vector<Entry> entries_;
  uint64_t hits_ = 0;
};

}  // namespace smoqe::eval

#endif  // SMOQE_EVAL_GUARD_POOL_H_
