/// \file
/// \brief Name → object registry (documents, DTDs, views) behind the
/// Smoqe facade, including the upsert + plan-invalidation contract the
/// plan cache depends on (docs/DESIGN.md §5.1).

#ifndef SMOQE_CORE_CATALOG_H_
#define SMOQE_CORE_CATALOG_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>

#include "src/common/status.h"
#include "src/index/tax.h"
#include "src/view/annotation.h"
#include "src/view/view_def.h"
#include "src/xml/dom.h"
#include "src/xml/dtd.h"

namespace smoqe::core {

/// \brief One epoch's immutable view of a document: the tree, its TAX
/// index, and (lazily) its serialized text — the shared-ownership handle
/// readers pin for the whole of an evaluation (docs/DESIGN.md §7.1).
///
/// Everything reachable from a snapshot is immutable: `Smoqe::Update`
/// clones the tree, mutates the clone, and publishes a *new* snapshot,
/// so a reader that acquired this one can keep evaluating with no lock
/// held. The snapshot (and the old tree with it) is retired by shared_ptr
/// refcounting when the last such reader drops its handle.
class DocumentSnapshot {
 public:
  /// `text` may be null: a streaming scan then serializes the tree on
  /// first use (thread-safe, at most once per snapshot).
  DocumentSnapshot(std::shared_ptr<const xml::Document> dom_,
                   std::shared_ptr<const index::TaxIndex> tax_,
                   std::shared_ptr<const std::string> text)
      : dom(std::move(dom_)), tax(std::move(tax_)), epoch(dom->epoch()),
        text_(std::move(text)) {
    s_created_.fetch_add(1, std::memory_order_relaxed);
    s_live_.fetch_add(1, std::memory_order_relaxed);
  }

  ~DocumentSnapshot() { s_live_.fetch_sub(1, std::memory_order_relaxed); }

  DocumentSnapshot(const DocumentSnapshot&) = delete;
  DocumentSnapshot& operator=(const DocumentSnapshot&) = delete;

  /// Process-wide count of snapshots currently alive — i.e. published
  /// ones plus superseded epochs still pinned by in-flight readers. The
  /// `snapshot.live` gauge; a persistently growing value means some
  /// reader is holding snapshots across epochs.
  static int64_t LiveCount() {
    return s_live_.load(std::memory_order_relaxed);
  }
  /// Process-wide count of snapshots ever created (the churn rate).
  static int64_t CreatedCount() {
    return s_created_.load(std::memory_order_relaxed);
  }

  const std::shared_ptr<const xml::Document> dom;
  /// TAX index of `dom`, or null while none is built.
  const std::shared_ptr<const index::TaxIndex> tax;
  /// == dom->epoch(); denormalized because it keys every derived cache.
  const uint64_t epoch;

  /// Serialized XML of `dom` (StAX scans). Lazy and thread-safe; the
  /// reference stays valid for the snapshot's lifetime.
  const std::string& text() const;

  /// The text if already materialized (load-time input or a prior
  /// serialization), else null — successor snapshots of the same tree
  /// inherit it without forcing a serialization.
  std::shared_ptr<const std::string> text_if_ready() const {
    return std::atomic_load_explicit(&text_, std::memory_order_acquire);
  }

 private:
  static std::atomic<int64_t> s_live_;
  static std::atomic<int64_t> s_created_;

  mutable std::once_flag text_once_;
  mutable std::shared_ptr<const std::string> text_;
};

/// A loaded document: the published snapshot plus the mutable service
/// state around it. Lock order (docs/DESIGN.md §7.2): writer_mu →
/// snap_mu_; readers take only snap_mu_ (shared, for the duration of one
/// pointer copy).
struct DocumentEntry {
  DocumentEntry(std::string text_, xml::Document dom_)
      : snapshot_(std::make_shared<const DocumentSnapshot>(
            std::make_shared<const xml::Document>(std::move(dom_)), nullptr,
            std::make_shared<const std::string>(std::move(text_)))) {}

  /// Pins the current snapshot. O(1); never blocks on a writer's clone /
  /// validate / apply work — only on the pointer swap itself.
  std::shared_ptr<const DocumentSnapshot> Acquire() const {
    std::shared_lock<std::shared_mutex> lock(snap_mu_);
    return snapshot_;
  }

  /// Publishes a successor snapshot (callers hold writer_mu).
  void Publish(std::shared_ptr<const DocumentSnapshot> snap) {
    std::unique_lock<std::shared_mutex> lock(snap_mu_);
    snapshot_ = std::move(snap);
  }

  /// Serializes writers (Update, BuildIndex, LoadIndex): clone → mutate →
  /// publish must not interleave.
  std::mutex writer_mu;

 private:
  mutable std::shared_mutex snap_mu_;
  std::shared_ptr<const DocumentSnapshot> snapshot_;
};

/// A registered view: derived definition plus the policy it came from.
struct ViewEntry {
  std::string dtd_name;
  std::unique_ptr<view::Policy> policy;
  view::ViewDefinition definition;
  /// Stable hash of (definition, dtd_name); part of every plan-cache key
  /// minted for this view, so plans compiled against an older definition
  /// can never be served after a redefinition (DESIGN.md §5.1).
  uint64_t fingerprint = 0;
};

/// \brief Name → object registry backing the engine facade. Objects are
/// heap-allocated so references handed out stay stable across inserts.
///
/// `Add*` rejects duplicates; `Put*` upserts and reports whether an
/// existing entry was replaced — the facade uses the report to invalidate
/// cached query plans that depended on the replaced object.
class Catalog {
 public:
  Status AddDocument(const std::string& name,
                     std::unique_ptr<DocumentEntry> doc);
  Status AddDtd(const std::string& name, std::unique_ptr<xml::Dtd> dtd);
  Status AddView(const std::string& name, std::unique_ptr<ViewEntry> view);

  /// Registers or replaces; returns true when an existing entry was
  /// replaced (callers must then invalidate dependent compiled plans).
  /// Replacement happens in place through the existing heap object, so
  /// previously handed-out pointers stay valid and see the new content.
  bool PutDtd(const std::string& name, std::unique_ptr<xml::Dtd> dtd);
  bool PutView(const std::string& name, std::unique_ptr<ViewEntry> view);

  DocumentEntry* FindDocument(const std::string& name);
  const DocumentEntry* FindDocument(const std::string& name) const;
  const xml::Dtd* FindDtd(const std::string& name) const;
  const ViewEntry* FindView(const std::string& name) const;

  std::vector<std::string> DocumentNames() const;
  std::vector<std::string> ViewNames() const;

 private:
  std::map<std::string, std::unique_ptr<DocumentEntry>> documents_;
  std::map<std::string, std::unique_ptr<xml::Dtd>> dtds_;
  std::map<std::string, std::unique_ptr<ViewEntry>> views_;
};

}  // namespace smoqe::core

#endif  // SMOQE_CORE_CATALOG_H_
