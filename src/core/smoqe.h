/// \file
/// \brief The SMOQE engine facade (paper Fig. 1): DTD / document / view
/// registration and query evaluation, with compiled plans cached per
/// (view, query), multi-query batches sharing one document scan, and
/// batch evaluation parallelized over a thread pool against epoch-pinned
/// document snapshots (docs/DESIGN.md §1, §5, §7).

#ifndef SMOQE_CORE_SMOQE_H_
#define SMOQE_CORE_SMOQE_H_

#include <atomic>
#include <memory>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/counters.h"
#include "src/common/guardrail.h"
#include "src/common/status.h"
#include "src/common/thread_pool.h"
#include "src/core/catalog.h"
#include "src/core/plan_cache.h"
#include "src/telemetry/telemetry.h"
#include "src/xml/name_table.h"

namespace smoqe::core {

/// Short alias so the facade can name telemetry types next to its
/// `telemetry()` accessor without ambiguity.
namespace tel = ::smoqe::telemetry;

/// Evaluation mode (paper §2, "XML documents"): DOM loads the tree into
/// memory; StAX streams the raw text in one forward scan.
enum class EvalMode { kDom, kStax };

/// Engine-wide options (docs/DESIGN.md §7.4): service-layer knobs that
/// apply to every call on one Smoqe instance.
struct EngineOptions {
  /// Compiled query plans kept hot (LRU beyond it).
  size_t plan_cache_capacity = PlanCache::kDefaultCapacity;
  /// Total parallelism of QueryBatch / QueryBatchMulti evaluation,
  /// including the calling thread: 0 = one per hardware core, 1 = fully
  /// serial (no pool is created, so batches take the serial path).
  /// Query() is always serial.
  int max_threads = 0;
  /// Telemetry (docs/DESIGN.md §8): metrics registry + trace recorder +
  /// security audit log, on by default. `telemetry.enabled = false`
  /// removes all instrumentation (no registry exists; DumpMetrics renders
  /// empty). The bench-verified overhead budget of the default-on state
  /// is <2% on the hot query path (bench_telemetry, E14).
  tel::TelemetryOptions telemetry;
  /// Engine-wide request-governance defaults (docs/DESIGN.md §9). A
  /// request whose RequestOptions leaves a knob at 0 inherits the engine
  /// default; 0 here too means ungoverned (no deadline / no cap).
  uint64_t default_deadline_ms = 0;
  uint64_t default_max_memory_bytes = 0;
  /// Bounded admission gate: at most this many requests may be in flight
  /// (Query/QueryBatch/QueryBatchMulti/Update) before further calls
  /// fast-fail with RejectedBusy — before parsing, before taking any
  /// lock, before touching the catalog. 0 = unbounded (no gate).
  int max_pending_requests = 0;
  /// Slow-query capture threshold (docs/DESIGN.md §11): a facade call
  /// whose total latency reaches this many milliseconds has its profile
  /// appended to the telemetry slow ring. 0 captures EVERY call (the
  /// deterministic-CI setting); to disable capture entirely set
  /// `telemetry.slow_log_capacity = 0` instead.
  uint64_t slow_query_threshold_ms = 50;
};

/// Per-request resource governance (docs/DESIGN.md §9), accepted by
/// Query / QueryBatch / QueryBatchMulti / Update. All knobs default to
/// "inherit the engine default" — a default-constructed RequestOptions
/// is byte-for-byte the pre-guardrail behavior.
struct RequestOptions {
  /// Wall-clock budget of the call in milliseconds, measured from entry
  /// (steady clock). On expiry the request unwinds with DeadlineExceeded
  /// and no partial answer. 0 = EngineOptions::default_deadline_ms.
  uint64_t deadline_ms = 0;
  /// Memory the request may charge (evaluator runs/frames, capture
  /// buffers, update-clone arena blocks, TAX bitsets). On breach the
  /// request unwinds with ResourceExhausted. Charging is amortized, so
  /// the real high-water mark can overshoot by one charge quantum.
  /// 0 = EngineOptions::default_max_memory_bytes.
  uint64_t max_memory_bytes = 0;
  /// Cooperative cancellation: the caller keeps the token (which must
  /// outlive the call) and may Cancel() it from any thread; the request
  /// unwinds with Cancelled at its next guard check. Null = none.
  const CancelToken* cancel = nullptr;
  /// Caller-chosen trace id, adopted verbatim so client and server logs
  /// correlate (the wire trace-context path). 0 = engine mints ids and
  /// the sampling knob applies; non-zero forces span recording.
  uint64_t trace_id = 0;
  /// Return a structured execution profile with the answer
  /// (QueryAnswer::profile): per-stage timings, plan-cache outcome,
  /// canonical query, EvalStats, guard ticks. Forces span recording.
  bool profile = false;
  /// Externally owned trace (smoqed's worker): spans land in *this*
  /// trace and the facade does NOT finish it — the owner finishes after
  /// the response flushes, so queue_wait and write_flush join the same
  /// span tree. Overrides trace_id and sampling.
  std::shared_ptr<tel::Trace> trace;
};

/// Per-query options.
struct QueryOptions {
  /// View (= user group) the query is posed against; empty string means
  /// the caller is trusted to query the document directly.
  std::string view;
  EvalMode mode = EvalMode::kDom;
  /// Consult the document's TAX index (DOM mode; must be built).
  bool use_tax = false;
  /// Record engine internals (answers include an explain rendering).
  bool explain = false;
  /// Compile fresh, without consulting or populating the plan cache
  /// (ablation / differential-testing knob; see DESIGN.md §5.1).
  bool bypass_plan_cache = false;
};

/// Result of one query.
struct QueryAnswer {
  /// Serialized XML of each answer subtree, document order.
  std::vector<std::string> answers_xml;
  /// DOM node ids of the answers (empty for a streamed StAX Query; batch
  /// items of every mode carry them).
  std::vector<int32_t> answer_ids;
  EvalStats stats;
  /// Document epoch of the snapshot the query evaluated against. Every
  /// answer reflects exactly this epoch — a query concurrent with updates
  /// never sees a torn tree (docs/DESIGN.md §7.1).
  uint64_t doc_epoch = 0;
  /// Static-analysis notes: labels the query mentions that do not exist
  /// in the schema it was posed against (view DTD for view queries) —
  /// such steps can never match. iSMOQE-style query assistance.
  std::vector<std::string> unknown_labels;
  /// MFA dump of the (rewritten) query, when explain was requested.
  std::string mfa_dump;
  /// iSMOQE-style annotated document tree (explain on a DOM walk: a DOM
  /// Query or any batch item).
  std::string trace_tree;
  /// Telemetry trace id of this call (0 when telemetry is off or the call
  /// was not sampled); look it up via `Smoqe::telemetry()->traces()`.
  uint64_t trace_id = 0;
  /// Canonical printer rendering of the query that actually compiled
  /// (set when RequestOptions::profile was requested; "" otherwise).
  std::string canonical_query;
  /// Structured execution profile, set only when RequestOptions::profile
  /// was requested. For QueryBatch / QueryBatchMulti the single
  /// batch-level profile rides on the FIRST item's answer (per-item
  /// breakdowns live in `stats`).
  std::shared_ptr<tel::Profile> profile;
  /// Per-item status of batch calls. Query() never returns an answer
  /// with a non-OK status (the call's Result carries the error), but
  /// QueryBatch / QueryBatchMulti fail *per item*: a bad view, a parse
  /// error or a TAX-mode conflict in one item leaves `status` non-OK
  /// (its message names the item index) and every other field empty,
  /// while the sibling items complete normally. Document-level failures
  /// (unknown document, a tripped request guardrail) still fail the
  /// whole call.
  Status status = Status::OK();
};

/// One query of a QueryBatch call: the query text plus its own options —
/// different entries may pose different views (users/roles), which is the
/// batch evaluator's whole point.
struct BatchQueryItem {
  std::string query;
  QueryOptions options;
};

/// One query of a QueryBatchMulti call: a BatchQueryItem plus the
/// document it targets.
struct DocBatchItem {
  std::string doc;
  std::string query;
  QueryOptions options;
};

/// Per-update options (docs/DESIGN.md §6).
struct UpdateOptions {
  /// View the update is posed against; empty string means the caller is
  /// trusted to edit the document directly (no authorization check).
  std::string view;
  /// Revalidation schema. When empty the engine uses the view's document
  /// DTD (view updates), else a DTD registered under the document's own
  /// name, else skips DTD revalidation (structural checks only).
  std::string dtd_name;
  /// Parse, resolve, authorize and validate — but do not mutate.
  bool dry_run = false;
};

/// Counters of one update (the update-side analogue of EvalStats).
struct UpdateStats {
  uint64_t targets = 0;         ///< nodes the target path selected
  uint64_t edits_applied = 0;   ///< after nesting normalization
  uint64_t edits_dropped = 0;   ///< nested inside another removed subtree
  uint64_t nodes_inserted = 0;
  uint64_t nodes_deleted = 0;
  uint64_t tax_sets_recomputed = 0;  ///< incremental TAX repair work
  uint64_t doc_epoch = 0;  ///< document epoch after the update
};

/// Result of one accepted update.
struct UpdateResult {
  /// Canonical printed form of the statement (see update::ToString).
  std::string canonical;
  UpdateStats stats;
};

/// Result of MaterializeView.
struct MaterializedViewAnswer {
  std::string xml;     ///< serialized view document
  uint64_t epoch = 0;  ///< document epoch the materialization reflects
};

/// \brief SMOQE — the Secure MOdular Query Engine facade (paper Fig. 1).
///
/// Wires the four modules together: the *rewriter* (view queries →
/// document MFAs), the *evaluator* (HyPE over DOM or StAX), the *indexer*
/// (TAX build/save/load) and the catalog that iSMOQE would sit on top of.
///
/// Typical use:
///
///     core::Smoqe engine;
///     engine.RegisterDtd("hospital", kHospitalDtd, "hospital");
///     engine.LoadDocument("ward", xml_text);
///     engine.DefineView("nurses", "hospital", policy_text);
///     core::QueryOptions opts;
///     opts.view = "nurses";
///     auto result = engine.Query("ward", "//patient/treatment", opts);
///
/// All documents, automata and indexes share one name table, so label
/// comparisons are integer compares end-to-end.
///
/// Thread safety (docs/DESIGN.md §7): every public method may be called
/// concurrently from any thread. Readers (Query, QueryBatch,
/// MaterializeView, the inspection getters) pin an epoch-stamped document
/// snapshot and never block on writers; Update clones, mutates the clone,
/// and atomically publishes the successor snapshot, so the old epoch's
/// readers finish on the old tree and the retired tree is freed when its
/// last reader drops it.
class Smoqe {
 public:
  explicit Smoqe(EngineOptions options);

  /// `plan_cache_capacity` bounds the number of compiled query plans kept
  /// hot (LRU beyond it). All other EngineOptions keep their defaults.
  explicit Smoqe(size_t plan_cache_capacity = PlanCache::kDefaultCapacity);

  /// Registers a DTD under `name`, replacing any previous registration.
  /// `root` may be empty when inferable. Replacing a DTD invalidates the
  /// cached plans of every view defined over it.
  Status RegisterDtd(const std::string& name, std::string_view dtd_text,
                     std::string_view root = "");

  /// Parses and loads a document (keeps the raw text for StAX mode). If a
  /// DOCTYPE with an internal subset is present, it is registered as a DTD
  /// under the document's name unless one already exists.
  Status LoadDocument(const std::string& name, std::string_view xml_text);

  /// Generates and loads a synthetic document conforming to a registered
  /// DTD (workload helper; see xml::GeneratorOptions for knobs).
  Status GenerateDocument(const std::string& name, const std::string& dtd_name,
                          uint64_t seed, size_t target_nodes);

  /// Derives and registers the security view for a user group from an
  /// access-control policy in the text format of view::Policy::Parse.
  /// Redefining an existing view replaces it and invalidates its cached
  /// query plans (subsequent queries recompile against the new policy).
  Status DefineView(const std::string& view_name, const std::string& dtd_name,
                    std::string_view policy_text);

  /// Registers a hand-written view (the paper's other definition mode):
  /// a view DTD plus σ per edge, in the format of
  /// view::ParseViewSpecification. When `document_dtd_name` is non-empty
  /// the σ paths are statically type-checked against that DTD (each
  /// σ(A,B) must only produce B nodes).
  Status DefineViewFromSpec(const std::string& view_name,
                            std::string_view spec_text,
                            const std::string& document_dtd_name = "");

  /// The schema exposed to a view's user group, as DTD text.
  Result<std::string> ViewSchema(const std::string& view_name) const;

  /// The full view specification (view DTD + σ), for inspection.
  Result<std::string> ViewSpecification(const std::string& view_name) const;

  /// Builds the TAX index for a loaded document (publishes a successor
  /// snapshot carrying the index; the tree and epoch are unchanged).
  Status BuildIndex(const std::string& doc_name);
  /// Persists / restores a TAX index (compressed, see index::TaxIo).
  Status SaveIndex(const std::string& doc_name, const std::string& path) const;
  Status LoadIndex(const std::string& doc_name, const std::string& path);

  /// Evaluates a Regular XPath query against a loaded document, directly
  /// or through a view (rewriting — the view is never materialized).
  /// Compilation goes through the plan cache: repeat queries skip the
  /// rewrite → MFA → flatten pipeline entirely (DESIGN.md §5.1);
  /// `answer.stats.plan_cache_hits/misses` says which happened.
  /// `req` governs the call's resources (docs/DESIGN.md §9): deadline,
  /// memory budget, cancellation — all engine-default by default. A
  /// tripped guard unwinds with DeadlineExceeded / ResourceExhausted /
  /// Cancelled and no partial answer; when the admission gate is full
  /// the call fast-fails with RejectedBusy before doing any work. Guard
  /// rejections are resource outcomes, not security decisions: they
  /// produce no audit record.
  Result<QueryAnswer> Query(const std::string& doc_name,
                            std::string_view query_text,
                            const QueryOptions& options = {},
                            const RequestOptions& req = {});

  /// Evaluates many queries — typically from different users, so each
  /// item carries its own view — against one document. Answers line up
  /// with `items` by index and are identical to per-item Query calls.
  /// Every item, StAX-mode ones included, evaluates as one HyPE walk of
  /// the pinned snapshot's DOM (DESIGN.md §5.2): the tree is already in
  /// memory, and a StAX item's answer bytes equal its streamed Query's.
  /// Every item's compile goes through the plan cache. With parallelism
  /// enabled (EngineOptions::max_threads ≠ 1) the items fan out across
  /// the pool (§7.3); the whole batch evaluates against one pinned
  /// snapshot either way.
  /// Error semantics: an item that fails on its own terms (unregistered
  /// view, parse error, StAX+TAX conflict, missing index) fails *only
  /// that item* — its answer's `status` is non-OK and names the item
  /// index — while the other items evaluate normally. Whole-call errors
  /// are reserved for document-level failures: unknown document, or
  /// this request's guardrail tripping
  /// (deadline / budget / cancel / admission via `req`). It is
  /// QueryBatchMulti over one document, traced and profiled as
  /// `query_batch`.
  Result<std::vector<QueryAnswer>> QueryBatch(
      const std::string& doc_name, const std::vector<BatchQueryItem>& items,
      const RequestOptions& req = {});

  /// Evaluates queries against *many* documents in one call: items are
  /// grouped by document, each group pins its document's snapshot, and
  /// independent documents evaluate concurrently across the pool (each
  /// group internally like QueryBatch). Answers line up with `items`.
  /// Per-item error semantics match QueryBatch (an unknown *document* is
  /// still a whole-call error — it names a catalog problem, not an item
  /// problem).
  Result<std::vector<QueryAnswer>> QueryBatchMulti(
      const std::vector<DocBatchItem>& items, const RequestOptions& req = {});

  /// Applies one update statement (`insert into p f` / `delete p` /
  /// `replace p with f`, docs/QUERY_LANGUAGE.md "Updates") to a loaded
  /// document. Direct updates (empty `options.view`) are trusted; view
  /// updates resolve the target path *in the view* (rewritten and
  /// evaluated like a query; the view is never materialized) and are
  /// authorized against the view's access annotations with accept/reject
  /// semantics — a rejected update returns PermissionDenied naming the
  /// violated annotation and leaves document, TAX index and epoch
  /// untouched. Accepted updates apply atomically (DTD-revalidated before
  /// any mutation) to a *clone* of the current snapshot, repair the TAX
  /// index incrementally, and publish the clone as the new snapshot with
  /// a bumped epoch — concurrent readers finish undisturbed on the old
  /// one (§7.1).
  /// Guard semantics (docs/DESIGN.md §9): a deadline / budget / cancel
  /// trip — even one landing mid-apply, or in target resolution — aborts
  /// *before Publish*, so the published snapshot chain, TAX index and
  /// epoch are exactly as if the call never happened. Guard rejections
  /// are not authorization denials: they return their own status codes
  /// and append no audit record.
  Result<UpdateResult> Update(const std::string& doc_name,
                              std::string_view update_text,
                              const UpdateOptions& options = {},
                              const RequestOptions& req = {});

  /// Materializes a view of the document's current snapshot, afresh on
  /// every call — the inspection and testing baseline. Queries and
  /// updates never go through it: they answer by rewriting.
  Result<MaterializedViewAnswer> MaterializeView(
      const std::string& doc_name, const std::string& view_name) const;

  /// Pins the document's current snapshot (read-only; it stays valid
  /// however many updates publish after it).
  Result<std::shared_ptr<const DocumentSnapshot>> Snapshot(
      const std::string& doc_name) const;

  /// Serialized (compact) XML of the document's current DOM.
  Result<std::string> DocumentXml(const std::string& doc_name) const;

  /// The document's update epoch (0 until the first accepted update).
  Result<uint64_t> DocumentEpoch(const std::string& doc_name) const;

  /// Loaded document / registered view names (for tooling).
  std::vector<std::string> DocumentNames() const;
  std::vector<std::string> ViewNames() const;

  const std::shared_ptr<xml::NameTable>& names() const { return names_; }

  /// The compiled-plan cache (stats, Clear; shared by Query/QueryBatch).
  PlanCache& plan_cache() { return plan_cache_; }
  const PlanCache& plan_cache() const { return plan_cache_; }

  const EngineOptions& options() const { return options_; }
  /// The batch-evaluation pool, or null when the engine is serial
  /// (max_threads == 1, or a 1-core host with max_threads == 0).
  ThreadPool* pool() { return pool_.get(); }

  /// The engine's telemetry bundle (metrics + traces + audit log), or
  /// null when `EngineOptions::telemetry.enabled` is false.
  tel::Telemetry* telemetry() { return telemetry_.get(); }
  const tel::Telemetry* telemetry() const { return telemetry_.get(); }

  /// Renders every metric of this engine — query/update/cache/pool/
  /// snapshot — as JSON or Prometheus text exposition (docs/DESIGN.md
  /// §8.5). Sampled gauges (live snapshots, per-document epochs, audit
  /// totals) are refreshed first, so a dump is always current. With
  /// telemetry off, returns "{}\n" (JSON) or "" (Prometheus).
  std::string DumpMetrics(
      tel::DumpFormat format = tel::DumpFormat::kJson) const;

  /// The slow-query ring as a JSON array (oldest first; see
  /// tel::SlowQueryLog::RenderJson). "[]\n" when telemetry is off.
  std::string DumpSlowQueries() const;

 private:
  /// A plan resolved for one query: the (possibly shared) compiled
  /// artifact plus whether it came from the cache.
  struct PlanUse {
    std::shared_ptr<const CompiledPlan> plan;
    bool cache_hit = false;
  };

  /// True when batch calls should fan out across the pool.
  bool ParallelEnabled() const { return pool_ != nullptr; }

  /// Hot-path facade metrics, resolved once at construction so the
  /// per-call cost is pointer increments, never a registry lookup. Null
  /// (the struct, not the fields) when telemetry is off.
  struct FacadeMetrics {
    explicit FacadeMetrics(tel::MetricsRegistry& reg);

    tel::Counter* query_count;
    tel::Counter* query_errors;
    tel::Counter* query_answers;
    tel::Histogram* query_latency_ns;
    tel::Histogram* query_epoch_lag;
    tel::Counter* batch_count;
    tel::Counter* batch_errors;
    tel::Counter* batch_items;
    tel::Histogram* batch_latency_ns;
    tel::Counter* eval_nodes_visited;
    tel::Counter* eval_subtrees_pruned;
    tel::Counter* eval_answers;
    tel::Counter* update_count;
    tel::Counter* update_accepted;
    tel::Counter* update_rejected;
    tel::Counter* update_errors;
    tel::Histogram* update_latency_ns;
    tel::Histogram* update_tax_repair_ns;
    tel::Counter* update_nodes_inserted;
    tel::Counter* update_nodes_deleted;
    tel::Counter* guard_deadline_exceeded;
    tel::Counter* guard_budget_exceeded;
    tel::Counter* guard_admission_rejected;
    tel::Counter* guard_cancelled;
  };

  /// Parses + normalizes `query_text` and returns its compiled plan,
  /// consulting the cache unless `options.bypass_plan_cache`. Caller
  /// holds catalog_mu_ (shared suffices). `tr` (nullable) receives the
  /// parse / cache_lookup / compile / rewrite spans.
  Result<PlanUse> GetPlan(std::string_view query_text,
                          const QueryOptions& options, tel::Trace* tr);

  /// Evaluates a resolved plan over a pinned snapshot (single query)
  /// whose evaluation preconditions were checked: a StAX-mode query
  /// streams over the snapshot's text, anything else is EvalOnDom. Takes
  /// no lock; safe on any thread. `guard` (nullable) is polled by the
  /// evaluator's event loop.
  Result<QueryAnswer> EvalCompiled(const DocumentSnapshot& snap,
                                   const PlanUse& plan,
                                   const QueryOptions& options,
                                   const Guardrail* guard, tel::Trace* tr);
  /// The DOM half of EvalCompiled, whatever `options.mode` says: one
  /// HyPE walk of the snapshot's tree (TAX-pruned under `use_tax`; split
  /// across `pool` at the root when it qualifies, docs/DESIGN.md §3.7),
  /// then materialization. Batch items of every mode run here, serially
  /// (`pool` nullptr): the batch fans its items out over the pool instead.
  Result<QueryAnswer> EvalOnDom(const DocumentSnapshot& snap,
                                const PlanUse& plan,
                                const QueryOptions& options,
                                const Guardrail* guard, tel::Trace* tr,
                                ThreadPool* pool);

  /// The one request envelope every public entry point runs in
  /// (docs/DESIGN.md §9.3), in this order: admission gate → guardrail →
  /// trace pick + `annotate(trace)` → `impl(guard, trace)` → guard-outcome
  /// count → `outcome(result, elapsed_ns, trace, profile)` → slow-query
  /// log → trace finish. `outcome` is the op's hook: it records the op's
  /// counters and latency, appends its audit records, and fills
  /// `profile` (stamped with op, timing, stages and guard ticks; null
  /// unless the call is slow or asked for a PROFILE), attaching it to the
  /// result when the caller asked. With telemetry off only the admission
  /// gate and the guardrail run before `impl(guard, nullptr)`.
  template <typename T, typename Annotate, typename Impl, typename Outcome>
  Result<T> Envelope(const char* op, const RequestOptions& req,
                     const Annotate& annotate, const Impl& impl,
                     const Outcome& outcome);

  /// QueryBatch and QueryBatchMulti: the envelope around
  /// QueryBatchMultiImpl. `only_doc` non-null makes it QueryBatch over
  /// that one document (a `doc` trace attribute and profile field).
  Result<std::vector<QueryAnswer>> RunBatch(
      const char* op, const std::string* only_doc,
      const std::vector<DocBatchItem>& items, const RequestOptions& req);

  /// The untelemetered bodies of the public calls (run inside Envelope).
  Result<QueryAnswer> QueryImpl(const std::string& doc_name,
                                std::string_view query_text,
                                const QueryOptions& options,
                                const Guardrail* guard, tel::Trace* tr,
                                bool want_canonical = false);
  /// Groups items by document and evaluates each group over one pinned
  /// snapshot. `only_doc` non-null is QueryBatch's one-document form: the
  /// document is resolved even for an empty batch, and document-level
  /// failures carry no "batch item N" / "document 'D'" context.
  Result<std::vector<QueryAnswer>> QueryBatchMultiImpl(
      const std::vector<DocBatchItem>& items, const std::string* only_doc,
      const Guardrail* guard, tel::Trace* tr);
  Result<UpdateResult> UpdateImpl(const std::string& doc_name,
                                  std::string_view update_text,
                                  const UpdateOptions& options,
                                  const Guardrail* guard, tel::Trace* tr);

  /// Folds one call's EvalStats aggregate into the eval.* counters.
  void FoldEvalStats(const EvalStats& stats);

  /// Resolves the trace a facade call records into, per RequestOptions:
  /// an external (server-owned) trace wins, else an explicit trace_id /
  /// profile request forces recording under the caller's id (bypassing
  /// sampling), else the sampling knob decides. `*external` reports
  /// whether the facade must leave Finish to the owner. Requires
  /// telemetry_ != nullptr.
  std::shared_ptr<tel::Trace> PickTrace(const char* name,
                                        const RequestOptions& req,
                                        bool* external);

  /// RAII admission slot. `ok()` false means the gate was full and the
  /// call must fast-fail with RejectedBusy; nothing to release then.
  class Admission {
   public:
    explicit Admission(Smoqe* engine);
    ~Admission();
    Admission(const Admission&) = delete;
    Admission& operator=(const Admission&) = delete;
    bool ok() const { return admitted_; }

   private:
    Smoqe* engine_;
    bool admitted_;
  };

  /// Resolves RequestOptions against the engine defaults into `budget` +
  /// `guard` (stack storage owned by the caller). Returns nullptr — the
  /// ungoverned fast path — when no knob is active.
  const Guardrail* MakeGuard(const RequestOptions& req, MemoryBudget* budget,
                             Guardrail* guard) const;

  /// Counts a guard-terminated request into the guard.* counters and
  /// returns the span annotation ("deadline" / "budget" / "admission" /
  /// "cancel"), or nullptr for ordinary errors. Null-safe on tm_.
  const char* CountGuardOutcome(const Status& status);
  /// Appends one audit record (allowed unless `kind` is kUpdateReject,
  /// whose `explain` is the denial message verbatim).
  void AppendAudit(tel::AuditKind kind, const std::string& doc_name,
                   const std::string& view_name, std::string_view statement,
                   uint64_t doc_epoch, uint64_t trace_id,
                   std::string explain = "");

  /// The evaluation phase of one batch group over its pinned snapshot:
  /// `sel` holds the indices (into `items`, `plans` and `out`) of the
  /// group's items that compiled; answers land in out[i], and "batch item
  /// N" error contexts name the caller's index. Item-local evaluation
  /// failures land in out[i].status; only a guard trip returns non-OK.
  Status EvalBatchOnSnapshot(const DocumentSnapshot& snap,
                             const std::vector<DocBatchItem>& items,
                             const std::vector<PlanUse>& plans,
                             const std::vector<size_t>& sel,
                             const Guardrail* guard,
                             std::vector<QueryAnswer>* out, tel::Trace* tr);

  std::shared_ptr<xml::NameTable> names_;
  EngineOptions options_;
  /// Declared before plan_cache_ and pool_ (whose metrics point into the
  /// registry) so it is destroyed after them.
  std::unique_ptr<tel::Telemetry> telemetry_;  // null when disabled
  std::unique_ptr<FacadeMetrics> tm_;          // null when disabled
  /// Guards the catalog maps and the in-place-replaced ViewEntry/Dtd
  /// objects: registration ops take it unique, everything else shared.
  /// Never held during evaluation (snapshots are pinned first).
  mutable std::shared_mutex catalog_mu_;
  Catalog catalog_;
  PlanCache plan_cache_;
  std::unique_ptr<ThreadPool> pool_;  // null when serial
  /// Requests currently inside a public entry point (admission gate).
  std::atomic<int> inflight_{0};
};

}  // namespace smoqe::core

#endif  // SMOQE_CORE_SMOQE_H_
