#include "src/core/smoqe.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <utility>

#include "src/automata/mfa.h"
#include "src/common/strings.h"
#include "src/eval/hype_dom.h"
#include "src/eval/hype_stax.h"
#include "src/index/tax_io.h"
#include "src/rewrite/rewriter.h"
#include "src/rxpath/parser.h"
#include "src/rxpath/printer.h"
#include "src/rxpath/type_check.h"
#include "src/update/applier.h"
#include "src/update/authorize.h"
#include "src/update/update_lang.h"
#include "src/view/derive.h"
#include "src/view/materialize.h"
#include "src/view/spec_parser.h"
#include "src/xml/dtd_parser.h"
#include "src/xml/generator.h"
#include "src/xml/parser.h"
#include "src/xml/serializer.h"

namespace smoqe::core {

namespace {

/// Stable identity of a view's compiled-plan space: any change to the
/// definition (view DTD or σ) or to the underlying DTD name changes the
/// fingerprint, so stale cache keys can never collide with fresh ones.
uint64_t ViewFingerprint(const view::ViewDefinition& def,
                         const std::string& dtd_name) {
  return Fnv1a64(def.ToString()) ^ (Fnv1a64(dtd_name) * 0x9e3779b97f4a7c15ull);
}

/// Nanoseconds elapsed since `t0` (facade-call latency sampling).
uint64_t ElapsedNs(std::chrono::steady_clock::time_point t0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

/// True for statuses that terminate the *request* (fail-closed guard
/// semantics), as opposed to statuses that fail one batch item.
bool IsGuardTermination(const Status& s) {
  return s.code() == StatusCode::kDeadlineExceeded ||
         s.code() == StatusCode::kResourceExhausted ||
         s.code() == StatusCode::kCancelled;
}

/// Flattens a finished call into the PROFILE model: the trace's span
/// list becomes the stage tree (same indices, so parent links carry
/// over verbatim), and the guard's tick tally rides along. `tr` may be
/// null (slow-log capture of an unsampled call) — the profile then has
/// no stages but still carries timing. The caller fills in identity.
tel::Profile MakeProfile(const char* op, uint64_t total_ns,
                         const Guardrail* guard, const tel::Trace* tr) {
  tel::Profile p;
  p.op = op;
  p.total_ns = total_ns;
  if (guard != nullptr) p.guard_ticks = guard->checks();
  if (tr != nullptr) {
    p.trace_id = tr->id();
    for (const tel::SpanRecord& s : tr->spans()) {
      tel::ProfileStage st;
      st.name = s.name;
      st.parent = s.parent;
      st.ns = s.end_ns >= s.start_ns ? s.end_ns - s.start_ns : 0;
      p.stages.push_back(std::move(st));
    }
  }
  return p;
}

/// The evaluation preconditions of one query on one snapshot, checked for
/// Query and for every batch item alike: StAX streams the text, so it
/// cannot use TAX, and TAX needs a built index.
Status CheckEvalPreconditions(const QueryOptions& options,
                              const DocumentSnapshot& snap,
                              const std::string& doc_name) {
  if (!options.use_tax) return Status::OK();
  if (options.mode == EvalMode::kStax) {
    return Status::InvalidArgument(
        "TAX requires DOM mode (the index addresses materialized nodes)");
  }
  if (snap.tax == nullptr) {
    return Status::FailedPrecondition(
        "document '" + doc_name + "' has no TAX index; call BuildIndex");
  }
  return Status::OK();
}

/// Fills what an answer carries besides its answers and explain tree:
/// the plan's unknown labels, the snapshot's epoch, the MFA dump (under
/// explain) and the evaluator's stats with this plan's cache hit or miss.
void FillAnswer(const CompiledPlan& plan, bool cache_hit,
                const DocumentSnapshot& snap, const QueryOptions& options,
                const EvalStats& stats, QueryAnswer* out) {
  out->unknown_labels = plan.unknown_labels;
  out->doc_epoch = snap.epoch;
  if (options.explain) out->mfa_dump = plan.mfa.ToString();
  out->stats = stats;
  out->stats.plan_cache_hits = cache_hit ? 1 : 0;
  out->stats.plan_cache_misses = cache_hit ? 0 : 1;
}

}  // namespace

Smoqe::FacadeMetrics::FacadeMetrics(tel::MetricsRegistry& reg)
    : query_count(&reg.GetCounter("query.count")),
      query_errors(&reg.GetCounter("query.errors")),
      query_answers(&reg.GetCounter("query.answers")),
      query_latency_ns(&reg.GetHistogram("query.latency_ns")),
      query_epoch_lag(&reg.GetHistogram("query.epoch_lag")),
      batch_count(&reg.GetCounter("batch.count")),
      batch_errors(&reg.GetCounter("batch.errors")),
      batch_items(&reg.GetCounter("batch.items")),
      batch_latency_ns(&reg.GetHistogram("batch.latency_ns")),
      eval_nodes_visited(&reg.GetCounter("eval.nodes_visited")),
      eval_subtrees_pruned(&reg.GetCounter("eval.subtrees_pruned")),
      eval_answers(&reg.GetCounter("eval.answers")),
      update_count(&reg.GetCounter("update.count")),
      update_accepted(&reg.GetCounter("update.accepted")),
      update_rejected(&reg.GetCounter("update.rejected")),
      update_errors(&reg.GetCounter("update.errors")),
      update_latency_ns(&reg.GetHistogram("update.latency_ns")),
      update_tax_repair_ns(&reg.GetHistogram("update.tax_repair_ns")),
      update_nodes_inserted(&reg.GetCounter("update.nodes_inserted")),
      update_nodes_deleted(&reg.GetCounter("update.nodes_deleted")),
      guard_deadline_exceeded(&reg.GetCounter("guard.deadline_exceeded")),
      guard_budget_exceeded(&reg.GetCounter("guard.budget_exceeded")),
      guard_admission_rejected(&reg.GetCounter("guard.admission_rejected")),
      guard_cancelled(&reg.GetCounter("guard.cancelled")) {}

Smoqe::Admission::Admission(Smoqe* engine)
    : engine_(engine), admitted_(true) {
  const int limit = engine->options_.max_pending_requests;
  if (limit <= 0) return;  // unbounded: the gate compiles down to nothing
  const int now = engine->inflight_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (now > limit) {
    engine->inflight_.fetch_sub(1, std::memory_order_relaxed);
    admitted_ = false;
  }
}

Smoqe::Admission::~Admission() {
  if (engine_->options_.max_pending_requests > 0 && admitted_) {
    engine_->inflight_.fetch_sub(1, std::memory_order_relaxed);
  }
}

const Guardrail* Smoqe::MakeGuard(const RequestOptions& req,
                                  MemoryBudget* budget,
                                  Guardrail* guard) const {
  const uint64_t deadline_ms =
      req.deadline_ms != 0 ? req.deadline_ms : options_.default_deadline_ms;
  const uint64_t max_bytes = req.max_memory_bytes != 0
                                 ? req.max_memory_bytes
                                 : options_.default_max_memory_bytes;
  if (deadline_ms == 0 && max_bytes == 0 && req.cancel == nullptr) {
    return nullptr;  // ungoverned: evaluators take their null-guard fast path
  }
  budget->Reset(max_bytes);
  *guard = Guardrail(Deadline::After(deadline_ms), req.cancel,
                     max_bytes != 0 ? budget : nullptr);
  return guard;
}

std::shared_ptr<tel::Trace> Smoqe::PickTrace(const char* name,
                                             const RequestOptions& req,
                                             bool* external) {
  *external = req.trace != nullptr;
  if (*external) return req.trace;
  if (req.trace_id != 0 || req.profile) {
    // An explicit correlation id or a PROFILE request must always
    // record — sampling would make the surface flaky for the caller.
    return telemetry_->traces().Begin(name, req.trace_id);
  }
  return telemetry_->MaybeBeginTrace(name);
}

const char* Smoqe::CountGuardOutcome(const Status& status) {
  switch (status.code()) {
    case StatusCode::kDeadlineExceeded:
      if (tm_ != nullptr) tm_->guard_deadline_exceeded->Add(1);
      return "deadline";
    case StatusCode::kResourceExhausted:
      if (tm_ != nullptr) tm_->guard_budget_exceeded->Add(1);
      return "budget";
    case StatusCode::kRejectedBusy:
      if (tm_ != nullptr) tm_->guard_admission_rejected->Add(1);
      return "admission";
    case StatusCode::kCancelled:
      if (tm_ != nullptr) tm_->guard_cancelled->Add(1);
      return "cancel";
    default:
      return nullptr;
  }
}

Smoqe::Smoqe(EngineOptions options)
    : names_(xml::NameTable::Create()),
      options_(options),
      plan_cache_(options.plan_cache_capacity) {
  // A pool only exists when it can actually help: max_threads == 1 (or a
  // 1-core host under the default) keeps the engine bit-for-bit serial.
  const int resolved =
      options_.max_threads > 0
          ? options_.max_threads
          : static_cast<int>(std::thread::hardware_concurrency());
  if (resolved > 1) pool_ = std::make_unique<ThreadPool>(resolved);
  if (options_.telemetry.enabled) {
    telemetry_ = std::make_unique<tel::Telemetry>(options_.telemetry);
    tm_ = std::make_unique<FacadeMetrics>(telemetry_->registry());
    plan_cache_.AttachTelemetry(&telemetry_->registry());
    if (pool_ != nullptr) pool_->AttachTelemetry(&telemetry_->registry());
  }
}

Smoqe::Smoqe(size_t plan_cache_capacity)
    : Smoqe([plan_cache_capacity] {
        EngineOptions o;
        o.plan_cache_capacity = plan_cache_capacity;
        return o;
      }()) {}

Status Smoqe::RegisterDtd(const std::string& name, std::string_view dtd_text,
                          std::string_view root) {
  SMOQE_ASSIGN_OR_RETURN(xml::Dtd dtd, xml::ParseDtd(dtd_text, root));
  std::unique_lock<std::shared_mutex> lock(catalog_mu_);
  bool replaced =
      catalog_.PutDtd(name, std::make_unique<xml::Dtd>(std::move(dtd)));
  if (replaced) {
    // Conservative: every view derived over this DTD recompiles its plans
    // on next use (the views keep their definitions until redefined).
    for (const std::string& view_name : catalog_.ViewNames()) {
      const ViewEntry* view = catalog_.FindView(view_name);
      if (view != nullptr && view->dtd_name == name) {
        plan_cache_.InvalidateView(view_name);
      }
    }
  }
  return Status::OK();
}

Status Smoqe::LoadDocument(const std::string& name,
                           std::string_view xml_text) {
  xml::ParseOptions opts;
  opts.names = names_;
  SMOQE_ASSIGN_OR_RETURN(xml::ParsedDocument parsed,
                         xml::ParseXml(xml_text, opts));
  std::unique_lock<std::shared_mutex> lock(catalog_mu_);
  if (!parsed.doctype_internal_subset.empty() &&
      catalog_.FindDtd(name) == nullptr) {
    auto dtd = xml::ParseDtd(parsed.doctype_internal_subset,
                             parsed.doctype_name);
    if (dtd.ok()) {
      SMOQE_RETURN_IF_ERROR(
          catalog_.AddDtd(name, std::make_unique<xml::Dtd>(dtd.MoveValue())));
    }
  }
  auto entry = std::make_unique<DocumentEntry>(std::string(xml_text),
                                               std::move(parsed.document));
  return catalog_.AddDocument(name, std::move(entry));
}

Status Smoqe::GenerateDocument(const std::string& name,
                               const std::string& dtd_name, uint64_t seed,
                               size_t target_nodes) {
  xml::GeneratorOptions opts;
  opts.seed = seed;
  opts.target_nodes = target_nodes;
  opts.names = names_;
  // Generate under the *shared* lock — the O(target_nodes) generation
  // and serialization must not stall concurrent readers; only the DTD
  // content has to be pinned against a concurrent RegisterDtd. The
  // unique lock covers just the catalog insert.
  std::optional<xml::Document> doc;
  {
    std::shared_lock<std::shared_mutex> lock(catalog_mu_);
    const xml::Dtd* dtd = catalog_.FindDtd(dtd_name);
    if (dtd == nullptr) {
      return Status::NotFound("DTD '" + dtd_name + "' is not registered");
    }
    SMOQE_ASSIGN_OR_RETURN(xml::Document generated,
                           xml::GenerateDocument(*dtd, opts));
    doc.emplace(std::move(generated));
  }
  std::string text = xml::SerializeDocument(*doc);
  auto entry =
      std::make_unique<DocumentEntry>(std::move(text), std::move(*doc));
  std::unique_lock<std::shared_mutex> lock(catalog_mu_);
  return catalog_.AddDocument(name, std::move(entry));
}

Status Smoqe::DefineView(const std::string& view_name,
                         const std::string& dtd_name,
                         std::string_view policy_text) {
  std::unique_lock<std::shared_mutex> lock(catalog_mu_);
  const xml::Dtd* dtd = catalog_.FindDtd(dtd_name);
  if (dtd == nullptr) {
    return Status::NotFound("DTD '" + dtd_name + "' is not registered");
  }
  SMOQE_ASSIGN_OR_RETURN(view::Policy policy,
                         view::Policy::Parse(*dtd, policy_text));
  auto policy_ptr = std::make_unique<view::Policy>(std::move(policy));
  SMOQE_ASSIGN_OR_RETURN(view::ViewDefinition def,
                         view::DeriveView(*policy_ptr));
  auto entry = std::make_unique<ViewEntry>();
  entry->dtd_name = dtd_name;
  entry->policy = std::move(policy_ptr);
  entry->definition = std::move(def);
  entry->fingerprint = ViewFingerprint(entry->definition, dtd_name);
  if (catalog_.PutView(view_name, std::move(entry))) {
    plan_cache_.InvalidateView(view_name);  // redefinition: recompile
  }
  return Status::OK();
}

Status Smoqe::DefineViewFromSpec(const std::string& view_name,
                                 std::string_view spec_text,
                                 const std::string& document_dtd_name) {
  SMOQE_ASSIGN_OR_RETURN(view::ViewDefinition def,
                         view::ParseViewSpecification(spec_text));
  std::unique_lock<std::shared_mutex> lock(catalog_mu_);
  if (!document_dtd_name.empty()) {
    const xml::Dtd* dtd = catalog_.FindDtd(document_dtd_name);
    if (dtd == nullptr) {
      return Status::NotFound("DTD '" + document_dtd_name +
                              "' is not registered");
    }
    SMOQE_RETURN_IF_ERROR(view::CheckSpecificationAgainstDtd(def, *dtd));
  }
  auto entry = std::make_unique<ViewEntry>();
  entry->dtd_name = document_dtd_name;
  entry->definition = std::move(def);
  entry->fingerprint = ViewFingerprint(entry->definition, document_dtd_name);
  if (catalog_.PutView(view_name, std::move(entry))) {
    plan_cache_.InvalidateView(view_name);  // redefinition: recompile
  }
  return Status::OK();
}

Result<std::string> Smoqe::ViewSchema(const std::string& view_name) const {
  std::shared_lock<std::shared_mutex> lock(catalog_mu_);
  const ViewEntry* view = catalog_.FindView(view_name);
  if (view == nullptr) {
    return Status::NotFound("view '" + view_name + "' is not registered");
  }
  return view->definition.view_dtd().ToString();
}

Result<std::string> Smoqe::ViewSpecification(
    const std::string& view_name) const {
  std::shared_lock<std::shared_mutex> lock(catalog_mu_);
  const ViewEntry* view = catalog_.FindView(view_name);
  if (view == nullptr) {
    return Status::NotFound("view '" + view_name + "' is not registered");
  }
  return view->definition.ToString();
}

Status Smoqe::BuildIndex(const std::string& doc_name) {
  std::shared_lock<std::shared_mutex> lock(catalog_mu_);
  DocumentEntry* doc = catalog_.FindDocument(doc_name);
  if (doc == nullptr) {
    return Status::NotFound("document '" + doc_name + "' is not loaded");
  }
  // Writer path: the successor snapshot shares the tree (and any already
  // serialized text) and differs only in the index.
  std::lock_guard<std::mutex> writer(doc->writer_mu);
  std::shared_ptr<const DocumentSnapshot> base = doc->Acquire();
  auto tax =
      std::make_shared<const index::TaxIndex>(index::TaxIndex::Build(*base->dom));
  doc->Publish(std::make_shared<const DocumentSnapshot>(
      base->dom, std::move(tax), base->text_if_ready()));
  return Status::OK();
}

Status Smoqe::SaveIndex(const std::string& doc_name,
                        const std::string& path) const {
  std::shared_ptr<const DocumentSnapshot> snap;
  {
    std::shared_lock<std::shared_mutex> lock(catalog_mu_);
    const DocumentEntry* doc = catalog_.FindDocument(doc_name);
    if (doc == nullptr) {
      return Status::NotFound("document '" + doc_name + "' is not loaded");
    }
    snap = doc->Acquire();
  }
  if (snap->tax == nullptr) {
    return Status::FailedPrecondition("document '" + doc_name +
                                      "' has no TAX index; call BuildIndex");
  }
  return index::TaxIo::Save(*snap->tax, path);
}

Status Smoqe::LoadIndex(const std::string& doc_name, const std::string& path) {
  std::shared_lock<std::shared_mutex> lock(catalog_mu_);
  DocumentEntry* doc = catalog_.FindDocument(doc_name);
  if (doc == nullptr) {
    return Status::NotFound("document '" + doc_name + "' is not loaded");
  }
  // The file is untrusted: its width is bounded by the name table (which
  // only grows) and it must have a slot for every id of the document,
  // since DescendantTypes does not bounds-check.
  SMOQE_ASSIGN_OR_RETURN(
      index::TaxIndex idx,
      index::TaxIo::Load(path, doc->Acquire()->dom->names()->size()));
  std::lock_guard<std::mutex> writer(doc->writer_mu);
  std::shared_ptr<const DocumentSnapshot> base = doc->Acquire();
  const size_t ids = static_cast<size_t>(base->dom->num_nodes());
  if (idx.num_ids() < ids) {
    return Status::InvalidArgument(
        "TAX index '" + path + "' covers " + std::to_string(idx.num_ids()) +
        " ids; document '" + doc_name + "' has " + std::to_string(ids));
  }
  doc->Publish(std::make_shared<const DocumentSnapshot>(
      base->dom, std::make_shared<const index::TaxIndex>(std::move(idx)),
      base->text_if_ready()));
  return Status::OK();
}

Result<Smoqe::PlanUse> Smoqe::GetPlan(std::string_view query_text,
                                      const QueryOptions& options,
                                      tel::Trace* tr) {
  std::unique_ptr<rxpath::PathExpr> query;
  {
    tel::SpanScope span(tr, "parse");
    SMOQE_ASSIGN_OR_RETURN(query, rxpath::ParseQuery(query_text));
  }

  const ViewEntry* view = nullptr;
  PlanCache::Key key;
  key.view = options.view;
  if (!options.view.empty()) {
    view = catalog_.FindView(options.view);
    if (view == nullptr) {
      return Status::NotFound("view '" + options.view +
                              "' is not registered");
    }
    key.view_fingerprint = view->fingerprint;
  }
  // Canonical printer rendering, so surface variants of one query share
  // one cache entry ("//a [b]" ≡ "//a[b]").
  key.normalized_query = rxpath::ToString(*query);

  if (!options.bypass_plan_cache) {
    tel::SpanScope span(tr, "cache_lookup");
    if (std::shared_ptr<const CompiledPlan> hit = plan_cache_.Lookup(key)) {
      return PlanUse{std::move(hit), /*cache_hit=*/true};
    }
  }

  // Compile: direct queries compile as-is; view queries are rewritten to
  // an equivalent MFA over the underlying document (never materializing).
  auto compiled = std::make_shared<CompiledPlan>();
  if (view == nullptr) {
    tel::SpanScope span(tr, "compile");
    SMOQE_ASSIGN_OR_RETURN(compiled->mfa,
                           automata::Mfa::Compile(*query, names_));
  } else {
    tel::SpanScope span(tr, "rewrite");
    // Query assistance: flag labels that are not part of the schema the
    // user group sees (they can never match — typo or access attempt).
    rxpath::TypeCheckResult tc = rxpath::TypeCheck(
        *query, view->definition.view_dtd(), {}, /*from_document_node=*/true);
    compiled->unknown_labels.assign(tc.unknown_labels.begin(),
                                    tc.unknown_labels.end());
    SMOQE_ASSIGN_OR_RETURN(
        compiled->mfa, rewrite::RewriteToMfa(*query, view->definition, names_));
  }
  compiled->normalized_query = key.normalized_query;
  std::shared_ptr<const CompiledPlan> plan = std::move(compiled);
  if (!options.bypass_plan_cache) {
    // Adopt whatever the cache keeps: if a concurrent compile of the same
    // key won the race, every caller converges on the winner's plan.
    plan = plan_cache_.Insert(key, std::move(plan));
  }
  return PlanUse{std::move(plan), /*cache_hit=*/false};
}

Result<QueryAnswer> Smoqe::EvalCompiled(const DocumentSnapshot& snap,
                                        const PlanUse& pu,
                                        const QueryOptions& options,
                                        const Guardrail* guard,
                                        tel::Trace* tr) {
  if (options.mode != EvalMode::kStax) {
    return EvalOnDom(snap, pu, options, guard, tr, pool_.get());
  }
  // The streaming pass captures answer subtrees as it scans, so
  // evaluation and materialization are one span here.
  tel::SpanScope span(tr, "evaluate");
  SMOQE_ASSIGN_OR_RETURN(eval::StaxEvalResult r,
                         eval::EvalHypeStax(pu.plan->mfa, snap.text(), guard));
  QueryAnswer out;
  for (auto& a : r.answers) out.answers_xml.push_back(std::move(a.xml));
  FillAnswer(*pu.plan, pu.cache_hit, snap, options, r.stats, &out);
  return out;
}

Result<QueryAnswer> Smoqe::EvalOnDom(const DocumentSnapshot& snap,
                                     const PlanUse& pu,
                                     const QueryOptions& options,
                                     const Guardrail* guard, tel::Trace* tr,
                                     ThreadPool* pool) {
  QueryAnswer out;
  eval::DomEvalOptions dom_opts;
  dom_opts.guard = guard;
  dom_opts.pool = pool;
  if (options.use_tax) dom_opts.tax = snap.tax.get();
  eval::DomEvalResult r;
  {
    tel::SpanScope span(tr, "evaluate");
    SMOQE_ASSIGN_OR_RETURN(
        r, eval::EvalHypeDom(pu.plan->mfa, *snap.dom, dom_opts,
                             options.explain ? &out.trace_tree : nullptr));
  }
  {
    tel::SpanScope span(tr, "materialize");
    SMOQE_ASSIGN_OR_RETURN(out.answers_xml,
                           xml::SerializeNodes(r.answers, *names_, guard));
    for (const xml::Node* n : r.answers) out.answer_ids.push_back(n->node_id);
  }
  FillAnswer(*pu.plan, pu.cache_hit, snap, options, r.stats, &out);
  return out;
}

void Smoqe::FoldEvalStats(const EvalStats& stats) {
  tm_->eval_nodes_visited->Add(stats.nodes_visited);
  tm_->eval_subtrees_pruned->Add(stats.subtrees_pruned);
  tm_->eval_answers->Add(stats.answers);
}

void Smoqe::AppendAudit(tel::AuditKind kind, const std::string& doc_name,
                        const std::string& view_name,
                        std::string_view statement, uint64_t doc_epoch,
                        uint64_t trace_id, std::string explain) {
  tel::AuditRecord rec;
  rec.kind = kind;
  rec.view = view_name;
  rec.doc = doc_name;
  rec.doc_epoch = doc_epoch;
  rec.statement = std::string(statement);
  // A query rewrite is itself the enforcement, so it is always allowed.
  rec.allowed = kind != tel::AuditKind::kUpdateReject;
  rec.explain = std::move(explain);
  rec.trace_id = trace_id;
  telemetry_->audit().Append(std::move(rec));
}

template <typename T, typename Annotate, typename Impl, typename Outcome>
Result<T> Smoqe::Envelope(const char* op, const RequestOptions& req,
                          const Annotate& annotate, const Impl& impl,
                          const Outcome& outcome) {
  Admission slot(this);
  if (!slot.ok()) {
    Status busy = Status::RejectedBusy(
        "engine is at max_pending_requests (" +
        std::to_string(options_.max_pending_requests) + " in flight)");
    CountGuardOutcome(busy);
    return busy;
  }
  MemoryBudget budget;
  Guardrail guard_storage;
  const Guardrail* guard = MakeGuard(req, &budget, &guard_storage);
  if (telemetry_ == nullptr) return impl(guard, nullptr);
  const auto t0 = std::chrono::steady_clock::now();
  bool external = false;
  std::shared_ptr<tel::Trace> trace = PickTrace(op, req, &external);
  tel::Trace* tr = trace.get();
  if (tr != nullptr) annotate(*tr);

  Result<T> result = impl(guard, tr);

  const uint64_t elapsed_ns = ElapsedNs(t0);
  if (!result.ok()) {
    const char* guard_kind = CountGuardOutcome(result.status());
    if (tr != nullptr && guard_kind != nullptr) {
      tr->SetAttr("guard", guard_kind);
    }
  }
  // PROFILE / slow-query capture — on every outcome, so failures are
  // debuggable too (an error's profile carries the stages that ran up
  // to the failure point and empty stats).
  const uint64_t threshold_ns =
      options_.slow_query_threshold_ms * 1000000ull;
  const bool slow =
      telemetry_->slow().enabled() && elapsed_ns >= threshold_ns;
  std::optional<tel::Profile> profile;
  if (slow || req.profile) profile = MakeProfile(op, elapsed_ns, guard, tr);
  outcome(result, elapsed_ns, tr, profile.has_value() ? &*profile : nullptr);
  if (slow) {
    std::string role = profile->view;
    telemetry_->slow().Append(std::move(*profile), std::move(role),
                              threshold_ns);
  }
  if (tr != nullptr) {
    tr->SetAttr("status", result.ok() ? "ok" : result.status().ToString());
    if (!external) telemetry_->traces().Finish(trace);
  }
  return result;
}

Result<QueryAnswer> Smoqe::QueryImpl(const std::string& doc_name,
                                     std::string_view query_text,
                                     const QueryOptions& options,
                                     const Guardrail* guard, tel::Trace* tr,
                                     bool want_canonical) {
  // Entry check: a deadline that arrived expired (or a pre-cancelled
  // token) fails before any parsing or locking.
  if (guard != nullptr) SMOQE_RETURN_IF_ERROR(guard->Check());
  std::shared_ptr<const DocumentSnapshot> snap;
  PlanUse plan;
  {
    std::shared_lock<std::shared_mutex> lock(catalog_mu_);
    DocumentEntry* doc = catalog_.FindDocument(doc_name);
    if (doc == nullptr) {
      return Status::NotFound("document '" + doc_name + "' is not loaded");
    }
    SMOQE_ASSIGN_OR_RETURN(plan, GetPlan(query_text, options, tr));
    snap = doc->Acquire();
  }
  // No lock held during evaluation: the snapshot is pinned, the plan is
  // immutable and shared.
  SMOQE_RETURN_IF_ERROR(CheckEvalPreconditions(options, *snap, doc_name));
  Result<QueryAnswer> out = EvalCompiled(*snap, plan, options, guard, tr);
  if (out.ok() && want_canonical) {
    out->canonical_query = plan.plan->normalized_query;
  }
  return out;
}

Result<QueryAnswer> Smoqe::Query(const std::string& doc_name,
                                 std::string_view query_text,
                                 const QueryOptions& options,
                                 const RequestOptions& req) {
  auto annotate = [&](tel::Trace& tr) {
    tr.SetAttr("doc", doc_name);
    tr.SetAttr("query", std::string(query_text));
    if (!options.view.empty()) tr.SetAttr("view", options.view);
    tr.SetAttr("mode", options.mode == EvalMode::kStax ? "stax" : "dom");
  };
  auto impl = [&](const Guardrail* guard, tel::Trace* tr) {
    return QueryImpl(doc_name, query_text, options, guard, tr, req.profile);
  };
  auto outcome = [&](Result<QueryAnswer>& result, uint64_t elapsed_ns,
                     tel::Trace* tr, tel::Profile* p) {
    tm_->query_count->Add();
    tm_->query_latency_ns->Record(elapsed_ns);
    if (result.ok()) {
      QueryAnswer& a = *result;
      if (tr != nullptr) a.trace_id = tr->id();
      tm_->query_answers->Add(a.answers_xml.size());
      FoldEvalStats(a.stats);
      // Epoch lag: how far the published document moved past the
      // snapshot this query answered from (0 = answered the newest epoch).
      Result<uint64_t> cur = DocumentEpoch(doc_name);
      if (cur.ok() && *cur >= a.doc_epoch) {
        tm_->query_epoch_lag->Record(*cur - a.doc_epoch);
      }
      if (!options.view.empty()) {
        AppendAudit(tel::AuditKind::kQueryRewrite, doc_name, options.view,
                    query_text, a.doc_epoch, a.trace_id);
      }
    } else {
      tm_->query_errors->Add();
    }
    if (p == nullptr) return;
    p->doc = doc_name;
    p->view = options.view;
    p->statement = std::string(query_text);
    if (!result.ok()) return;
    p->plan_cache_hit = result->stats.plan_cache_hits > 0;
    p->doc_epoch = result->doc_epoch;
    p->canonical_query = result->canonical_query;
    p->stats = result->stats;
    if (req.profile) result->profile = std::make_shared<tel::Profile>(*p);
  };
  return Envelope<QueryAnswer>("query", req, annotate, impl, outcome);
}

Status Smoqe::EvalBatchOnSnapshot(const DocumentSnapshot& snap,
                                  const std::vector<DocBatchItem>& items,
                                  const std::vector<PlanUse>& plans,
                                  const std::vector<size_t>& sel,
                                  const Guardrail* guard,
                                  std::vector<QueryAnswer>* out,
                                  tel::Trace* tr) {
  if (sel.empty()) return Status::OK();
  // Every item walks the snapshot's DOM, StAX-mode items included: the
  // tree is already in memory, so re-tokenizing the text for them costs
  // more than it shares (docs/DESIGN.md §5.2). Items are independent, so
  // they fan out across the pool.
  tel::SpanScope dom_span(tr, "evaluate.dom_items");
  std::vector<Status> statuses(sel.size(), Status::OK());
  // A tripped guard fails the whole call (below), so once an item has
  // seen it trip, the items that start later do no work.
  std::atomic<bool> tripped{false};
  auto eval_one = [&](size_t j) {
    if (tripped.load(std::memory_order_relaxed)) return;
    const size_t i = sel[j];
    // Per-item child spans come from EvalOnDom (evaluate / materialize),
    // parented under the shared dom_items span; workers append
    // concurrently, which Trace supports.
    tel::SpanScope item_span(tr, "item", dom_span.index());
    auto answer =
        EvalOnDom(snap, plans[i], items[i].options, guard, tr, nullptr);
    if (answer.ok()) {
      (*out)[i] = std::move(*answer);
    } else {
      statuses[j] = answer.status();
      if (IsGuardTermination(statuses[j])) {
        tripped.store(true, std::memory_order_relaxed);
      }
    }
  };
  if (ParallelEnabled() && sel.size() > 1) {
    pool_->ParallelFor(sel.size(), eval_one);
  } else {
    for (size_t j = 0; j < sel.size(); ++j) eval_one(j);
  }
  for (size_t j = 0; j < sel.size(); ++j) {
    if (!statuses[j].ok()) {
      const size_t i = sel[j];
      Status st = statuses[j].WithContext("batch item " + std::to_string(i));
      // A tripped request guardrail fails the whole call (fail-closed,
      // no partial answer); anything else fails just this item.
      if (IsGuardTermination(statuses[j])) return st;
      (*out)[i].status = std::move(st);
    }
  }
  return Status::OK();
}

Result<std::vector<QueryAnswer>> Smoqe::QueryBatchMultiImpl(
    const std::vector<DocBatchItem>& items, const std::string* only_doc,
    const Guardrail* guard, tel::Trace* tr) {
  if (guard != nullptr) SMOQE_RETURN_IF_ERROR(guard->Check());
  // Group items by document (first-appearance order) and pin one snapshot
  // per document; each group then evaluates like a one-document batch.
  struct Group {
    std::string doc_name;
    std::shared_ptr<const DocumentSnapshot> snap;
    std::vector<size_t> sel;  // indices of the group's items that compiled
  };
  std::vector<Group> groups;
  std::map<std::string, size_t> group_of;
  std::vector<size_t> group_idx(items.size());
  std::vector<PlanUse> plans(items.size());
  std::vector<QueryAnswer> out(items.size());
  {
    std::shared_lock<std::shared_mutex> lock(catalog_mu_);
    if (only_doc != nullptr && catalog_.FindDocument(*only_doc) == nullptr) {
      return Status::NotFound("document '" + *only_doc + "' is not loaded");
    }
    for (size_t i = 0; i < items.size(); ++i) {
      auto [it, inserted] = group_of.emplace(items[i].doc, groups.size());
      if (inserted) {
        DocumentEntry* doc = catalog_.FindDocument(items[i].doc);
        if (doc == nullptr) {
          return Status::NotFound("document '" + items[i].doc +
                                  "' is not loaded")
              .WithContext("batch item " + std::to_string(i));
        }
        groups.push_back(Group{items[i].doc, doc->Acquire(), {}});
      }
      group_idx[i] = it->second;
    }
    // Resolve plans and evaluation preconditions per item. An item that
    // fails here (unknown view, parse error, TAX-mode conflict) fails
    // *only itself*: its status lands in out[i].status and it is left
    // out of its group's evaluation selection; the siblings still run.
    tel::SpanScope span(tr, "compile_items");
    for (size_t i = 0; i < items.size(); ++i) {
      const QueryOptions& o = items[i].options;
      Group& g = groups[group_idx[i]];
      auto plan = GetPlan(items[i].query, o, nullptr);
      Status item_st = plan.ok()
                           ? CheckEvalPreconditions(o, *g.snap, g.doc_name)
                           : plan.status();
      if (!item_st.ok()) {
        out[i].status = item_st.WithContext("batch item " + std::to_string(i));
        continue;
      }
      plans[i] = std::move(*plan);
      g.sel.push_back(i);
    }
  }

  // Groups write disjoint slots of `out`, so they need no merge step.
  std::vector<Status> statuses(groups.size(), Status::OK());
  auto eval_group = [&](size_t gi) {
    const Group& g = groups[gi];
    statuses[gi] = EvalBatchOnSnapshot(*g.snap, items, plans, g.sel, guard,
                                       &out, tr);
  };
  // Independent documents evaluate concurrently; within a group the usual
  // batch parallelism applies (nested ParallelFor is deadlock-free — the
  // pool's fork/join helps while waiting).
  if (ParallelEnabled() && groups.size() > 1) {
    pool_->ParallelFor(groups.size(), eval_group);
  } else {
    for (size_t gi = 0; gi < groups.size(); ++gi) eval_group(gi);
  }
  for (size_t gi = 0; gi < groups.size(); ++gi) {
    if (statuses[gi].ok()) continue;
    if (only_doc != nullptr) return statuses[gi];
    return statuses[gi].WithContext("document '" + groups[gi].doc_name + "'");
  }
  return out;
}

Result<std::vector<QueryAnswer>> Smoqe::RunBatch(
    const char* op, const std::string* only_doc,
    const std::vector<DocBatchItem>& items, const RequestOptions& req) {
  auto annotate = [&](tel::Trace& tr) {
    if (only_doc != nullptr) tr.SetAttr("doc", *only_doc);
    tr.SetAttr("items", std::to_string(items.size()));
  };
  auto impl = [&](const Guardrail* guard, tel::Trace* tr) {
    return QueryBatchMultiImpl(items, only_doc, guard, tr);
  };
  auto outcome = [&](Result<std::vector<QueryAnswer>>& result,
                     uint64_t elapsed_ns, tel::Trace* tr, tel::Profile* p) {
    tm_->batch_count->Add();
    tm_->batch_items->Add(items.size());
    tm_->batch_latency_ns->Record(elapsed_ns);
    // Batch-level stats are the MergeFrom fold of the per-item stats
    // (identical under serial and parallel execution — asserted in the
    // concurrency suite); only the fold touches the registry. Items that
    // failed locally contribute nothing — no stats, no audit record.
    EvalStats agg;
    if (result.ok()) {
      for (size_t i = 0; i < result->size(); ++i) {
        QueryAnswer& a = (*result)[i];
        if (tr != nullptr) a.trace_id = tr->id();
        if (!a.status.ok()) {
          tm_->query_errors->Add();
          continue;
        }
        agg.MergeFrom(a.stats);
        if (!items[i].options.view.empty()) {
          AppendAudit(tel::AuditKind::kQueryRewrite, items[i].doc,
                      items[i].options.view, items[i].query, a.doc_epoch,
                      a.trace_id);
        }
      }
      FoldEvalStats(agg);
      tm_->query_answers->Add(agg.answers);
    } else {
      tm_->batch_errors->Add();
    }
    // One batch-level profile (per-item breakdowns would need per-item
    // traces); it rides on the FIRST item's answer when requested.
    if (p == nullptr) return;
    if (only_doc != nullptr) p->doc = *only_doc;
    p->statement = std::to_string(items.size()) + " items";
    if (!result.ok()) return;
    p->plan_cache_hit = agg.plan_cache_misses == 0 && agg.plan_cache_hits > 0;
    p->stats = agg;
    for (const QueryAnswer& a : *result) {
      if (a.status.ok()) {
        p->doc_epoch = a.doc_epoch;
        break;
      }
    }
    if (req.profile && !result->empty()) {
      result->front().profile = std::make_shared<tel::Profile>(*p);
    }
  };
  return Envelope<std::vector<QueryAnswer>>(op, req, annotate, impl, outcome);
}

Result<std::vector<QueryAnswer>> Smoqe::QueryBatch(
    const std::string& doc_name, const std::vector<BatchQueryItem>& items,
    const RequestOptions& req) {
  std::vector<DocBatchItem> doc_items;
  doc_items.reserve(items.size());
  for (const BatchQueryItem& it : items) {
    doc_items.push_back(DocBatchItem{doc_name, it.query, it.options});
  }
  return RunBatch("query_batch", &doc_name, doc_items, req);
}

Result<std::vector<QueryAnswer>> Smoqe::QueryBatchMulti(
    const std::vector<DocBatchItem>& items, const RequestOptions& req) {
  return RunBatch("query_batch_multi", nullptr, items, req);
}

Result<MaterializedViewAnswer> Smoqe::MaterializeView(
    const std::string& doc_name, const std::string& view_name) const {
  std::shared_lock<std::shared_mutex> lock(catalog_mu_);
  const DocumentEntry* doc = catalog_.FindDocument(doc_name);
  if (doc == nullptr) {
    return Status::NotFound("document '" + doc_name + "' is not loaded");
  }
  const ViewEntry* view = catalog_.FindView(view_name);
  if (view == nullptr) {
    return Status::NotFound("view '" + view_name + "' is not registered");
  }
  std::shared_ptr<const DocumentSnapshot> snap = doc->Acquire();
  SMOQE_ASSIGN_OR_RETURN(view::MaterializedView mv,
                         view::Materialize(view->definition, *snap->dom));
  MaterializedViewAnswer out;
  out.xml = xml::SerializeDocument(mv.document);
  out.epoch = snap->epoch;
  return out;
}

Result<std::shared_ptr<const DocumentSnapshot>> Smoqe::Snapshot(
    const std::string& doc_name) const {
  std::shared_lock<std::shared_mutex> lock(catalog_mu_);
  const DocumentEntry* doc = catalog_.FindDocument(doc_name);
  if (doc == nullptr) {
    return Status::NotFound("document '" + doc_name + "' is not loaded");
  }
  return doc->Acquire();
}

Result<std::string> Smoqe::DocumentXml(const std::string& doc_name) const {
  SMOQE_ASSIGN_OR_RETURN(std::shared_ptr<const DocumentSnapshot> snap,
                         Snapshot(doc_name));
  return xml::SerializeDocument(*snap->dom);
}

Result<uint64_t> Smoqe::DocumentEpoch(const std::string& doc_name) const {
  SMOQE_ASSIGN_OR_RETURN(std::shared_ptr<const DocumentSnapshot> snap,
                         Snapshot(doc_name));
  return snap->epoch;
}

Result<UpdateResult> Smoqe::UpdateImpl(const std::string& doc_name,
                                       std::string_view update_text,
                                       const UpdateOptions& options,
                                       const Guardrail* guard,
                                       tel::Trace* tr) {
  if (guard != nullptr) SMOQE_RETURN_IF_ERROR(guard->Check());
  std::shared_lock<std::shared_mutex> lock(catalog_mu_);
  DocumentEntry* doc = catalog_.FindDocument(doc_name);
  if (doc == nullptr) {
    return Status::NotFound("document '" + doc_name + "' is not loaded");
  }
  update::UpdateStatement stmt;
  {
    tel::SpanScope span(tr, "parse");
    SMOQE_ASSIGN_OR_RETURN(stmt, update::ParseUpdate(update_text, names_));
  }

  const ViewEntry* view = nullptr;
  if (!options.view.empty()) {
    view = catalog_.FindView(options.view);
    if (view == nullptr) {
      return Status::NotFound("view '" + options.view + "' is not registered");
    }
  }

  // Revalidation schema: explicit name → the view's document DTD → a DTD
  // registered under the document's name → none.
  const xml::Dtd* dtd = nullptr;
  if (!options.dtd_name.empty()) {
    dtd = catalog_.FindDtd(options.dtd_name);
    if (dtd == nullptr) {
      return Status::NotFound("DTD '" + options.dtd_name +
                              "' is not registered");
    }
  } else if (view != nullptr && !view->dtd_name.empty()) {
    dtd = catalog_.FindDtd(view->dtd_name);
  } else {
    dtd = catalog_.FindDtd(doc_name);
  }

  if (view != nullptr && view->policy == nullptr) {
    return Status::FailedPrecondition(
        "view '" + options.view +
        "' was registered from a specification, not a policy; updates "
        "require a policy-derived view");
  }

  // One writer at a time per document; readers are never blocked — they
  // stay pinned to the base snapshot for as long as they need it.
  std::lock_guard<std::mutex> writer(doc->writer_mu);
  std::shared_ptr<const DocumentSnapshot> base = doc->Acquire();

  // Resolve the target set to document node ids the way Query evaluates a
  // path (DESIGN.md §6.1): the plan cache's plan — for view updates the
  // target rewritten into an MFA over the document, so the view is never
  // materialized — run by HyPE over the pinned base snapshot, TAX-pruned
  // when it is indexed and governed by the request's guard. The walk is
  // serial: a writer leaves the pool to the readers.
  std::set<int32_t> target_ids;
  {
    tel::SpanScope span(tr, "resolve");
    QueryOptions resolve;
    resolve.view = options.view;
    SMOQE_ASSIGN_OR_RETURN(
        PlanUse plan,
        GetPlan(rxpath::ToString(*stmt.target), resolve, nullptr));
    eval::DomEvalOptions dom_opts;
    dom_opts.tax = base->tax.get();
    dom_opts.guard = guard;
    SMOQE_ASSIGN_OR_RETURN(
        eval::DomEvalResult r,
        eval::EvalHypeDom(plan.plan->mfa, *base->dom, dom_opts));
    for (const xml::Node* n : r.answers) target_ids.insert(n->node_id);
  }

  UpdateResult out;
  out.canonical = update::ToString(stmt);
  out.stats.targets = target_ids.size();
  out.stats.doc_epoch = base->epoch;
  if (target_ids.empty()) return out;  // nothing selected: a successful no-op

  // Target resolution walked the whole document; re-check before the
  // edits are checked.
  if (guard != nullptr) SMOQE_RETURN_IF_ERROR(guard->Check());

  // Authorize (view updates only), then plan and validate — all on the
  // pinned base snapshot, which they only read, and all before anything
  // is copied: a rejected, invalid or dry-run update costs no clone.
  const xml::Document* fragment =
      stmt.fragment.has_value() ? &*stmt.fragment : nullptr;
  std::vector<update::ResolvedEdit> script;
  for (int32_t id : target_ids) {
    script.push_back(
        update::ResolvedEdit{stmt.kind, base->dom->node(id), fragment});
  }
  if (view != nullptr) {
    tel::SpanScope span(tr, "authorize");
    SMOQE_RETURN_IF_ERROR(
        update::AuthorizeScript(*view->policy, *base->dom, script));
  }
  update::ApplierOptions apply_opts;
  apply_opts.dtd = dtd;
  apply_opts.guard = guard;
  update::EditPlan plan;
  {
    tel::SpanScope span(tr, "validate");
    SMOQE_ASSIGN_OR_RETURN(plan,
                           update::PlanScript(*base->dom, script, apply_opts));
  }
  if (options.dry_run) return out;  // nothing was copied or published

  // Copy-on-write: the accepted plan commits onto a private clone; the
  // published snapshot is untouched until the final Publish. Ids and
  // orders survive the clone, so the plan applies verbatim.
  std::optional<xml::Document> clone;
  std::optional<index::TaxIndex> tax_copy;
  {
    tel::SpanScope span(tr, "clone");
    clone.emplace(base->dom->Clone());
    if (base->tax != nullptr) tax_copy.emplace(*base->tax);
  }
  // Post-clone growth (fragment grafts) charges the request budget; the
  // clone itself is the document's standing footprint, not request-owned.
  if (guard != nullptr) clone->set_memory_budget(guard->budget());
  apply_opts.tax = tax_copy.has_value() ? &*tax_copy : nullptr;

  update::ApplyStats applied;
  {
    tel::SpanScope span(tr, "apply");
    const auto apply_t0 = std::chrono::steady_clock::now();
    SMOQE_ASSIGN_OR_RETURN(
        applied, update::UpdateApplier(&*clone, apply_opts).Commit(plan));
    if (tm_ != nullptr) tm_->update_tax_repair_ns->Record(ElapsedNs(apply_t0));
  }
  out.stats.edits_applied = applied.edits_applied;
  out.stats.edits_dropped = applied.edits_dropped;
  out.stats.nodes_inserted = applied.nodes_inserted;
  out.stats.nodes_deleted = applied.nodes_deleted;
  out.stats.tax_sets_recomputed = applied.tax_sets_recomputed;
  out.stats.doc_epoch = clone->epoch();

  // Last guard check *before Publish* — the fail-closed point. A trip
  // here (deadline landing mid-apply, budget blown by a graft) discards
  // the mutated clone and the shadow TAX copy; the published snapshot
  // chain and epoch are untouched.
  if (guard != nullptr) SMOQE_RETURN_IF_ERROR(guard->Check());
  clone->set_memory_budget(nullptr);  // the budget dies with this request

  // Publish the successor snapshot. Readers that acquired the base keep
  // it alive until they finish; the base tree is then freed by refcount.
  tel::SpanScope publish_span(tr, "publish");
  std::shared_ptr<const index::TaxIndex> new_tax;
  if (tax_copy.has_value()) {
    new_tax = std::make_shared<const index::TaxIndex>(std::move(*tax_copy));
  }
  doc->Publish(std::make_shared<const DocumentSnapshot>(
      std::make_shared<const xml::Document>(std::move(*clone)),
      std::move(new_tax), nullptr));
  return out;
}

Result<UpdateResult> Smoqe::Update(const std::string& doc_name,
                                   std::string_view update_text,
                                   const UpdateOptions& options,
                                   const RequestOptions& req) {
  auto annotate = [&](tel::Trace& tr) {
    tr.SetAttr("doc", doc_name);
    if (!options.view.empty()) tr.SetAttr("view", options.view);
    if (options.dry_run) tr.SetAttr("dry_run", "true");
  };
  auto impl = [&](const Guardrail* guard, tel::Trace* tr) {
    return UpdateImpl(doc_name, update_text, options, guard, tr);
  };
  auto outcome = [&](Result<UpdateResult>& result, uint64_t elapsed_ns,
                     tel::Trace* tr, tel::Profile* p) {
    tm_->update_count->Add(1);
    tm_->update_latency_ns->Record(elapsed_ns);
    const uint64_t trace_id = tr != nullptr ? tr->id() : 0;
    if (result.ok()) {
      tm_->update_accepted->Add(1);
      tm_->update_nodes_inserted->Add(
          static_cast<int64_t>(result->stats.nodes_inserted));
      tm_->update_nodes_deleted->Add(
          static_cast<int64_t>(result->stats.nodes_deleted));
      if (!options.view.empty()) {
        AppendAudit(tel::AuditKind::kUpdateAccept, doc_name, options.view,
                    update_text, result->stats.doc_epoch, trace_id);
      }
    } else if (result.status().code() == StatusCode::kPermissionDenied) {
      // Every security denial leaves exactly one audit record carrying
      // the evaluator's explain string verbatim (tested differentially
      // against the returned Status in tests/telemetry_facade_test.cc).
      tm_->update_rejected->Add(1);
      Result<uint64_t> epoch = DocumentEpoch(doc_name);
      AppendAudit(tel::AuditKind::kUpdateReject, doc_name, options.view,
                  update_text, epoch.ok() ? *epoch : 0, trace_id,
                  result.status().message());
    } else {
      // Guard terminations land here by design: a deadline / budget /
      // cancel trip is a resource outcome, not a security decision, so it
      // counts as an error and an audit record is deliberately NOT
      // written (docs/QUERY_LANGUAGE.md "Updates").
      tm_->update_errors->Add(1);
    }
    // Updates never attach a profile; one is built for the slow log only.
    if (p == nullptr) return;
    p->doc = doc_name;
    p->view = options.view;
    p->statement = std::string(update_text);
    if (result.ok()) {
      p->doc_epoch = result->stats.doc_epoch;
      p->canonical_query = result->canonical;
    }
  };
  return Envelope<UpdateResult>("update", req, annotate, impl, outcome);
}

std::string Smoqe::DumpMetrics(tel::DumpFormat format) const {
  if (telemetry_ == nullptr) {
    return format == tel::DumpFormat::kJson ? "{}\n" : "";
  }
  tel::MetricsRegistry& reg = telemetry_->registry();
  // Pull-time gauges: cheap process-wide facts sampled at dump time
  // rather than maintained on the hot path.
  reg.GetGauge("snapshot.live").Set(DocumentSnapshot::LiveCount());
  reg.GetGauge("snapshot.created").Set(DocumentSnapshot::CreatedCount());
  // Requests holding an admission slot (always 0 with the gate unbounded).
  reg.GetGauge("admission.inflight")
      .Set(inflight_.load(std::memory_order_relaxed));
  reg.GetGauge("audit.total")
      .Set(static_cast<int64_t>(telemetry_->audit().total()));
  reg.GetGauge("audit.dropped")
      .Set(static_cast<int64_t>(telemetry_->audit().dropped()));
  reg.GetGauge("trace.finished")
      .Set(static_cast<int64_t>(telemetry_->traces().finished_count()));
  reg.GetGauge("slowlog.total")
      .Set(static_cast<int64_t>(telemetry_->slow().total()));
  reg.GetGauge("slowlog.dropped")
      .Set(static_cast<int64_t>(telemetry_->slow().dropped()));
  {
    std::shared_lock<std::shared_mutex> lock(catalog_mu_);
    for (const std::string& name : catalog_.DocumentNames()) {
      const DocumentEntry* doc = catalog_.FindDocument(name);
      if (doc == nullptr) continue;
      reg.GetGauge("doc.epoch." + name)
          .Set(static_cast<int64_t>(doc->Acquire()->epoch));
    }
  }
  return reg.Render(format);
}

std::string Smoqe::DumpSlowQueries() const {
  if (telemetry_ == nullptr) return "[]\n";
  return telemetry_->slow().RenderJson();
}

std::vector<std::string> Smoqe::DocumentNames() const {
  std::shared_lock<std::shared_mutex> lock(catalog_mu_);
  return catalog_.DocumentNames();
}

std::vector<std::string> Smoqe::ViewNames() const {
  std::shared_lock<std::shared_mutex> lock(catalog_mu_);
  return catalog_.ViewNames();
}

}  // namespace smoqe::core
