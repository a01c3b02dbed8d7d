/// \file
/// \brief Session-scoped request entry points (docs/DESIGN.md §10.2):
/// an authenticated principal bound to one security view for its whole
/// lifetime, issuing queries and updates that can never name a different
/// view. This is the deployment shape the paper's "millions of users"
/// claim implies (and Mahfoud–Imine's framework assumes): authenticate
/// once, bind role → view, then serve a stream of requests.
///
/// `smoqed` opens one Session per connection at handshake; the test
/// harness drives the same class in-process, so the differential
/// contract "server response ≡ library answer" compares two paths that
/// share everything from this layer down.

#ifndef SMOQE_CORE_SESSION_H_
#define SMOQE_CORE_SESSION_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/guardrail.h"
#include "src/common/status.h"
#include "src/core/smoqe.h"

namespace smoqe::core {

/// Per-request knobs a session caller may choose; the view is *not* one
/// of them — that is the whole point of the session.
struct SessionQueryOptions {
  EvalMode mode = EvalMode::kDom;
  bool use_tax = false;
};

/// One query of a session batch (the session's view applies to all).
struct SessionBatchItem {
  std::string query;
  SessionQueryOptions options;
};

/// Request-scoped governance + observability knobs a session caller may
/// set (all RequestOptions semantics; 0/false/null = engine default).
/// The view is still *not* here — that is the whole point of a session.
struct SessionRequestOptions {
  uint64_t deadline_ms = 0;
  uint64_t max_memory_bytes = 0;
  /// Wire trace-context adoption: the caller's trace id, and whether a
  /// structured profile should ride back with the answer.
  uint64_t trace_id = 0;
  bool profile = false;
  /// Externally owned trace (smoqed's worker) — see RequestOptions::trace.
  std::shared_ptr<tel::Trace> trace;
};

/// \brief A role-bound handle on a Smoqe engine.
///
/// `role` is the security-view name the principal authenticated as; the
/// empty role means trusted direct access (no view — gate it at the
/// caller, e.g. ServerOptions::allow_direct). Open() validates that the
/// view exists so a bad role fails at handshake, not on the first query.
///
/// Sessions hold no engine state beyond the role string and a cancel
/// token: view redefinition between requests is picked up exactly as a
/// direct facade call would (the facade resolves the view per request).
/// Thread-compatible: one session serves one principal; concurrent
/// principals each hold their own (the engine underneath is fully
/// thread-safe).
class Session {
 public:
  /// Binds `role` on `engine` (non-owning; the engine must outlive the
  /// session). Fails with NotFound when the role names no view.
  static Result<Session> Open(Smoqe* engine, std::string role);

  /// The session's own cancel token, wired into every request this
  /// session issues. `smoqed` cancels it when the connection dies, so a
  /// disconnected client's in-flight work unwinds instead of running to
  /// completion for nobody. Heap-held so Session stays movable (tokens
  /// contain an atomic and are pinned by address).
  CancelToken& cancel_token() { return *cancel_; }

  const std::string& role() const { return role_; }
  Smoqe* engine() const { return engine_; }

  /// Query through the bound view. `req` follows RequestOptions
  /// semantics (0 / false / null = engine default).
  Result<QueryAnswer> Query(const std::string& doc, std::string_view query,
                            const SessionQueryOptions& options = {},
                            const SessionRequestOptions& req = {});

  /// Batch of queries, all through the bound view, one pinned snapshot.
  Result<std::vector<QueryAnswer>> QueryBatch(
      const std::string& doc, const std::vector<SessionBatchItem>& items,
      const SessionRequestOptions& req = {});

  /// Update through the bound view (authorized against its annotations;
  /// a direct session is trusted). Profiles never ride on update results
  /// — `req.profile` only forces span recording.
  Result<UpdateResult> Update(const std::string& doc,
                              std::string_view statement, bool dry_run = false,
                              const SessionRequestOptions& req = {});

 private:
  Session(Smoqe* engine, std::string role);

  RequestOptions MakeRequest(const SessionRequestOptions& req) const;

  Smoqe* engine_;
  std::string role_;
  std::unique_ptr<CancelToken> cancel_;
};

}  // namespace smoqe::core

#endif  // SMOQE_CORE_SESSION_H_
