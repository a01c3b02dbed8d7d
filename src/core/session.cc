#include "src/core/session.h"

#include <utility>

namespace smoqe::core {

Session::Session(Smoqe* engine, std::string role)
    : engine_(engine),
      role_(std::move(role)),
      cancel_(std::make_unique<CancelToken>()) {}

Result<Session> Session::Open(Smoqe* engine, std::string role) {
  if (engine == nullptr) {
    return Status::InvalidArgument("Session::Open: null engine");
  }
  if (!role.empty()) {
    // Validate the binding at handshake time: the one catalog read here
    // makes a bad role fail the connection, not its first query.
    auto schema = engine->ViewSchema(role);
    if (!schema.ok()) {
      return Status::NotFound("unknown role (no such view): " + role);
    }
  }
  return Session(engine, std::move(role));
}

RequestOptions Session::MakeRequest(const SessionRequestOptions& opts) const {
  RequestOptions req;
  req.deadline_ms = opts.deadline_ms;
  req.max_memory_bytes = opts.max_memory_bytes;
  req.cancel = cancel_.get();
  req.trace_id = opts.trace_id;
  req.profile = opts.profile;
  req.trace = opts.trace;
  return req;
}

Result<QueryAnswer> Session::Query(const std::string& doc,
                                   std::string_view query,
                                   const SessionQueryOptions& options,
                                   const SessionRequestOptions& req) {
  QueryOptions qo;
  qo.view = role_;
  qo.mode = options.mode;
  qo.use_tax = options.use_tax;
  return engine_->Query(doc, query, qo, MakeRequest(req));
}

Result<std::vector<QueryAnswer>> Session::QueryBatch(
    const std::string& doc, const std::vector<SessionBatchItem>& items,
    const SessionRequestOptions& req) {
  std::vector<BatchQueryItem> batch;
  batch.reserve(items.size());
  for (const SessionBatchItem& it : items) {
    BatchQueryItem b;
    b.query = it.query;
    b.options.view = role_;
    b.options.mode = it.options.mode;
    b.options.use_tax = it.options.use_tax;
    batch.push_back(std::move(b));
  }
  return engine_->QueryBatch(doc, batch, MakeRequest(req));
}

Result<UpdateResult> Session::Update(const std::string& doc,
                                     std::string_view statement, bool dry_run,
                                     const SessionRequestOptions& req) {
  UpdateOptions uo;
  uo.view = role_;
  uo.dry_run = dry_run;
  return engine_->Update(doc, statement, uo, MakeRequest(req));
}

}  // namespace smoqe::core
