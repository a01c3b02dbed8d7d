#include "src/telemetry/audit.h"

#include <chrono>

#include "src/common/strings.h"

namespace smoqe::telemetry {

const char* AuditKindName(AuditKind kind) {
  switch (kind) {
    case AuditKind::kQueryRewrite:
      return "query_rewrite";
    case AuditKind::kUpdateAccept:
      return "update_accept";
    case AuditKind::kUpdateReject:
      return "update_reject";
  }
  return "unknown";
}

AuditLog::AuditLog(size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

uint64_t AuditLog::Append(AuditRecord record) {
  record.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  record.unix_micros =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  const uint64_t seq = record.seq;
  std::lock_guard<std::mutex> lock(mu_);
  records_.push_back(std::move(record));
  while (records_.size() > capacity_) {
    records_.pop_front();
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
  return seq;
}

std::vector<AuditRecord> AuditLog::Query(const AuditFilter& filter) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<AuditRecord> out;
  for (const AuditRecord& r : records_) {
    if (r.seq < filter.min_seq) continue;
    if (filter.kind != nullptr && r.kind != *filter.kind) continue;
    if (filter.allowed != nullptr && r.allowed != *filter.allowed) continue;
    if (!filter.view.empty() && r.view != filter.view) continue;
    if (!filter.doc.empty() && r.doc != filter.doc) continue;
    out.push_back(r);
  }
  return out;
}

size_t AuditLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

std::string AuditLog::RenderJson(const AuditRecord& r) {
  std::string out = "{\"seq\": " + std::to_string(r.seq) +
                    ", \"unix_micros\": " + std::to_string(r.unix_micros) +
                    ", \"kind\": \"" + AuditKindName(r.kind) +
                    "\", \"view\": \"";
  AppendJsonEscaped(r.view, &out);
  out += "\", \"doc\": \"";
  AppendJsonEscaped(r.doc, &out);
  out += "\", \"doc_epoch\": " + std::to_string(r.doc_epoch) +
         ", \"statement\": \"";
  AppendJsonEscaped(r.statement, &out);
  out += std::string("\", \"allowed\": ") + (r.allowed ? "true" : "false") +
         ", \"explain\": \"";
  AppendJsonEscaped(r.explain, &out);
  out += "\", \"trace_id\": " + std::to_string(r.trace_id) + "}";
  return out;
}

}  // namespace smoqe::telemetry
