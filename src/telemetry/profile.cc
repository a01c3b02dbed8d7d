#include "src/telemetry/profile.h"

#include <chrono>
#include <cstdio>

#include "src/common/strings.h"

namespace smoqe::telemetry {

namespace {

int64_t NowUnixMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

std::string HumanNs(uint64_t ns) {
  char buf[32];
  if (ns >= 1000000) {
    std::snprintf(buf, sizeof buf, "%.3f ms", static_cast<double>(ns) / 1e6);
  } else if (ns >= 1000) {
    std::snprintf(buf, sizeof buf, "%.1f us", static_cast<double>(ns) / 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%llu ns",
                  static_cast<unsigned long long>(ns));
  }
  return buf;
}

void AppendU64(std::string& out, const char* key, uint64_t v, bool comma) {
  out += "\"";
  out += key;
  out += "\": " + std::to_string(v);
  if (comma) out += ", ";
}

/// `"key": "<escaped v>", ` — a string field followed by a comma.
void AppendString(std::string& out, const char* key, const std::string& v) {
  out += "\"";
  out += key;
  out += "\": \"";
  AppendJsonEscaped(v, &out);
  out += "\", ";
}

}  // namespace

std::string ProfileRenderer::Text(const Profile& profile) {
  std::string out = "profile #" + std::to_string(profile.trace_id) + " " +
                    profile.op + "  total " + HumanNs(profile.total_ns) + "\n";
  out += "  doc = " + profile.doc + " @epoch " +
         std::to_string(profile.doc_epoch) + "\n";
  out += "  view = " + (profile.view.empty() ? "(direct)" : profile.view) +
         "\n";
  if (!profile.statement.empty()) {
    out += "  statement = " + profile.statement + "\n";
  }
  if (!profile.canonical_query.empty()) {
    out += "  canonical = " + profile.canonical_query + "\n";
  }
  out += std::string("  plan_cache = ") +
         (profile.plan_cache_hit ? "hit" : "miss") + "\n";
  out += "  guard_ticks = " + std::to_string(profile.guard_ticks) + "\n";
  // Same depth rule as TraceRecorder::RenderText: stages are
  // append-ordered, so a parent always precedes its children.
  std::vector<int> depth(profile.stages.size(), 0);
  for (size_t i = 0; i < profile.stages.size(); ++i) {
    if (profile.stages[i].parent >= 0 &&
        static_cast<size_t>(profile.stages[i].parent) < i) {
      depth[i] = depth[static_cast<size_t>(profile.stages[i].parent)] + 1;
    }
  }
  for (size_t i = 0; i < profile.stages.size(); ++i) {
    out += "  ";
    out.append(static_cast<size_t>(depth[i]) * 2, ' ');
    out += profile.stages[i].name + "  " + HumanNs(profile.stages[i].ns) +
           "\n";
  }
  out += "  stats: nodes_visited=" + std::to_string(profile.stats.nodes_visited) +
         " answers=" + std::to_string(profile.stats.answers) +
         " cans=" + std::to_string(profile.stats.cans_entries) +
         " max_active_pairs=" + std::to_string(profile.stats.max_active_pairs) +
         " dom_parts=" + std::to_string(profile.stats.dom_parts) + "\n";
  return out;
}

std::string ProfileRenderer::Json(const Profile& profile) {
  std::string out = "{";
  AppendU64(out, "trace_id", profile.trace_id, true);
  AppendString(out, "op", profile.op);
  AppendString(out, "doc", profile.doc);
  AppendString(out, "view", profile.view);
  AppendString(out, "statement", profile.statement);
  AppendString(out, "canonical_query", profile.canonical_query);
  out += std::string("\"plan_cache_hit\": ") +
         (profile.plan_cache_hit ? "true" : "false") + ", ";
  AppendU64(out, "doc_epoch", profile.doc_epoch, true);
  AppendU64(out, "total_ns", profile.total_ns, true);
  AppendU64(out, "guard_ticks", profile.guard_ticks, true);
  out += "\"stages\": [";
  bool first = true;
  for (const ProfileStage& s : profile.stages) {
    if (!first) out += ", ";
    first = false;
    out += '{';
    AppendString(out, "name", s.name);
    out += "\"parent\": " + std::to_string(s.parent) + ", ";
    AppendU64(out, "ns", s.ns, false);
    out += "}";
  }
  out += "], \"stats\": {";
  const EvalStats& st = profile.stats;
  AppendU64(out, "nodes_visited", st.nodes_visited, true);
  AppendU64(out, "answers", st.answers, true);
  AppendU64(out, "cans_entries", st.cans_entries, true);
  AppendU64(out, "pred_instances", st.pred_instances, true);
  AppendU64(out, "max_active_pairs", st.max_active_pairs, true);
  AppendU64(out, "buffered_bytes", st.buffered_bytes, true);
  AppendU64(out, "plan_cache_hits", st.plan_cache_hits, true);
  AppendU64(out, "plan_cache_misses", st.plan_cache_misses, true);
  AppendU64(out, "batch_plans", st.batch_plans, true);
  AppendU64(out, "dom_parts", st.dom_parts, false);
  out += "}}";
  return out;
}

SlowQueryLog::SlowQueryLog(size_t capacity) : capacity_(capacity) {}

uint64_t SlowQueryLog::Append(Profile profile, std::string role,
                              uint64_t threshold_ns) {
  if (capacity_ == 0) return 0;
  SlowQueryEntry entry;
  entry.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  entry.unix_micros = NowUnixMicros();
  entry.role = std::move(role);
  entry.threshold_ns = threshold_ns;
  entry.profile = std::move(profile);
  std::lock_guard<std::mutex> lock(mu_);
  entries_.push_back(std::move(entry));
  while (entries_.size() > capacity_) {
    entries_.pop_front();
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
  return entries_.back().seq;
}

std::vector<SlowQueryEntry> SlowQueryLog::Entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<SlowQueryEntry>(entries_.begin(), entries_.end());
}

size_t SlowQueryLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::string SlowQueryLog::RenderJson() const {
  const std::vector<SlowQueryEntry> entries = Entries();
  std::string out = "[";
  bool first = true;
  for (const SlowQueryEntry& e : entries) {
    if (!first) out += ",\n ";
    first = false;
    out += "{";
    AppendU64(out, "seq", e.seq, true);
    out += "\"unix_micros\": " + std::to_string(e.unix_micros) + ", ";
    AppendString(out, "role", e.role);
    AppendU64(out, "threshold_ns", e.threshold_ns, true);
    out += "\"profile\": " + ProfileRenderer::Json(e.profile);
    out += "}";
  }
  out += "]\n";
  return out;
}

}  // namespace smoqe::telemetry
