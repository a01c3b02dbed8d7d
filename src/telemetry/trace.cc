#include "src/telemetry/trace.h"

#include <algorithm>
#include <cstdio>

#include "src/common/strings.h"

namespace smoqe::telemetry {

namespace {

int64_t NowUnixMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

/// "1.234 ms" / "56.7 us" / "890 ns" — keeps the text renderer readable
/// across six orders of magnitude.
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

}  // namespace

Trace::Trace(uint64_t id, std::string name)
    : id_(id),
      name_(std::move(name)),
      t0_(std::chrono::steady_clock::now()),
      start_unix_micros_(NowUnixMicros()) {}

uint64_t Trace::ElapsedNs() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0_)
          .count());
}

int32_t Trace::BeginSpan(std::string name, int32_t parent) {
  const uint64_t now = ElapsedNs();
  std::lock_guard<std::mutex> lock(mu_);
  SpanRecord rec;
  rec.name = std::move(name);
  rec.parent = parent;
  rec.start_ns = now;
  spans_.push_back(std::move(rec));
  return static_cast<int32_t>(spans_.size()) - 1;
}

void Trace::EndSpan(int32_t index) {
  const uint64_t now = ElapsedNs();
  std::lock_guard<std::mutex> lock(mu_);
  if (index < 0 || static_cast<size_t>(index) >= spans_.size()) return;
  spans_[static_cast<size_t>(index)].end_ns = now;
}

int32_t Trace::AddCompletedSpan(std::string name, uint64_t duration_ns,
                                int32_t parent) {
  const uint64_t now = ElapsedNs();
  std::lock_guard<std::mutex> lock(mu_);
  SpanRecord rec;
  rec.name = std::move(name);
  rec.parent = parent;
  rec.start_ns = now >= duration_ns ? now - duration_ns : 0;
  rec.end_ns = rec.start_ns + duration_ns;
  spans_.push_back(std::move(rec));
  return static_cast<int32_t>(spans_.size()) - 1;
}

void Trace::SetAttr(const std::string& key, std::string value) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [k, v] : attrs_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  attrs_.emplace_back(key, std::move(value));
}

std::vector<SpanRecord> Trace::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<std::pair<std::string, std::string>> Trace::attrs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return attrs_;
}

TraceRecorder::TraceRecorder(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

std::shared_ptr<Trace> TraceRecorder::Begin(std::string name) {
  const uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  return std::make_shared<Trace>(id, std::move(name));
}

std::shared_ptr<Trace> TraceRecorder::Begin(std::string name, uint64_t id) {
  if (id == 0) return Begin(std::move(name));
  return std::make_shared<Trace>(id, std::move(name));
}

void TraceRecorder::Finish(const std::shared_ptr<Trace>& trace) {
  if (trace == nullptr) return;
  trace->duration_ns_ = trace->ElapsedNs();
  finished_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  ring_.push_back(trace);
  while (ring_.size() > capacity_) ring_.pop_front();
}

std::vector<std::shared_ptr<const Trace>> TraceRecorder::Recent(
    size_t n) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::shared_ptr<const Trace>> out;
  const size_t take = std::min(n, ring_.size());
  out.reserve(take);
  for (size_t i = 0; i < take; ++i) {
    out.push_back(ring_[ring_.size() - 1 - i]);
  }
  return out;
}

std::shared_ptr<const Trace> TraceRecorder::Find(uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  // Newest first: caller-chosen wire ids may repeat a minted id, and
  // the caller wants the trace it just finished.
  for (auto it = ring_.rbegin(); it != ring_.rend(); ++it) {
    if ((*it)->id() == id) return *it;
  }
  return nullptr;
}

std::shared_ptr<const Trace> TraceRecorder::Slowest() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::shared_ptr<const Trace> best;
  for (const auto& t : ring_) {
    if (best == nullptr || t->duration_ns() > best->duration_ns()) best = t;
  }
  return best;
}

std::string TraceRecorder::RenderText(const Trace& trace) {
  const std::vector<SpanRecord> spans = trace.spans();
  std::string out = "trace #" + std::to_string(trace.id()) + " " +
                    trace.name() + "  total " + HumanNs(trace.duration_ns()) +
                    "\n";
  for (const auto& [k, v] : trace.attrs()) {
    out += "  @" + k + " = " + v + "\n";
  }
  // Depth of each span = 1 + depth of its parent; spans_ is append-ordered
  // so a parent always precedes its children.
  std::vector<int> depth(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0 &&
        static_cast<size_t>(spans[i].parent) < i) {
      depth[i] = depth[static_cast<size_t>(spans[i].parent)] + 1;
    }
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    const uint64_t dur = s.end_ns >= s.start_ns ? s.end_ns - s.start_ns : 0;
    out += "  ";
    out.append(static_cast<size_t>(depth[i]) * 2, ' ');
    out += s.name + "  " + HumanNs(dur);
    if (s.end_ns == 0) out += "  (open)";
    out += "\n";
  }
  return out;
}

std::string TraceRecorder::RenderJson(const Trace& trace) {
  std::string out =
      "{\"id\": " + std::to_string(trace.id()) + ", \"name\": \"";
  AppendJsonEscaped(trace.name(), &out);
  out += "\", \"start_unix_micros\": " +
         std::to_string(trace.start_unix_micros()) +
         ", \"duration_ns\": " + std::to_string(trace.duration_ns()) +
         ", \"attrs\": {";
  bool first = true;
  for (const auto& [k, v] : trace.attrs()) {
    if (!first) out += ", ";
    first = false;
    out += '"';
    AppendJsonEscaped(k, &out);
    out += "\": \"";
    AppendJsonEscaped(v, &out);
    out += '"';
  }
  out += "}, \"spans\": [";
  first = true;
  for (const SpanRecord& s : trace.spans()) {
    if (!first) out += ", ";
    first = false;
    out += "{\"name\": \"";
    AppendJsonEscaped(s.name, &out);
    out += "\", \"parent\": " + std::to_string(s.parent) +
           ", \"start_ns\": " + std::to_string(s.start_ns) +
           ", \"end_ns\": " + std::to_string(s.end_ns) + "}";
  }
  out += "]}";
  return out;
}

}  // namespace smoqe::telemetry
