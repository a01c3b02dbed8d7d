#include "src/telemetry/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "src/common/strings.h"

namespace smoqe::telemetry {

size_t ThreadShardIndex() {
  static std::atomic<size_t> next{0};
  thread_local const size_t idx =
      next.fetch_add(1, std::memory_order_relaxed);
  return idx;
}

namespace {

/// Position of the most significant set bit (v != 0).
inline int MsbIndex(uint64_t v) {
  return 63 - __builtin_clzll(v);
}

/// Relaxed atomic min/max updates; contention is rare after warmup
/// because the stored extreme only tightens.
inline void AtomicMin(std::atomic<uint64_t>& a, uint64_t v) {
  uint64_t cur = a.load(std::memory_order_relaxed);
  while (v < cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

inline void AtomicMax(std::atomic<uint64_t>& a, uint64_t v) {
  uint64_t cur = a.load(std::memory_order_relaxed);
  while (v > cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

size_t Histogram::BucketIndex(uint64_t value) {
  constexpr uint64_t kSub = 1ull << kSubBits;
  if (value < kSub) return static_cast<size_t>(value);
  const int e = MsbIndex(value);  // >= kSubBits
  const uint64_t sub = (value >> (e - kSubBits)) & (kSub - 1);
  return static_cast<size_t>(e - kSubBits + 1) * kSub +
         static_cast<size_t>(sub);
}

uint64_t Histogram::BucketLowerBound(size_t index) {
  constexpr uint64_t kSub = 1ull << kSubBits;
  if (index < kSub) return index;
  const uint64_t e = index / kSub + kSubBits - 1;
  const uint64_t sub = index % kSub;
  return (kSub + sub) << (e - kSubBits);
}

void Histogram::Record(uint64_t value) {
  Shard& s = shards_[ThreadShardIndex() & (kShards - 1)];
  s.buckets[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  s.sum.fetch_add(value, std::memory_order_relaxed);
  AtomicMin(s.min, value);
  AtomicMax(s.max, value);
}

uint64_t Histogram::Fold(uint64_t* out) const {
  uint64_t count = 0;
  for (size_t b = 0; b < kBuckets; ++b) out[b] = 0;
  for (const Shard& s : shards_) {
    for (size_t b = 0; b < kBuckets; ++b) {
      const uint64_t c = s.buckets[b].load(std::memory_order_relaxed);
      out[b] += c;
      count += c;
    }
  }
  return count;
}

double Histogram::Quantile(double q) const {
  std::vector<uint64_t> buckets(kBuckets);
  const uint64_t count = Fold(buckets.data());
  if (count == 0) return 0;
  q = std::min(1.0, std::max(0.0, q));
  uint64_t target = static_cast<uint64_t>(std::ceil(q * count));
  if (target == 0) target = 1;
  uint64_t seen = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    seen += buckets[b];
    if (seen >= target) {
      const uint64_t lo = BucketLowerBound(b);
      const uint64_t hi =
          b + 1 < kBuckets ? BucketLowerBound(b + 1) : lo + 1;
      // Midpoint of the bucket; exact for the sub-16 unit buckets.
      return static_cast<double>(lo) + (static_cast<double>(hi - lo) - 1) / 2;
    }
  }
  return static_cast<double>(BucketLowerBound(kBuckets - 1));
}

uint64_t Histogram::Count() const {
  uint64_t count = 0;
  for (const Shard& s : shards_) {
    for (size_t b = 0; b < kBuckets; ++b) {
      count += s.buckets[b].load(std::memory_order_relaxed);
    }
  }
  return count;
}

uint64_t Histogram::Sum() const {
  uint64_t sum = 0;
  for (const Shard& s : shards_) {
    sum += s.sum.load(std::memory_order_relaxed);
  }
  return sum;
}

uint64_t Histogram::Min() const {
  uint64_t min = UINT64_MAX;
  for (const Shard& s : shards_) {
    min = std::min(min, s.min.load(std::memory_order_relaxed));
  }
  return min == UINT64_MAX ? 0 : min;
}

uint64_t Histogram::Max() const {
  uint64_t max = 0;
  for (const Shard& s : shards_) {
    max = std::max(max, s.max.load(std::memory_order_relaxed));
  }
  return max;
}

Histogram::Snapshot Histogram::TakeSnapshot() const {
  std::vector<uint64_t> buckets(kBuckets);
  Snapshot snap;
  snap.count = Fold(buckets.data());
  snap.sum = Sum();
  snap.min = Min();
  snap.max = Max();
  if (snap.count == 0) return snap;
  auto quantile = [&](double q) {
    uint64_t target = static_cast<uint64_t>(std::ceil(q * snap.count));
    if (target == 0) target = 1;
    uint64_t seen = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
      seen += buckets[b];
      if (seen >= target) {
        const uint64_t lo = BucketLowerBound(b);
        const uint64_t hi =
            b + 1 < kBuckets ? BucketLowerBound(b + 1) : lo + 1;
        return static_cast<double>(lo) +
               (static_cast<double>(hi - lo) - 1) / 2;
      }
    }
    return static_cast<double>(BucketLowerBound(kBuckets - 1));
  };
  snap.p50 = quantile(0.50);
  snap.p95 = quantile(0.95);
  snap.p99 = quantile(0.99);
  return snap;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return *slot;
}

std::string PrometheusName(const std::string& name) {
  std::string out = "smoqe_";
  out.reserve(out.size() + name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

namespace {

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.1f", v);
  return buf;
}

}  // namespace

std::string MetricsRegistry::Render(DumpFormat format) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  if (format == DumpFormat::kJson) {
    out += "{\n  \"counters\": {";
    bool first = true;
    for (const auto& [name, c] : counters_) {
      out += first ? "\n" : ",\n";
      first = false;
      out += "    \"";
      AppendJsonEscaped(name, &out);
      out += "\": " + std::to_string(c->Value());
    }
    out += first ? "},\n" : "\n  },\n";
    out += "  \"gauges\": {";
    first = true;
    for (const auto& [name, g] : gauges_) {
      out += first ? "\n" : ",\n";
      first = false;
      out += "    \"";
      AppendJsonEscaped(name, &out);
      out += "\": " + std::to_string(g->Value());
    }
    out += first ? "},\n" : "\n  },\n";
    out += "  \"histograms\": {";
    first = true;
    for (const auto& [name, h] : histograms_) {
      const Histogram::Snapshot s = h->TakeSnapshot();
      out += first ? "\n" : ",\n";
      first = false;
      out += "    \"";
      AppendJsonEscaped(name, &out);
      out += "\": {\"count\": " + std::to_string(s.count) +
             ", \"sum\": " + std::to_string(s.sum) +
             ", \"min\": " + std::to_string(s.min) +
             ", \"max\": " + std::to_string(s.max) +
             ", \"p50\": " + FormatDouble(s.p50) +
             ", \"p95\": " + FormatDouble(s.p95) +
             ", \"p99\": " + FormatDouble(s.p99) + "}";
    }
    out += first ? "}\n}\n" : "\n  }\n}\n";
    return out;
  }
  // Prometheus text exposition, one # TYPE line per metric family.
  for (const auto& [name, c] : counters_) {
    const std::string pn = PrometheusName(name);
    out += "# TYPE " + pn + " counter\n";
    out += pn + " " + std::to_string(c->Value()) + "\n";
  }
  for (const auto& [name, g] : gauges_) {
    const std::string pn = PrometheusName(name);
    out += "# TYPE " + pn + " gauge\n";
    out += pn + " " + std::to_string(g->Value()) + "\n";
  }
  for (const auto& [name, h] : histograms_) {
    const Histogram::Snapshot s = h->TakeSnapshot();
    const std::string pn = PrometheusName(name);
    out += "# TYPE " + pn + " summary\n";
    out += pn + "{quantile=\"0.5\"} " + FormatDouble(s.p50) + "\n";
    out += pn + "{quantile=\"0.95\"} " + FormatDouble(s.p95) + "\n";
    out += pn + "{quantile=\"0.99\"} " + FormatDouble(s.p99) + "\n";
    out += pn + "_sum " + std::to_string(s.sum) + "\n";
    out += pn + "_count " + std::to_string(s.count) + "\n";
  }
  return out;
}

}  // namespace smoqe::telemetry
