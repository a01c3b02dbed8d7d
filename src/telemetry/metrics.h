/// \file
/// \brief Process-cheap metrics primitives and the named registry behind
/// `Smoqe::DumpMetrics` (docs/DESIGN.md §8).
///
/// Three metric kinds, all safe to touch from any thread with no locks on
/// the write path:
///
///  * Counter — monotonic, per-thread-sharded relaxed atomics folded on
///    read, so hot-path increments never share a cache line across
///    threads;
///  * Gauge — a single relaxed atomic int64 (set/add); gauges are
///    low-frequency service state (queue depth, cache size), not hot-path
///    events;
///  * Histogram — log-bucketed (16 sub-buckets per power of two, ≤ 6.25%
///    relative error, values below 16 exact) with per-shard bucket
///    arrays; quantiles (p50/p95/p99…) are extracted exactly over the
///    folded buckets.
///
/// The MetricsRegistry maps stable dotted names ("query.latency_ns") to
/// heap-held metric objects; pointers returned by Get* never move or die
/// for the registry's lifetime, so call sites resolve a metric once and
/// increment through the pointer forever. Render() emits the whole
/// registry as JSON or Prometheus text exposition.

#ifndef SMOQE_TELEMETRY_METRICS_H_
#define SMOQE_TELEMETRY_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace smoqe::telemetry {

/// Stable small index for the calling thread, used to pick a metric
/// shard. Assigned on first use per thread, process-wide.
size_t ThreadShardIndex();

/// \brief Monotonic counter. Add() is one relaxed fetch_add on the
/// caller's shard; Value() folds the shards (monitoring-read cost).
class Counter {
 public:
  static constexpr size_t kShards = 8;

  void Add(uint64_t n = 1) {
    shards_[ThreadShardIndex() & (kShards - 1)].v.fetch_add(
        n, std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t sum = 0;
    for (const Shard& s : shards_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> v{0};
  };
  Shard shards_[kShards];
};

/// \brief Point-in-time value (queue depth, cache size, live snapshots).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// \brief Log-bucketed latency/size histogram with exact quantile
/// extraction over the folded buckets.
///
/// Bucket layout: values < 16 land in their own exact bucket; above that,
/// each power of two splits into 16 geometric sub-buckets, so a recorded
/// value's bucket bounds are within kMaxRelativeError of the value. Full
/// 64-bit range, 976 buckets per shard.
class Histogram {
 public:
  static constexpr int kSubBits = 4;                   // 16 sub-buckets
  static constexpr size_t kBuckets = (64 - kSubBits) * (1u << kSubBits) +
                                     (1u << kSubBits);  // 976
  /// Half the relative width of one sub-bucket — the worst-case error of
  /// a Quantile() estimate vs the exact value (values < 16 are exact).
  static constexpr double kMaxRelativeError = 1.0 / (1u << kSubBits);
  static constexpr size_t kShards = 4;

  void Record(uint64_t value);

  /// q in [0, 1]; returns the midpoint of the bucket holding the value of
  /// rank ceil(q·count) (0 when empty). Folds the shards — a concurrent
  /// Record may or may not be included, which is all monitoring needs.
  double Quantile(double q) const;

  uint64_t Count() const;
  uint64_t Sum() const;
  uint64_t Min() const;  ///< 0 when empty
  uint64_t Max() const;

  struct Snapshot {
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t min = 0;
    uint64_t max = 0;
    double p50 = 0;
    double p95 = 0;
    double p99 = 0;
  };
  /// One consistent fold of the shards (count/sum/quantiles agree).
  Snapshot TakeSnapshot() const;

  /// Bucket index of `value` (exposed for the oracle test).
  static size_t BucketIndex(uint64_t value);
  /// Inclusive lower bound of bucket `index`.
  static uint64_t BucketLowerBound(size_t index);

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> buckets[kBuckets] = {};
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> min{UINT64_MAX};
    std::atomic<uint64_t> max{0};
  };

  /// Folds every shard's buckets into `out[kBuckets]`; returns the count.
  uint64_t Fold(uint64_t* out) const;

  Shard shards_[kShards];
};

/// Output format of MetricsRegistry::Render and Smoqe::DumpMetrics.
enum class DumpFormat {
  kJson,        ///< one object: {"counters": …, "gauges": …, "histograms": …}
  kPrometheus,  ///< text exposition: # TYPE lines + samples, smoqe_ prefix
};

/// \brief Named metric registry. Get* creates on first use and returns a
/// stable reference; names are dotted lowercase ("plan_cache.hits").
/// Creation takes a mutex; the returned metric's write path never does.
class MetricsRegistry {
 public:
  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  /// Renders every registered metric. Histograms emit count/sum/min/max
  /// and p50/p95/p99 (Prometheus: a summary with quantile labels).
  std::string Render(DumpFormat format) const;

 private:
  mutable std::mutex mu_;  // guards the maps, never the metrics
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Prometheus-legal metric name: "smoqe_" + name with every character
/// outside [a-zA-Z0-9_] replaced by '_'.
std::string PrometheusName(const std::string& name);

}  // namespace smoqe::telemetry

#endif  // SMOQE_TELEMETRY_METRICS_H_
