/// \file
/// \brief The engine-facing telemetry bundle: one object owning the
/// metrics registry, the trace recorder, and the audit log, created by
/// `Smoqe` when `EngineOptions.telemetry` is on (docs/DESIGN.md §8).
///
/// Instrumented code holds a `Telemetry*` that is null when telemetry is
/// off; every helper here (and SpanScope in trace.h) is null-safe, so
/// call sites stay branch-free. The registry/recorder/log are engine-
/// scoped, not process-global, which keeps tests isolated and lets one
/// process run several engines.

#ifndef SMOQE_TELEMETRY_TELEMETRY_H_
#define SMOQE_TELEMETRY_TELEMETRY_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/telemetry/audit.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/profile.h"
#include "src/telemetry/trace.h"

namespace smoqe::telemetry {

/// Knobs of a Telemetry bundle (EngineOptions.telemetry).
struct TelemetryOptions {
  bool enabled = true;
  size_t trace_capacity = 256;   ///< finished traces retained
  size_t audit_capacity = 4096;  ///< audit records retained
  size_t slow_log_capacity = 128;  ///< slow-query profiles retained
                                   ///< (0 disables the slow ring)
  /// Record a trace for every Nth facade call (1 = all). Metrics and
  /// audit records are never sampled — only span recording is.
  uint64_t trace_sample_every = 1;
};

/// \brief One engine's telemetry state. Thread-safe throughout.
class Telemetry {
 public:
  explicit Telemetry(const TelemetryOptions& options = {})
      : options_(options),
        traces_(options.trace_capacity),
        audit_(options.audit_capacity),
        slow_(options.slow_log_capacity) {}

  MetricsRegistry& registry() { return registry_; }
  const MetricsRegistry& registry() const { return registry_; }
  TraceRecorder& traces() { return traces_; }
  const TraceRecorder& traces() const { return traces_; }
  AuditLog& audit() { return audit_; }
  const AuditLog& audit() const { return audit_; }
  SlowQueryLog& slow() { return slow_; }
  const SlowQueryLog& slow() const { return slow_; }
  const TelemetryOptions& options() const { return options_; }

  /// Starts a trace for a facade call, honoring the sampling knob; null
  /// when this call is not sampled. Finish with `traces().Finish`.
  std::shared_ptr<Trace> MaybeBeginTrace(std::string name) {
    const uint64_t every = options_.trace_sample_every;
    if (every > 1 &&
        calls_.fetch_add(1, std::memory_order_relaxed) % every != 0) {
      return nullptr;
    }
    return traces_.Begin(std::move(name));
  }

 private:
  const TelemetryOptions options_;
  MetricsRegistry registry_;
  TraceRecorder traces_;
  AuditLog audit_;
  SlowQueryLog slow_;
  std::atomic<uint64_t> calls_{0};
};

}  // namespace smoqe::telemetry

#endif  // SMOQE_TELEMETRY_TELEMETRY_H_
