// Unit tests of the telemetry primitives (docs/DESIGN.md §8): histogram
// quantiles against a sorted-vector oracle under randomized inserts,
// counter sharding under threads, registry rendering, trace span nesting
// (including concurrent appenders), and the bounded audit log.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "src/telemetry/audit.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/telemetry.h"
#include "src/telemetry/trace.h"

namespace smoqe::telemetry {
namespace {

// ---------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------

// The estimate is the midpoint of the bucket holding the exact rank-q
// value, so estimate and oracle must land in the same bucket — a check
// that is exact, independent of the error bound's slack.
void CheckQuantiles(const Histogram& h, std::vector<uint64_t> values) {
  std::sort(values.begin(), values.end());
  for (double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0}) {
    size_t rank = static_cast<size_t>(std::ceil(q * values.size()));
    if (rank > 0) --rank;  // rank is 1-based; clamp q=0 to the minimum
    const uint64_t exact = values[rank];
    const double est = h.Quantile(q);
    EXPECT_EQ(Histogram::BucketIndex(static_cast<uint64_t>(est)),
              Histogram::BucketIndex(exact))
        << "q=" << q << " exact=" << exact << " est=" << est;
    // And the advertised relative error bound holds (half a sub-bucket
    // each side; +1 covers integer-midpoint rounding of tiny buckets).
    EXPECT_LE(std::abs(est - static_cast<double>(exact)),
              static_cast<double>(exact) * Histogram::kMaxRelativeError + 1.0)
        << "q=" << q << " exact=" << exact << " est=" << est;
  }
}

TEST(Histogram, SmallValuesAreExact) {
  Histogram h;
  std::vector<uint64_t> values;
  for (uint64_t v = 0; v < 16; ++v) {
    for (int k = 0; k <= static_cast<int>(v); ++k) {
      h.Record(v);
      values.push_back(v);
    }
  }
  EXPECT_EQ(h.Count(), values.size());
  EXPECT_EQ(h.Min(), 0u);
  EXPECT_EQ(h.Max(), 15u);
  for (double q : {0.1, 0.5, 0.9}) {
    std::vector<uint64_t> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    size_t rank = static_cast<size_t>(std::ceil(q * sorted.size()));
    if (rank > 0) --rank;
    EXPECT_DOUBLE_EQ(h.Quantile(q), static_cast<double>(sorted[rank]))
        << "q=" << q;
  }
}

TEST(Histogram, QuantileMatchesSortedVectorOracle) {
  std::mt19937_64 rng(20060608);
  // Three very different shapes: uniform, log-uniform (latency-like),
  // and heavy-tailed with a spike.
  for (int shape = 0; shape < 3; ++shape) {
    Histogram h;
    std::vector<uint64_t> values;
    for (int i = 0; i < 20000; ++i) {
      uint64_t v = 0;
      switch (shape) {
        case 0:
          v = rng() % 100000;
          break;
        case 1:
          v = static_cast<uint64_t>(
              std::exp(std::uniform_real_distribution<>(0.0, 20.0)(rng)));
          break;
        default:
          v = (i % 100 == 0) ? 1000000000ull + rng() % 1000 : rng() % 500;
          break;
      }
      h.Record(v);
      values.push_back(v);
    }
    EXPECT_EQ(h.Count(), values.size());
    uint64_t sum = 0, mn = UINT64_MAX, mx = 0;
    for (uint64_t v : values) {
      sum += v;
      mn = std::min(mn, v);
      mx = std::max(mx, v);
    }
    EXPECT_EQ(h.Sum(), sum);
    EXPECT_EQ(h.Min(), mn);
    EXPECT_EQ(h.Max(), mx);
    CheckQuantiles(h, values);
  }
}

TEST(Histogram, BucketBoundsAreConsistent) {
  // Every bucket's lower bound maps back to that bucket, and indices are
  // monotone in the value.
  for (size_t i = 0; i < Histogram::kBuckets; ++i) {
    const uint64_t lo = Histogram::BucketLowerBound(i);
    EXPECT_EQ(Histogram::BucketIndex(lo), i) << "bucket " << i;
  }
  size_t prev = 0;
  for (uint64_t v = 0; v < 4096; ++v) {
    const size_t idx = Histogram::BucketIndex(v);
    EXPECT_GE(idx, prev);
    prev = idx;
  }
  EXPECT_EQ(Histogram::BucketIndex(UINT64_MAX), Histogram::kBuckets - 1);
}

TEST(Histogram, SnapshotIsConsistent) {
  Histogram h;
  for (uint64_t v = 1; v <= 1000; ++v) h.Record(v * 37);
  const Histogram::Snapshot s = h.TakeSnapshot();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.min, 37u);
  EXPECT_EQ(s.max, 37000u);
  EXPECT_LE(s.p50, s.p95);
  EXPECT_LE(s.p95, s.p99);
}

TEST(Histogram, ConcurrentRecordLosesNothing) {
  Histogram h;
  constexpr int kThreads = 8, kPer = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPer; ++i) {
        h.Record(static_cast<uint64_t>(t) * 1000 + 100);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(h.Count(), static_cast<uint64_t>(kThreads) * kPer);
  EXPECT_EQ(h.Min(), 100u);
  EXPECT_EQ(h.Max(), 7100u);
}

// ---------------------------------------------------------------------
// Counter / Gauge / registry
// ---------------------------------------------------------------------

TEST(Counter, ShardedSumAcrossThreads) {
  Counter c;
  constexpr int kThreads = 8, kPer = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPer; ++i) c.Add();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.Value(), static_cast<uint64_t>(kThreads) * kPer);
}

TEST(Gauge, SetAndAdd) {
  Gauge g;
  g.Set(42);
  g.Add(-50);
  EXPECT_EQ(g.Value(), -8);
}

TEST(MetricsRegistry, StableReferencesAndIdempotentGet) {
  MetricsRegistry reg;
  Counter& a = reg.GetCounter("x.count");
  a.Add(3);
  Counter& b = reg.GetCounter("x.count");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.Value(), 3u);
}

TEST(MetricsRegistry, RenderJsonShape) {
  MetricsRegistry reg;
  reg.GetCounter("query.count").Add(7);
  reg.GetGauge("pool.queue_depth").Set(-2);
  reg.GetHistogram("query.latency_ns").Record(1234);
  const std::string json = reg.Render(DumpFormat::kJson);
  EXPECT_NE(json.find("\"query.count\": 7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"pool.queue_depth\": -2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"query.latency_ns\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"p99\""), std::string::npos) << json;
  // Braces balance (cheap well-formedness check without a JSON parser).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

/// Decodes the JSON string literal whose opening quote is at `*pos` and
/// moves `*pos` past its closing quote.
std::string ReadJsonString(const std::string& json, size_t* pos) {
  std::string out;
  size_t i = *pos + 1;
  while (json[i] != '"') {
    const char c = json[i++];
    if (c != '\\') {
      out += c;
      continue;
    }
    const char e = json[i++];
    switch (e) {
      case 'n':
        out += '\n';
        break;
      case 't':
        out += '\t';
        break;
      case 'r':
        out += '\r';
        break;
      case 'u':
        out += static_cast<char>(std::stoi(json.substr(i, 4), nullptr, 16));
        i += 4;
        break;
      default:  // \" and \\ stand for themselves
        out += e;
    }
  }
  *pos = i + 1;
  return out;
}

TEST(MetricsRegistry, ControlCharacterNamesRenderDistinctKeys) {
  // Document names reach metric names (doc.epoch.<name>). A control
  // character is escaped, not dropped, so two documents never share a key.
  MetricsRegistry reg;
  reg.GetCounter("doc.epoch.a").Add(1);
  reg.GetCounter(std::string("doc.epoch.a\x01", 12)).Add(2);
  const std::string json = reg.Render(DumpFormat::kJson);
  EXPECT_NE(json.find("\"doc.epoch.a\\u0001\": 2"), std::string::npos)
      << json;
  EXPECT_EQ(std::count_if(json.begin(), json.end(),
                          [](char c) {
                            return c != '\n' &&
                                   static_cast<unsigned char>(c) < 0x20;
                          }),
            0);
  // Every counter key decodes back to the name it was registered under.
  const size_t begin = json.find("\"counters\": {");
  const size_t end = json.find('}', begin);
  ASSERT_NE(begin, std::string::npos);
  std::map<std::string, std::string> counters;
  for (size_t pos = json.find('"', begin + 13); pos < end;
       pos = json.find('"', pos)) {
    const std::string key = ReadJsonString(json, &pos);
    ASSERT_EQ(json.compare(pos, 2, ": "), 0) << json;
    const size_t value_end = json.find_first_of(",\n", pos);
    counters[key] = json.substr(pos + 2, value_end - pos - 2);
  }
  const std::map<std::string, std::string> want = {
      {"doc.epoch.a", "1"}, {std::string("doc.epoch.a\x01", 12), "2"}};
  EXPECT_EQ(counters, want);
}

TEST(MetricsRegistry, RenderPrometheusShape) {
  MetricsRegistry reg;
  reg.GetCounter("plan_cache.hits").Add(5);
  reg.GetHistogram("query.latency_ns").Record(100);
  const std::string prom = reg.Render(DumpFormat::kPrometheus);
  EXPECT_NE(prom.find("# TYPE smoqe_plan_cache_hits counter"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("smoqe_plan_cache_hits 5"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE smoqe_query_latency_ns summary"),
            std::string::npos);
  EXPECT_NE(prom.find("quantile=\"0.99\""), std::string::npos);
  EXPECT_NE(prom.find("smoqe_query_latency_ns_count 1"), std::string::npos);
}

TEST(MetricsRegistry, PrometheusNameSanitization) {
  EXPECT_EQ(PrometheusName("query.latency_ns"), "smoqe_query_latency_ns");
  EXPECT_EQ(PrometheusName("doc.epoch.my-doc"), "smoqe_doc_epoch_my_doc");
}

// ---------------------------------------------------------------------
// Trace
// ---------------------------------------------------------------------

TEST(Trace, SpanNestingParentsPrecedeChildren) {
  TraceRecorder rec(8);
  std::shared_ptr<Trace> trace = rec.Begin("query");
  {
    SpanScope outer(trace.get(), "evaluate");
    ASSERT_EQ(outer.index(), 0);
    SpanScope inner(trace.get(), "item", outer.index());
    EXPECT_EQ(inner.index(), 1);
  }
  rec.Finish(trace);
  const std::vector<SpanRecord> spans = trace->spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "evaluate");
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].name, "item");
  EXPECT_EQ(spans[1].parent, 0);
  for (const SpanRecord& s : spans) {
    EXPECT_GE(s.end_ns, s.start_ns);
    EXPECT_LT(s.parent, static_cast<int32_t>(spans.size()));
  }
  EXPECT_GT(trace->duration_ns(), 0u);
}

TEST(Trace, ConcurrentSpanAppendKeepsInvariant) {
  // Batch items record spans from pool workers: all spans of all threads
  // must land with parents preceding children and sane timestamps.
  TraceRecorder rec(8);
  std::shared_ptr<Trace> trace = rec.Begin("query_batch");
  const int32_t root = trace->BeginSpan("evaluate");
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&trace, root] {
      for (int i = 0; i < 200; ++i) {
        SpanScope s(trace.get(), "item", root);
      }
    });
  }
  for (auto& th : threads) th.join();
  trace->EndSpan(root);
  rec.Finish(trace);
  const std::vector<SpanRecord> spans = trace->spans();
  ASSERT_EQ(spans.size(), 1u + kThreads * 200u);
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_GE(spans[i].end_ns, spans[i].start_ns);
    EXPECT_LT(spans[i].parent, static_cast<int32_t>(i));  // parent precedes
  }
}

TEST(Trace, NullTraceIsNoOp) {
  SpanScope s(nullptr, "anything");
  EXPECT_EQ(s.index(), -1);
}

TEST(TraceRecorder, RingEvictsOldestAndFindsById) {
  TraceRecorder rec(2);
  std::vector<uint64_t> ids;
  for (int i = 0; i < 3; ++i) {
    std::shared_ptr<Trace> t = rec.Begin("q" + std::to_string(i));
    ids.push_back(t->id());
    rec.Finish(t);
  }
  EXPECT_EQ(rec.finished_count(), 3u);
  EXPECT_EQ(rec.Find(ids[0]), nullptr);  // evicted
  ASSERT_NE(rec.Find(ids[2]), nullptr);
  const auto recent = rec.Recent(10);
  ASSERT_EQ(recent.size(), 2u);
  EXPECT_EQ(recent[0]->id(), ids[2]);  // newest first
}

TEST(TraceRecorder, RenderTextIndentsChildren) {
  TraceRecorder rec(4);
  std::shared_ptr<Trace> trace = rec.Begin("query");
  trace->SetAttr("doc", "ward");
  const int32_t a = trace->BeginSpan("evaluate");
  const int32_t b = trace->BeginSpan("item", a);
  trace->EndSpan(b);
  trace->EndSpan(a);
  rec.Finish(trace);
  const std::string text = TraceRecorder::RenderText(*trace);
  EXPECT_NE(text.find("query"), std::string::npos);
  EXPECT_NE(text.find("@doc = ward"), std::string::npos);
  EXPECT_NE(text.find("  evaluate"), std::string::npos);
  EXPECT_NE(text.find("    item"), std::string::npos) << text;
  const std::string json = TraceRecorder::RenderJson(*trace);
  EXPECT_NE(json.find("\"name\": \"query\""), std::string::npos) << json;
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

// ---------------------------------------------------------------------
// Audit log
// ---------------------------------------------------------------------

AuditRecord MakeRecord(AuditKind kind, const std::string& view, bool allowed) {
  AuditRecord r;
  r.kind = kind;
  r.view = view;
  r.doc = "ward";
  r.allowed = allowed;
  if (!allowed) r.explain = "denied: test";
  return r;
}

TEST(AuditLog, SeqIsMonotoneAndCapacityBounds) {
  AuditLog log(4);
  for (int i = 0; i < 10; ++i) {
    const uint64_t seq =
        log.Append(MakeRecord(AuditKind::kUpdateReject, "nurses", false));
    EXPECT_EQ(seq, static_cast<uint64_t>(i + 1));
  }
  EXPECT_EQ(log.total(), 10u);
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.dropped(), 6u);
  const auto records = log.Query();
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records.front().seq, 7u);  // oldest retained
  EXPECT_EQ(records.back().seq, 10u);
}

TEST(AuditLog, FilterByKindAllowedViewAndSeq) {
  AuditLog log(100);
  log.Append(MakeRecord(AuditKind::kQueryRewrite, "nurses", true));
  log.Append(MakeRecord(AuditKind::kUpdateReject, "nurses", false));
  log.Append(MakeRecord(AuditKind::kUpdateAccept, "doctors", true));
  log.Append(MakeRecord(AuditKind::kUpdateReject, "doctors", false));

  AuditFilter by_kind;
  const AuditKind reject = AuditKind::kUpdateReject;
  by_kind.kind = &reject;
  EXPECT_EQ(log.Query(by_kind).size(), 2u);

  AuditFilter by_denied;
  const bool denied = false;
  by_denied.allowed = &denied;
  const auto denials = log.Query(by_denied);
  ASSERT_EQ(denials.size(), 2u);
  EXPECT_EQ(denials[0].explain, "denied: test");

  AuditFilter by_view;
  by_view.view = "doctors";
  EXPECT_EQ(log.Query(by_view).size(), 2u);

  AuditFilter by_seq;
  by_seq.min_seq = 3;
  EXPECT_EQ(log.Query(by_seq).size(), 2u);
}

TEST(AuditLog, RenderJsonEscapes) {
  AuditRecord r = MakeRecord(AuditKind::kUpdateReject, "nurses", false);
  r.seq = 9;
  r.statement = "delete //patient[pname = \"O'Hara\"]";
  r.explain = "line1\nline2 \"quoted\"";
  const std::string json = AuditLog::RenderJson(r);
  EXPECT_NE(json.find("\"seq\": 9"), std::string::npos);
  EXPECT_NE(json.find("update_reject"), std::string::npos);
  EXPECT_NE(json.find("\\\"O'Hara\\\""), std::string::npos) << json;
  EXPECT_NE(json.find("\\n"), std::string::npos) << json;
  EXPECT_EQ(json.find('\n'), std::string::npos);  // single line
}

// ---------------------------------------------------------------------
// Telemetry bundle
// ---------------------------------------------------------------------

TEST(Telemetry, TraceSamplingHonorsEvery) {
  TelemetryOptions opts;
  opts.trace_sample_every = 3;
  Telemetry tel(opts);
  int sampled = 0;
  for (int i = 0; i < 9; ++i) {
    std::shared_ptr<Trace> t = tel.MaybeBeginTrace("query");
    if (t != nullptr) {
      ++sampled;
      tel.traces().Finish(t);
    }
  }
  EXPECT_EQ(sampled, 3);
  EXPECT_EQ(tel.traces().finished_count(), 3u);
}

}  // namespace
}  // namespace smoqe::telemetry
