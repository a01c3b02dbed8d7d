#ifndef SMOQE_BENCH_BENCH_UTIL_H_
#define SMOQE_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/automata/mfa.h"
#include "src/common/counters.h"
#include "src/rxpath/parser.h"
#include "src/telemetry/metrics.h"
#include "src/workload/workloads.h"
#include "src/xml/serializer.h"

namespace smoqe::bench {

/// Refuses to benchmark a Debug (assert-enabled) build: the seed's cached
/// Debug build/ dir silently recorded meaningless rows once (CHANGES.md,
/// PR 3 note). Set SMOQE_ALLOW_DEBUG_BENCH=1 to run anyway — trajectory
/// recording stays disabled either way, so Debug numbers can never reach
/// the checked-in BENCH_*.json files.
inline void RequireReleaseBuild() {
#ifndef NDEBUG
  if (std::getenv("SMOQE_ALLOW_DEBUG_BENCH") == nullptr) {
    std::fprintf(
        stderr,
        "bench: this binary was built without NDEBUG (Debug build) — "
        "numbers would be meaningless.\n"
        "Rebuild with -DCMAKE_BUILD_TYPE=Release, or set "
        "SMOQE_ALLOW_DEBUG_BENCH=1 to run anyway (the JSON trajectory "
        "stays off).\n");
    std::exit(2);
  }
#endif
}

/// Cached corpus: one generated document per (schema, size), shared by all
/// benchmarks in a binary so the tables sweep sizes without regenerating.
class Corpus {
 public:
  static Corpus& Get() {
    RequireReleaseBuild();
    static Corpus corpus;
    return corpus;
  }

  const xml::Document& Hospital(size_t nodes) {
    auto it = hospital_.find(nodes);
    if (it == hospital_.end()) {
      auto doc = workload::GenHospital(/*seed=*/1234, nodes, names_);
      Check(doc.ok(), "hospital generation");
      it = hospital_
               .emplace(nodes, std::make_unique<xml::Document>(doc.MoveValue()))
               .first;
    }
    return *it->second;
  }

  const std::string& HospitalText(size_t nodes) {
    auto it = hospital_text_.find(nodes);
    if (it == hospital_text_.end()) {
      it = hospital_text_
               .emplace(nodes, xml::SerializeDocument(Hospital(nodes)))
               .first;
    }
    return it->second;
  }

  /// Deep-genealogy hospital variant (GenHospitalDeep): same schema and
  /// vocabulary, ancestry chains tens of patients deep — the recursion ×
  /// predicates regime the hot-path optimizations target.
  const xml::Document& HospitalDeep(size_t nodes) {
    auto it = hospital_deep_.find(nodes);
    if (it == hospital_deep_.end()) {
      auto doc = workload::GenHospitalDeep(/*seed=*/1234, nodes, names_);
      Check(doc.ok(), "deep hospital generation");
      it = hospital_deep_
               .emplace(nodes, std::make_unique<xml::Document>(doc.MoveValue()))
               .first;
    }
    return *it->second;
  }

  const xml::Document& Org(size_t nodes) {
    auto it = org_.find(nodes);
    if (it == org_.end()) {
      auto doc = workload::GenOrg(/*seed=*/99, nodes, names_);
      Check(doc.ok(), "org generation");
      it = org_.emplace(nodes, std::make_unique<xml::Document>(doc.MoveValue()))
               .first;
    }
    return *it->second;
  }

  const std::shared_ptr<xml::NameTable>& names() { return names_; }

  /// Compiles (and caches) a query MFA against the shared name table.
  const automata::Mfa& Mfa(const std::string& query) {
    auto it = mfas_.find(query);
    if (it == mfas_.end()) {
      auto q = rxpath::ParseQuery(query);
      Check(q.ok(), "query parse");
      auto mfa = automata::Mfa::Compile(**q, names_);
      Check(mfa.ok(), "mfa compile");
      it = mfas_
               .emplace(query,
                        std::make_unique<automata::Mfa>(mfa.MoveValue()))
               .first;
    }
    return *it->second;
  }

  static void Check(bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "bench setup failed: %s\n", what);
      std::abort();
    }
  }

 private:
  Corpus() : names_(xml::NameTable::Create()) {}

  std::shared_ptr<xml::NameTable> names_;
  std::map<size_t, std::unique_ptr<xml::Document>> hospital_;
  std::map<size_t, std::unique_ptr<xml::Document>> hospital_deep_;
  std::map<size_t, std::string> hospital_text_;
  std::map<size_t, std::unique_ptr<xml::Document>> org_;
  std::map<std::string, std::unique_ptr<automata::Mfa>> mfas_;
};

// ---------------------------------------------------------------------
// JSON trajectory reporting — BENCH_*.json files recorded per PR so the
// perf history of the hot path is tracked in-repo (ROADMAP north star).
// ---------------------------------------------------------------------

/// One measured configuration: engine × workload × query × size × option
/// set, with throughput and the hot-path counters.
struct TrajectoryRow {
  std::string engine;    ///< "hype_dom" | "hype_stax" | ...
  std::string workload;  ///< "hospital" | "org". Rows are keyed by
                         ///< (workload, query, nodes): the hospital desc-*
                         ///< queries run over the deep-genealogy document
                         ///< variant (see WriteTrajectory in bench_eval.cc).
  std::string query;     ///< bench query id
  std::string config;    ///< "opt_all", "batch", "parallel", ...
  uint64_t nodes = 0;
  uint64_t answers = 0;
  /// Total parallelism the measured call was allowed (1 = serial; the
  /// E13 thread sweep records one row per thread count). The estimators
  /// below time *wall clock*, so for threads > 1 a row's nodes_per_sec is
  /// aggregate throughput — comparisons are only meaningful against rows
  /// with an explicit thread count, which is why the field is part of the
  /// schema rather than smuggled into `config`.
  uint64_t threads = 1;
  double ns_per_node = 0;
  double nodes_per_sec = 0;
  /// Per-call latency distribution (0 when the row records only a mean):
  /// median and tail of the repeated timed calls, from the same samples
  /// the mean came from. The batch/parallel rows fill these — tail
  /// latency is the serving-layer metric a mean hides.
  double p50_ns = 0;
  double p99_ns = 0;
  uint64_t max_active_pairs = 0;
  uint64_t guard_pool_entries = 0;
  uint64_t guard_pool_hits = 0;
  uint64_t run_dedup_probes = 0;
};

/// Collects TrajectoryRows and writes them as a JSON array. Output schema
/// is flat so downstream diffing stays trivial (`jq` over BENCH_*.json),
/// and strictly one row per line so different bench binaries can merge
/// their rows into one trajectory file (WriteFileMerged).
class JsonReport {
 public:
  void Add(TrajectoryRow row) { rows_.push_back(std::move(row)); }

  bool WriteFile(const std::string& path) const {
    return WriteRows(path, {});
  }

  /// Rewrites `path` keeping every existing row whose "engine" is NOT in
  /// `replace_engines`, then appends this report's rows. This is how
  /// bench_eval and bench_batch share BENCH_eval.json: each binary owns
  /// its engine names and leaves the other's history untouched.
  bool WriteFileMerged(const std::string& path,
                       const std::vector<std::string>& replace_engines) const {
    std::vector<std::string> kept;
    std::FILE* in = std::fopen(path.c_str(), "r");
    if (in != nullptr) {
      char buf[8192];
      bool saw_object = false;   // any '{' at all, row-shaped or not
      size_t parsed_rows = 0;    // lines in our one-row-per-line format
      std::string line;          // accumulates across fgets chunks
      auto process_line = [&] {
        saw_object |= line.find('{') != std::string::npos;
        while (!line.empty() &&
               (line.back() == '\n' || line.back() == '\r')) {
          line.pop_back();
        }
        if (line.rfind("  {", 0) == 0) {  // a row line
          ++parsed_rows;
          if (!line.empty() && line.back() == ',') line.pop_back();
          bool replaced = false;
          for (const std::string& engine : replace_engines) {
            if (line.find("\"engine\": \"" + engine + "\"") !=
                std::string::npos) {
              replaced = true;
              break;
            }
          }
          if (!replaced) kept.push_back(line);
        }
        line.clear();
      };
      while (std::fgets(buf, sizeof buf, in) != nullptr) {
        line += buf;
        // Only process complete lines: a row longer than the fgets
        // buffer must not be split into a kept-but-truncated prefix.
        if (!line.empty() && line.back() == '\n') process_line();
      }
      if (!line.empty()) process_line();  // unterminated last line
      std::fclose(in);
      if (saw_object && parsed_rows == 0) {
        // The file holds objects but none parse as our one-row-per-line
        // format (reformatted by hand or by a tool?). Refuse rather than
        // silently dropping the other binaries' recorded history.
        std::fprintf(stderr,
                     "%s: existing rows are not in the one-row-per-line "
                     "format; refusing to merge (re-record or restore the "
                     "file)\n",
                     path.c_str());
        return false;
      }
    }
    return WriteRows(path, kept);
  }

  size_t size() const { return rows_.size(); }

 private:
  static std::string Escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out;
  }

  static std::string Render(const TrajectoryRow& r) {
    // Two-pass snprintf (measure, then fill) so long query strings can
    // never truncate a row into malformed JSON.
    auto fmt = [&](char* buf, size_t n) {
      return std::snprintf(
          buf, n,
          "  {\"engine\": \"%s\", \"workload\": \"%s\", \"query\": \"%s\", "
          "\"config\": \"%s\", \"nodes\": %llu, \"answers\": %llu, "
          "\"threads\": %llu, "
          "\"ns_per_node\": %.2f, \"nodes_per_sec\": %.0f, "
          "\"p50_ns\": %.0f, \"p99_ns\": %.0f, "
          "\"max_active_pairs\": %llu, \"guard_pool_entries\": %llu, "
          "\"guard_pool_hits\": %llu, \"run_dedup_probes\": %llu}",
          Escape(r.engine).c_str(), Escape(r.workload).c_str(),
          Escape(r.query).c_str(), Escape(r.config).c_str(),
          static_cast<unsigned long long>(r.nodes),
          static_cast<unsigned long long>(r.answers),
          static_cast<unsigned long long>(r.threads), r.ns_per_node,
          r.nodes_per_sec, r.p50_ns, r.p99_ns,
          static_cast<unsigned long long>(r.max_active_pairs),
          static_cast<unsigned long long>(r.guard_pool_entries),
          static_cast<unsigned long long>(r.guard_pool_hits),
          static_cast<unsigned long long>(r.run_dedup_probes));
    };
    int need = fmt(nullptr, 0);
    std::string out(need > 0 ? static_cast<size_t>(need) : 0, '\0');
    if (need > 0) fmt(&out[0], out.size() + 1);
    return out;
  }

  bool WriteRows(const std::string& path,
                 const std::vector<std::string>& kept) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    bool ok = std::fputs("[\n", f) >= 0;
    const size_t total = kept.size() + rows_.size();
    size_t i = 0;
    for (const std::string& line : kept) {
      ok &= 0 <= std::fprintf(f, "%s%s\n", line.c_str(),
                              ++i < total ? "," : "");
    }
    for (const TrajectoryRow& r : rows_) {
      ok &= 0 <= std::fprintf(f, "%s%s\n", Render(r).c_str(),
                              ++i < total ? "," : "");
    }
    ok &= std::fputs("]\n", f) >= 0;
    ok &= std::ferror(f) == 0;
    ok &= std::fclose(f) == 0;
    return ok;
  }

  std::vector<TrajectoryRow> rows_;
};

/// Times `fn` (one evaluation per call): warms up for ~10 ms (at least
/// once — a single warmup call proved not enough for the first
/// measurement of a sweep, where CPU frequency ramp and cold caches
/// inflated a 30 µs/iter row by 2×), then repeats until both `min_iters`
/// and `min_seconds` are reached. Returns ns per call.
template <typename Fn>
double MeasureNsPerIter(Fn&& fn, int min_iters = 3,
                        double min_seconds = 0.10) {
  using Clock = std::chrono::steady_clock;
  auto warm_start = Clock::now();
  do {
    fn();  // warmup (also populates corpus caches)
  } while (std::chrono::duration<double>(Clock::now() - warm_start).count() <
           0.01);
  int iters = 0;
  double elapsed = 0;
  auto start = Clock::now();
  do {
    fn();
    ++iters;
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  } while (iters < min_iters || elapsed < min_seconds);
  return elapsed * 1e9 / iters;
}

/// Per-call MINIMUM over repeated timed calls. Noise-robust where
/// MeasureNsPerIter's mean is not: scheduler preemption and frequency
/// dips only ever inflate a sample, so the minimum is the cleanest
/// estimate of the code's actual cost — use it when a *ratio* of two
/// measurements is the recorded result (bench_batch's speedup rows,
/// where a single inflated window on either side skews the quotient).
///
/// Multi-threaded callables (bench_parallel's thread sweep): the sample
/// is still wall clock, so the minimum estimates the best-case *parallel*
/// latency — valid, but only comparable across rows that say how many
/// threads they were allowed. Any report built on this estimator must
/// fill TrajectoryRow::threads; a missing count renders as the serial
/// default (1) and would silently overstate per-thread throughput.
template <typename Fn>
double MeasureMinNsPerIter(Fn&& fn, int min_iters = 5,
                           double min_seconds = 0.5) {
  using Clock = std::chrono::steady_clock;
  auto warm_start = Clock::now();
  do {
    fn();
  } while (std::chrono::duration<double>(Clock::now() - warm_start).count() <
           0.01);
  double best = 1e300;
  double total = 0;
  int iters = 0;
  do {
    auto t0 = Clock::now();
    fn();
    double s = std::chrono::duration<double>(Clock::now() - t0).count();
    if (s < best) best = s;
    total += s;
    ++iters;
  } while (iters < min_iters || total < min_seconds);
  return best * 1e9;
}

/// Latency distribution of repeated timed calls: median and p99 over the
/// same kind of sample stream MeasureMinNsPerIter takes the minimum of.
/// Samples land in a telemetry::Histogram (the subsystem's own
/// log-bucketed quantiles, ≤6.25% relative error), so the bench numbers
/// and a production DumpMetrics read the same way.
struct LatencyPercentiles {
  double p50_ns = 0;
  double p99_ns = 0;
};

template <typename Fn>
LatencyPercentiles MeasureLatencyPercentiles(Fn&& fn, int min_iters = 50,
                                             double min_seconds = 0.5) {
  using Clock = std::chrono::steady_clock;
  auto warm_start = Clock::now();
  do {
    fn();
  } while (std::chrono::duration<double>(Clock::now() - warm_start).count() <
           0.01);
  telemetry::Histogram hist;
  double total = 0;
  int iters = 0;
  do {
    auto t0 = Clock::now();
    fn();
    const double s =
        std::chrono::duration<double>(Clock::now() - t0).count();
    hist.Record(static_cast<uint64_t>(s * 1e9));
    total += s;
    ++iters;
  } while (iters < min_iters || total < min_seconds);
  return {hist.Quantile(0.5), hist.Quantile(0.99)};
}

/// One config's result from InterleavedAB.
struct ABResult {
  double best_ns = 1e300;  ///< best window's per-call minimum
  double p50_ns = 0;       ///< per-call median over every timed call
  double p99_ns = 0;

  /// Fills the timing columns of a facade-overhead row over `nodes`.
  void FillRow(uint64_t nodes, TrajectoryRow* row) const {
    row->nodes = nodes;
    row->ns_per_node = best_ns / static_cast<double>(nodes);
    row->nodes_per_sec = static_cast<double>(nodes) * 1e9 / best_ns;
    row->p50_ns = p50_ns;
    row->p99_ns = p99_ns;
  }
};

/// Interleaved A/B timing of `configs` alternatives, for results that are
/// a *ratio* between configs (the E14/E15/E17 overhead rows). Sequential
/// per-config windows turn clock drift or a frequency change into fake
/// overhead — measured ~7% at 100k nodes on a shared container — so this
/// round-robins short MeasureMinNsPerIter windows (≥5 calls, ≥50 ms) over
/// every config for at least 4 rounds and 1 s. `call(c)` runs one call of
/// config c; every call is also timed into that config's histogram.
/// Stores the round count in `*rounds` when given.
template <typename Call>
std::vector<ABResult> InterleavedAB(size_t configs, Call&& call,
                                    int* rounds = nullptr) {
  using Clock = std::chrono::steady_clock;
  std::vector<ABResult> results(configs);
  auto hists = std::make_unique<telemetry::Histogram[]>(configs);
  const auto sweep_start = Clock::now();
  int round = 0;
  do {
    for (size_t c = 0; c < configs; ++c) {
      telemetry::Histogram& hist = hists[c];
      const double window_ns = MeasureMinNsPerIter(
          [&] {
            const auto t0 = Clock::now();
            call(c);
            hist.Record(static_cast<uint64_t>(
                std::chrono::duration<double>(Clock::now() - t0).count() *
                1e9));
          },
          /*min_iters=*/5, /*min_seconds=*/0.05);
      if (window_ns < results[c].best_ns) results[c].best_ns = window_ns;
    }
    ++round;
  } while (round < 4 ||
           std::chrono::duration<double>(Clock::now() - sweep_start).count() <
               1.0);
  for (size_t c = 0; c < configs; ++c) {
    results[c].p50_ns = hists[c].Quantile(0.5);
    results[c].p99_ns = hists[c].Quantile(0.99);
  }
  if (rounds != nullptr) *rounds = round;
  return results;
}

/// Whether the post-benchmark JSON trajectory sweep should run. On by
/// default (a plain `bench_eval` run records the trajectory); set
/// SMOQE_TRAJECTORY=0 when iterating on a single filtered benchmark so
/// minutes of sweep don't follow every run (and the checked-in
/// BENCH_*.json isn't clobbered from the repo root). Always off in
/// non-NDEBUG builds — Debug rows must never enter the recorded history.
inline bool TrajectoryEnabled() {
#ifndef NDEBUG
  return false;
#else
  const char* env = std::getenv("SMOQE_TRAJECTORY");
  return env == nullptr || std::string(env) != "0";
#endif
}

/// Document sizes for the JSON sweep; override with SMOQE_BENCH_SIZES
/// (comma-separated) to keep CI smoke runs small.
inline std::vector<size_t> TrajectorySizes() {
  const char* env = std::getenv("SMOQE_BENCH_SIZES");
  if (env == nullptr || *env == '\0') return {1000, 10000, 100000};
  std::vector<size_t> sizes;
  size_t cur = 0;
  bool have = false;
  for (const char* p = env;; ++p) {
    if (*p >= '0' && *p <= '9') {
      cur = cur * 10 + static_cast<size_t>(*p - '0');
      have = true;
    } else {
      if (have) sizes.push_back(cur);
      cur = 0;
      have = false;
      if (*p == '\0') break;
    }
  }
  return sizes.empty() ? std::vector<size_t>{1000} : sizes;
}

}  // namespace smoqe::bench

#endif  // SMOQE_BENCH_BENCH_UTIL_H_
