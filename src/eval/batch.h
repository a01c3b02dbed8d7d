/// \file
/// \brief Multi-query batch evaluation over a single StAX pass — the
/// service-layer half of the evaluator (docs/DESIGN.md §5.2, §7).
///
/// N compiled plans (MFAs sharing one name table) are advanced in
/// lockstep over one forward scan of the XML text: the event stream, the
/// name-table lookups, the element depth bookkeeping and the answer
/// captures are shared across plans, while every plan keeps its own HyPE
/// run sets and guards. Per-event cost therefore grows sublinearly in N —
/// tokenization and capture serialization are paid once per document, not
/// once per query (experiment E11, bench/bench_batch.cc).
///
/// RunParallel adds the second axis (experiment E13): one thread keeps
/// the shared tokenizer and the capture replay, while per-plan engine
/// advancement — the part that grows linearly in N — fans out across a
/// thread pool in event chunks, and so does each plan's answer assembly.
/// Answers are byte-identical to Run (and to N sequential passes); only
/// wall-clock changes.

#ifndef SMOQE_EVAL_BATCH_H_
#define SMOQE_EVAL_BATCH_H_

#include <string_view>
#include <vector>

#include "src/automata/mfa.h"
#include "src/common/guardrail.h"
#include "src/common/status.h"
#include "src/common/thread_pool.h"
#include "src/eval/hype_stax.h"
#include "src/telemetry/metrics.h"

namespace smoqe::eval {

/// Knobs of the parallel batch driver (RunParallel).
struct BatchParallelOptions {
  /// Pool supplying the worker threads; nullptr (or a pool without
  /// workers) runs the serial Run.
  ThreadPool* pool = nullptr;
  /// Events decoded per tokenizer chunk. Each chunk is one fork/join
  /// round: big enough to amortize the barrier, small enough that the
  /// decoded-event buffer stays cache-resident. 4096 events ≈ a few
  /// hundred KB.
  size_t chunk_events = 4096;
  /// Optional telemetry sink: wall-clock nanoseconds of each fork/join
  /// round (fork → join and staging merge; the round also tokenizes the
  /// next chunk and replays the previous one) is Record()ed here, one
  /// sample per chunk. Null = no timing taken.
  telemetry::Histogram* chunk_ns = nullptr;
};

/// \brief Runs many compiled plans over one streaming scan per document.
///
/// Usage (one instance can serve many documents — plans are fixed,
/// engines are per-Run):
///
///     eval::BatchEvaluator batch;
///     batch.AddPlan(&mfa_nurse);
///     batch.AddPlan(&mfa_research);
///     auto results = batch.Run(xml_text);   // results->at(i) ↔ plan i
///
/// Sharing model (DESIGN.md §5.2): the driver owns the StAX reader, one
/// interned label per start tag, one attribute view per element, and one
/// capture stack — a candidate subtree staged by *any* plan is serialized
/// exactly once and demultiplexed to every plan that answers it. Each
/// plan runs its own HypeEngine (own frames/runs/guards), and a plan
/// whose runs die under dead-run pruning stops receiving events for that
/// subtree while the scan continues for the others.
///
/// Answers are byte-identical to N sequential EvalHypeStax passes
/// (differential-tested); per-plan `stats.buffered_bytes` reports the
/// shared peak capture footprint of the pass.
class BatchEvaluator {
 public:
  /// `guard` is the per-request guardrail (deadline/cancel/budget);
  /// nullptr = ungoverned. It is polled per event by the serial scan, by
  /// each plan's chunk step in the parallel driver and by that driver's
  /// tokenizer; a tripped guard unwinds the whole batch — never partial
  /// answers.
  explicit BatchEvaluator(const Guardrail* guard = nullptr);

  /// Registers a compiled plan; returns its index in Run's result vector.
  /// Every plan must share the first plan's name table (checked by Run).
  /// The MFA must stay alive for the evaluator's lifetime.
  int AddPlan(const automata::Mfa* mfa);

  /// Evaluates every registered plan in one forward scan of `xml`.
  /// Result i holds plan i's answers in document order.
  Result<std::vector<StaxEvalResult>> Run(std::string_view xml) const;

  /// Like Run, but plan advancement is parallel (docs/DESIGN.md §7.3):
  /// pool threads claim plans one at a time and advance each through
  /// chunk k, while the calling thread tokenizes chunk k+1, replays the
  /// shared capture stream of chunk k-1, and then advances the plans no
  /// worker has claimed. After the last chunk, each plan's Cans pass,
  /// answer copies and teardown run on the pool. Both drivers feed each
  /// plan through one per-plan event step, so every engine sees exactly
  /// the event sequence Run would deliver and answers and per-plan stats
  /// are identical. Falls back to Run when there is no pool, the pool has
  /// no workers or there are fewer than two plans.
  Result<std::vector<StaxEvalResult>> RunParallel(
      std::string_view xml, const BatchParallelOptions& par = {}) const;

  size_t plan_count() const { return plans_.size(); }

  /// Folds the per-plan stats of one batch into a single batch-level
  /// EvalStats via EvalStats::MergeFrom — identical for Run and
  /// RunParallel since the per-plan stats are (asserted in the
  /// concurrency suite).
  static EvalStats AggregateStats(const std::vector<StaxEvalResult>& results);

 private:
  const Guardrail* guard_;
  std::vector<const automata::Mfa*> plans_;
};

}  // namespace smoqe::eval

#endif  // SMOQE_EVAL_BATCH_H_
