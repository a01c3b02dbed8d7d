/// \file
/// \brief StAX-mode HyPE driver: single-query streaming evaluation with
/// in-scan answer capture — implemented as the N = 1 case of the batch
/// evaluator in batch.h (docs/DESIGN.md §3, §5.2).

#ifndef SMOQE_EVAL_HYPE_STAX_H_
#define SMOQE_EVAL_HYPE_STAX_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/automata/mfa.h"
#include "src/common/counters.h"
#include "src/common/guardrail.h"
#include "src/common/status.h"

namespace smoqe::eval {

/// One answer from a streaming evaluation.
struct StaxAnswer {
  int32_t engine_id;  ///< element pre-order id in the stream
  std::string xml;    ///< serialized subtree, captured during the scan
};

/// Result of a StAX-mode evaluation.
struct StaxEvalResult {
  std::vector<StaxAnswer> answers;  ///< document order
  EvalStats stats;                  ///< buffered_bytes = peak capture bytes
};

/// \brief StAX-mode HyPE: evaluates the MFA in a single forward scan of
/// XML text, without building a document tree (paper §2, "StAX mode").
///
/// Candidate answers are detected at their start tags (Cans grows only at
/// element entry), so their subtrees are captured — serialized back out —
/// during the same scan; candidates whose guards fail are discarded by the
/// final Cans pass. Peak capture footprint is reported in
/// `stats.buffered_bytes` (the paper's claim that Cans is much smaller
/// than the document is experiment E4/E5). Whitespace-only text is
/// skipped, as the DOM parser skips it, so the two modes agree.
///
/// `guard` is the per-request guardrail; nullptr = ungoverned. The scan
/// polls it per event and charges capture and engine allocations to its
/// budget.
Result<StaxEvalResult> EvalHypeStax(const automata::Mfa& mfa,
                                    std::string_view xml,
                                    const Guardrail* guard = nullptr);

}  // namespace smoqe::eval

#endif  // SMOQE_EVAL_HYPE_STAX_H_
