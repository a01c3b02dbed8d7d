#include "src/eval/hype_stax.h"

#include <utility>
#include <vector>

#include "src/eval/batch.h"

namespace smoqe::eval {

// Since the service layer landed (DESIGN.md §5.2), single-query StAX
// evaluation is the N = 1 case of the batch driver: one shared scan loop
// to maintain, and every single-query test exercises the batch code path.
Result<StaxEvalResult> EvalHypeStax(const automata::Mfa& mfa,
                                    std::string_view xml,
                                    const Guardrail* guard) {
  BatchEvaluator batch(guard);
  batch.AddPlan(&mfa);
  SMOQE_ASSIGN_OR_RETURN(std::vector<StaxEvalResult> results, batch.Run(xml));
  return std::move(results[0]);
}

}  // namespace smoqe::eval
