// First-order (relational calculus) evaluation under active-domain
// semantics: each subformula is evaluated to a relation over its free
// variables; ¬ complements against adom^arity, ∃ projects, ∀ divides.
// Worst case n^{O(v)} — the paper's point is precisely that this
// exponential dependence on the number of variables is unavoidable
// (Theorem 1: W[P]-hard under parameter v).
//
// The algebra is not plan-routed: of the EvalContext it honors
// limits.max_rows (see FoOptions::max_rows) and runtime.query_ctx
// (deadline, cancellation, memory budget), polled at every subformula and
// inside the division group scan, so a runaway active-domain evaluation
// aborts cooperatively. The evaluator itself stays sequential.
#ifndef PARAQUERY_EVAL_FO_H_
#define PARAQUERY_EVAL_FO_H_

#include <cstdint>

#include "common/status.hpp"
#include "eval/context.hpp"
#include "query/first_order_query.hpp"
#include "relational/database.hpp"

namespace paraquery {

/// Options for the first-order evaluator.
struct FoOptions {
  /// Cap on any intermediate relation (complements/domain powers can reach
  /// |adom|^arity rows). Exceeding it fails with ResourceExhausted. A
  /// nonzero EvalContext::limits.max_rows takes its place.
  uint64_t max_rows = 10'000'000;
};

/// Computes Q(d) over the active domain of `db`. Fails with InvalidArgument
/// on an empty active domain (quantifier semantics over the empty structure
/// are not supported).
Result<Relation> EvaluateFirstOrder(const Database& db,
                                    const FirstOrderQuery& q,
                                    const EvalContext& ctx = {},
                                    const FoOptions& options = {});

/// Decides whether Q(d) is nonempty.
Result<bool> FirstOrderNonempty(const Database& db, const FirstOrderQuery& q,
                                const EvalContext& ctx = {},
                                const FoOptions& options = {});

}  // namespace paraquery

#endif  // PARAQUERY_EVAL_FO_H_
