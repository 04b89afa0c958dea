// The evaluation context: everything a query evaluation shares across
// evaluators — the resource guard, the parallel runtime binding, the
// cross-query plan cache and the planner options. The Engine builds one per
// Run and passes it unchanged to whichever evaluator the query routes to
// (and the UCQ evaluator passes it unchanged to every disjunct), so a
// setting can never be dropped between layers. Evaluator-specific knobs
// (coloring driver, disjunct cap, iteration cap, ...) stay in each
// evaluator's own options struct.
#ifndef PARAQUERY_EVAL_CONTEXT_H_
#define PARAQUERY_EVAL_CONTEXT_H_

#include "plan/plan.hpp"
#include "plan/plan_cache.hpp"
#include "plan/planner.hpp"
#include "runtime/scheduler.hpp"

namespace paraquery {

struct EvalContext {
  /// Resource guard enforced on every plan execution (and by the
  /// backtracking search, whose max_steps counts search steps).
  ResourceLimits limits;
  /// Parallel runtime binding (default: sequential execution, unhardened).
  RuntimeOptions runtime;
  /// Cross-query plan cache (optional, engine-owned). Keys carry the
  /// planner options (PlannerCacheTag), so a plan built under one setting is
  /// never served under another.
  PlanCache* plan_cache = nullptr;
  /// Planner options for every plan the evaluation builds.
  PlannerOptions planner;
};

}  // namespace paraquery

#endif  // PARAQUERY_EVAL_CONTEXT_H_
