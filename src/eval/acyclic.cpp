#include "eval/acyclic.hpp"

#include <utility>

#include "common/fault_injection.hpp"
#include "eval/common.hpp"
#include "obs/trace.hpp"
#include "plan/planner.hpp"

namespace paraquery {

Result<bool> AcyclicNonempty(const Database& db, const ConjunctiveQuery& q,
                             const EvalContext& ctx, PlanStats* plan_stats) {
  PQ_FAULT_POINT("acyclic.plan");
  TraceSpan route_span(ctx.runtime.tracer, "route.acyclic");
  PQ_ASSIGN_OR_RETURN(
      NamedRelation root,
      ExecuteCachedPlan(db, q, ctx, "cq-dec:", PlanAcyclicDecision,
                        "acyclic.cache.insert", plan_stats));
  return !root.empty();
}

Result<Relation> AcyclicEvaluate(const Database& db, const ConjunctiveQuery& q,
                                 const EvalContext& ctx, PlanStats* plan_stats,
                                 bool sort_output) {
  PQ_FAULT_POINT("acyclic.plan");
  TraceSpan route_span(ctx.runtime.tracer, "route.acyclic");
  std::vector<Term> head;
  PQ_ASSIGN_OR_RETURN(
      NamedRelation bindings,
      ExecuteCachedPlan(db, q, ctx, "cq-eval:", PlanAcyclicCq,
                        "acyclic.cache.insert", plan_stats, &head));
  Relation answers = BindingsToAnswers(std::move(bindings), head,
                                       /*sort_output=*/false);
  if (!sort_output) return answers;
  return SortAnswers(std::move(answers), ctx.runtime);
}

}  // namespace paraquery
