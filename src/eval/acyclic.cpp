#include "eval/acyclic.hpp"

#include <algorithm>

#include "common/fault_injection.hpp"
#include "eval/common.hpp"
#include "obs/trace.hpp"
#include "plan/executor.hpp"
#include "plan/planner.hpp"

namespace paraquery {

namespace {

// `head_out`, when non-null, receives the head terms the execution's
// binding attributes refer to (the canonical head when a cached plan was
// used — cached plans carry canonical variable ids).
Result<NamedRelation> PlanAndExecute(const Database& db,
                                     const ConjunctiveQuery& q,
                                     const EvalContext& ctx,
                                     bool decision_only, PlanStats* plan_stats,
                                     std::vector<Term>* head_out) {
  PQ_FAULT_POINT("acyclic.plan");
  if (head_out != nullptr) *head_out = q.head;
  std::shared_ptr<PhysicalPlan> plan;
  if (ctx.plan_cache != nullptr) {
    // Cache route: compile (or fetch) the plan of the CANONICAL query, so
    // every renaming-equivalent query — re-expanded UCQ disjuncts included —
    // shares one entry. The binding attributes come back as canonical ids;
    // answers are mapped through the canonical head.
    CanonicalCq canonical = CanonicalizeCq(q);
    std::string key = internal::StrCat(decision_only ? "cq-dec:" : "cq-eval:",
                                       PlannerCacheTag(ctx.planner),
                                       canonical.signature);
    plan = ctx.plan_cache->Lookup<PhysicalPlan>(key, db);
    if (plan == nullptr) {
      PQ_ASSIGN_OR_RETURN(
          PhysicalPlan built,
          decision_only ? PlanAcyclicDecision(db, canonical.query, ctx.planner)
                        : PlanAcyclicCq(db, canonical.query, ctx.planner));
      plan = std::make_shared<PhysicalPlan>(std::move(built));
      PQ_FAULT_POINT("acyclic.cache.insert");
      ctx.plan_cache->Insert(key, db, canonical.query, plan);
    }
    if (head_out != nullptr) *head_out = canonical.query.head;
  } else {
    PQ_ASSIGN_OR_RETURN(PhysicalPlan built,
                        decision_only ? PlanAcyclicDecision(db, q, ctx.planner)
                                      : PlanAcyclicCq(db, q, ctx.planner));
    plan = std::make_shared<PhysicalPlan>(std::move(built));
  }
  return ExecutePhysicalPlan(*plan, ctx.limits, plan_stats, ctx.runtime);
}

}  // namespace

Result<bool> AcyclicNonempty(const Database& db, const ConjunctiveQuery& q,
                             const EvalContext& ctx, PlanStats* plan_stats) {
  TraceSpan route_span(ctx.runtime.tracer, "route.acyclic");
  PQ_ASSIGN_OR_RETURN(NamedRelation root,
                      PlanAndExecute(db, q, ctx, /*decision_only=*/true,
                                     plan_stats, /*head_out=*/nullptr));
  return !root.empty();
}

Result<Relation> AcyclicEvaluate(const Database& db, const ConjunctiveQuery& q,
                                 const EvalContext& ctx, PlanStats* plan_stats,
                                 bool sort_output) {
  TraceSpan route_span(ctx.runtime.tracer, "route.acyclic");
  std::vector<Term> head;
  PQ_ASSIGN_OR_RETURN(NamedRelation bindings,
                      PlanAndExecute(db, q, ctx, /*decision_only=*/false,
                                     plan_stats, &head));
  Relation answers = BindingsToAnswers(bindings, head, /*sort_output=*/false);
  if (!sort_output) return answers;
  return SortAnswers(std::move(answers), ctx.runtime);
}

}  // namespace paraquery
