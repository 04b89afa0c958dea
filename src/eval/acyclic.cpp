#include "eval/acyclic.hpp"

#include <algorithm>

#include "common/fault_injection.hpp"
#include "eval/common.hpp"
#include "obs/trace.hpp"
#include "plan/executor.hpp"
#include "plan/planner.hpp"

namespace paraquery {

namespace {

// Legacy-stat mirror: AcyclicStats predates the plan IR and is kept for
// existing callers (benches, tests); PlanStats is the authoritative record.
void MirrorStats(const PlanStats& plan, AcyclicStats* stats) {
  if (stats == nullptr) return;
  stats->semijoins += plan.semijoins;
  stats->joins += plan.joins;
  stats->peak_intermediate_rows =
      std::max(stats->peak_intermediate_rows, plan.peak_intermediate_rows);
  stats->shared_atom_storage += plan.shared_atom_storage;
  stats->zero_copy_projections += plan.zero_copy_projections;
}

// `head_out`, when non-null, receives the head terms the execution's
// binding attributes refer to (the canonical head when a cached plan was
// used — cached plans carry canonical variable ids).
Result<NamedRelation> PlanAndExecute(const Database& db,
                                     const ConjunctiveQuery& q,
                                     const AcyclicOptions& options,
                                     bool decision_only, AcyclicStats* stats,
                                     PlanStats* plan_stats,
                                     std::vector<Term>* head_out) {
  PQ_FAULT_POINT("acyclic.plan");
  PlannerOptions popt;
  popt.full_reducer = options.full_reducer;
  if (head_out != nullptr) *head_out = q.head;
  std::shared_ptr<PhysicalPlan> plan;
  if (options.plan_cache != nullptr) {
    // Cache route: compile (or fetch) the plan of the CANONICAL query, so
    // every renaming-equivalent query — re-expanded UCQ disjuncts included —
    // shares one entry. The binding attributes come back as canonical ids;
    // answers are mapped through the canonical head.
    CanonicalCq canonical = CanonicalizeCq(q);
    std::string key =
        internal::StrCat(decision_only ? "cq-dec:" : "cq-eval:",
                         options.full_reducer ? "" : "nored|",
                         canonical.signature);
    plan = options.plan_cache->Lookup<PhysicalPlan>(key, db);
    if (plan == nullptr) {
      PQ_ASSIGN_OR_RETURN(
          PhysicalPlan built,
          decision_only ? PlanAcyclicDecision(db, canonical.query, popt)
                        : PlanAcyclicCq(db, canonical.query, popt));
      plan = std::make_shared<PhysicalPlan>(std::move(built));
      PQ_FAULT_POINT("acyclic.cache.insert");
      options.plan_cache->Insert(key, db, canonical.query, plan);
    }
    if (head_out != nullptr) *head_out = canonical.query.head;
  } else {
    PQ_ASSIGN_OR_RETURN(PhysicalPlan built,
                        decision_only ? PlanAcyclicDecision(db, q, popt)
                                      : PlanAcyclicCq(db, q, popt));
    plan = std::make_shared<PhysicalPlan>(std::move(built));
  }
  // Execute into a local so only THIS call's counters are mirrored and
  // merged — callers may reuse the same out-params across a workload.
  PlanStats local;
  auto result = ExecutePhysicalPlan(*plan, options.EffectiveLimits(), &local,
                                    options.runtime);
  if (plan_stats != nullptr) plan_stats->Merge(local);
  MirrorStats(local, stats);
  return result;
}

}  // namespace

Result<bool> AcyclicNonempty(const Database& db, const ConjunctiveQuery& q,
                             const AcyclicOptions& options,
                             AcyclicStats* stats, PlanStats* plan_stats) {
  TraceSpan route_span(options.runtime.tracer, "route.acyclic");
  PQ_ASSIGN_OR_RETURN(NamedRelation root,
                      PlanAndExecute(db, q, options, /*decision_only=*/true,
                                     stats, plan_stats, /*head_out=*/nullptr));
  return !root.empty();
}

Result<Relation> AcyclicEvaluate(const Database& db, const ConjunctiveQuery& q,
                                 const AcyclicOptions& options,
                                 AcyclicStats* stats, PlanStats* plan_stats,
                                 bool sort_output) {
  TraceSpan route_span(options.runtime.tracer, "route.acyclic");
  std::vector<Term> head;
  PQ_ASSIGN_OR_RETURN(NamedRelation bindings,
                      PlanAndExecute(db, q, options, /*decision_only=*/false,
                                     stats, plan_stats, &head));
  Relation answers = BindingsToAnswers(bindings, head, /*sort_output=*/false);
  if (!sort_output) return answers;
  return SortAnswers(std::move(answers), options.runtime);
}

}  // namespace paraquery
