#include "eval/counting.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/fault_injection.hpp"
#include "eval/common.hpp"
#include "obs/trace.hpp"
#include "plan/executor.hpp"
#include "plan/planner.hpp"

namespace paraquery {

Relation GroupCountRows(const Relation& distinct_rows,
                        const std::vector<int>& group_cols) {
  if (group_cols.empty()) {
    Relation out(1);
    out.Add(std::vector<Value>{static_cast<Value>(distinct_rows.size())});
    return out;
  }
  std::map<std::vector<Value>, Value> groups;
  std::vector<Value> key(group_cols.size());
  for (size_t r = 0; r < distinct_rows.size(); ++r) {
    for (size_t i = 0; i < group_cols.size(); ++i) {
      key[i] = distinct_rows.At(r, group_cols[i]);
    }
    ++groups[key];
  }
  Relation out(group_cols.size() + 1);
  std::vector<Value> row;
  for (const auto& [g, count] : groups) {
    row.assign(g.begin(), g.end());
    row.push_back(count);
    out.Add(row);
  }
  return out;
}

Result<Relation> CountingEvaluate(const Database& db,
                                  const ConjunctiveQuery& q,
                                  const EvalContext& ctx,
                                  PlanStats* plan_stats) {
  PQ_FAULT_POINT("counting.plan");
  TraceSpan route_span(ctx.runtime.tracer, "route.counting");
  PQ_RETURN_NOT_OK(q.Validate());
  if (!q.answer.counting()) {
    return Status::InvalidArgument(
        "CountingEvaluate requires a counting query (AnswerSpec)");
  }
  const size_t ngroup = q.head.size();
  if (q.body.empty()) {
    // No relational atoms: exactly one (empty) assignment to the zero body
    // variables. Grouped counts cannot get here (their keys would be unsafe).
    Relation out(1);
    out.Add(std::vector<Value>{1});
    return out;
  }
  std::shared_ptr<PhysicalPlan> plan;
  if (ctx.plan_cache != nullptr) {
    // Cache route, exactly like the tuple evaluators: compile (or fetch) the
    // canonical query's plan. The signature carries the answer shape, so the
    // same text in tuple mode maps to a different entry; the output columns
    // are the canonical group keys, which occupy the same head positions as
    // the original's, so no answer re-mapping is needed.
    CanonicalCq canonical = CanonicalizeCq(q);
    std::string key = internal::StrCat(
        "cq-cnt:", PlannerCacheTag(ctx.planner), canonical.signature);
    plan = ctx.plan_cache->Lookup<PhysicalPlan>(key, db);
    if (plan == nullptr) {
      PQ_ASSIGN_OR_RETURN(PhysicalPlan built,
                          PlanCountingCq(db, canonical.query, ctx.planner));
      plan = std::make_shared<PhysicalPlan>(std::move(built));
      PQ_FAULT_POINT("counting.cache.insert");
      ctx.plan_cache->Insert(key, db, canonical.query, plan);
    }
  } else {
    PQ_ASSIGN_OR_RETURN(PhysicalPlan built,
                        PlanCountingCq(db, q, ctx.planner));
    plan = std::make_shared<PhysicalPlan>(std::move(built));
  }
  PQ_ASSIGN_OR_RETURN(
      NamedRelation root,
      ExecutePhysicalPlan(*plan, ctx.limits, plan_stats, ctx.runtime));
  if (ngroup == 0) {
    // Scalar COUNT(*): the root aggregate emits one [total] row, or none at
    // all on an empty query — the 0 row is supplied HERE, never inside the
    // plan, where it would poison an upstream SemijoinCount.
    if (root.arity() != 1 || root.size() > 1) {
      return Status::Internal("scalar counting plan produced a malformed root");
    }
    Relation out(1);
    out.Add(std::vector<Value>{root.empty() ? 0 : root.rel().At(0, 0)});
    return out;
  }
  // Grouped: the root's columns are already the group keys in head order
  // plus the trailing count (MakeAggregate preserves the planner's group
  // order). Sort by group for a canonical, thread-count-independent answer;
  // rows are distinct groups, so whole-row sorting cannot merge anything.
  if (root.arity() != ngroup + 1) {
    return Status::Internal("grouped counting plan produced a malformed root");
  }
  return SortAnswers(std::move(root.rel()), ctx.runtime);
}

}  // namespace paraquery
