#include "eval/counting.hpp"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "common/fault_injection.hpp"
#include "eval/common.hpp"
#include "obs/trace.hpp"
#include "plan/executor.hpp"
#include "plan/planner.hpp"
#include "relational/row_index.hpp"
#include "relational/row_sort.hpp"

namespace paraquery {

namespace {

Status CountOverflow() {
  return Status::OutOfRange("count exceeds the signed 64-bit range");
}

}  // namespace

Result<Relation> SumGroups(const Relation& rows,
                           const std::vector<int>& group_cols, int weight_col,
                           const ParallelForFn& pfor) {
  const size_t n = rows.size(), arity = rows.arity(), ngroup = group_cols.size();
  PQ_CHECK(ngroup > 0, "SumGroups requires a group column");
  const Value* data = rows.data().data();
  std::vector<Value> out;
  if (ngroup == 1) {
    const KeyRange range(rows, group_cols[0]);
    if (range.DenseForCounts(n)) {
      std::vector<Value> sums(range.slots(), 0);
      uint64_t off = 0;
      for (size_t r = 0; r < n; ++r) {
        range.Offset(data[r * arity + group_cols[0]], &off);
        const Value w = weight_col < 0 ? 1 : data[r * arity + weight_col];
        if (__builtin_add_overflow(sums[off], w, &sums[off])) {
          return CountOverflow();
        }
      }
      for (size_t i = 0; i < sums.size(); ++i) {
        if (sums[i] == 0) continue;
        out.push_back(range.ValueAt(i));
        out.push_back(sums[i]);
      }
      return Relation(2, std::move(out));
    }
  }
  // Sort the rows with the group columns first (the rest follow, so the
  // distinct rows stay distinct), then sum each run of equal groups.
  std::vector<int> perm = group_cols;
  for (size_t c = 0; c < arity; ++c) {
    if (std::find(group_cols.begin(), group_cols.end(), static_cast<int>(c)) ==
        group_cols.end()) {
      perm.push_back(static_cast<int>(c));
    }
  }
  const size_t width = perm.size();
  std::vector<Value> sorted(n * width);
  for (size_t r = 0; r < n; ++r) {
    for (size_t i = 0; i < width; ++i) {
      sorted[r * width + i] = data[r * arity + perm[i]];
    }
  }
  SortDedupRows(sorted, width, pfor);
  const size_t wpos =
      weight_col < 0
          ? 0
          : static_cast<size_t>(std::find(perm.begin(), perm.end(), weight_col) -
                                perm.begin());
  const size_t m = sorted.size() / width;
  for (size_t r = 0; r < m;) {
    const Value* g = sorted.data() + r * width;
    Value sum = 0;
    for (; r < m && std::equal(g, g + ngroup, sorted.data() + r * width); ++r) {
      const Value w = weight_col < 0 ? 1 : sorted[r * width + wpos];
      if (__builtin_add_overflow(sum, w, &sum)) return CountOverflow();
    }
    if (sum == 0) continue;
    out.insert(out.end(), g, g + ngroup);
    out.push_back(sum);
  }
  return Relation(ngroup + 1, std::move(out));
}

Relation GroupCountRows(const Relation& distinct_rows,
                        const std::vector<int>& group_cols) {
  if (group_cols.empty()) {
    Relation out(1);
    out.Add(std::vector<Value>{static_cast<Value>(distinct_rows.size())});
    return out;
  }
  // A group's count is at most the row count: the sums cannot overflow.
  return SumGroups(distinct_rows, group_cols, -1).ValueOrDie();
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
  // The output columns are the canonical group keys, which occupy the same
  // head positions as the original's: no answer re-mapping is needed.
  PQ_ASSIGN_OR_RETURN(NamedRelation root,
                      ExecuteCachedPlan(db, q, ctx, "cq-cnt:", PlanCountingCq,
                                        "counting.cache.insert", plan_stats));
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
