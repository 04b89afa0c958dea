#include "eval/ucq.hpp"

#include <algorithm>
#include <bit>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/fault_injection.hpp"
#include "eval/acyclic.hpp"
#include "eval/common.hpp"
#include "eval/counting.hpp"
#include "obs/trace.hpp"
#include "eval/naive.hpp"
#include "relational/ops.hpp"

namespace paraquery {

// CanonicalCqSignature lives in plan/plan_cache.{hpp,cpp} now: the UCQ
// dedup and the program-wide plan cache share one notion of query identity.

Result<std::vector<ConjunctiveQuery>> ExpandDedupedDisjuncts(
    const PositiveQuery& q, uint64_t max_disjuncts, UcqStats* stats) {
  PQ_ASSIGN_OR_RETURN(auto cqs, q.ToUnionOfCqs(max_disjuncts));
  if (stats != nullptr) stats->disjuncts_expanded = cqs.size();
  std::unordered_set<std::string> seen;
  std::vector<ConjunctiveQuery> unique;
  unique.reserve(cqs.size());
  for (ConjunctiveQuery& cq : cqs) {
    if (seen.insert(CanonicalCqSignature(cq)).second) {
      unique.push_back(std::move(cq));
    } else if (stats != nullptr) {
      ++stats->disjuncts_deduped;
    }
  }
  return unique;
}

namespace {

// Disjuncts are comparison-free (positive formulas have no comparison
// atoms): each takes the Yannakakis route or the general plan.
bool YannakakisRoute(const ConjunctiveQuery& cq, const EvalContext& ctx) {
  const RouteDecision route = DecideRoute(cq, ctx.planner);
  return route.engine == EngineChoice::kAcyclic && !route.empty_body;
}

Result<Relation> EvaluateDisjunct(const Database& db,
                                  const ConjunctiveQuery& cq,
                                  const EvalContext& ctx, bool sort_output,
                                  UcqStats* stats, PlanStats* plan_stats) {
  PQ_RETURN_NOT_OK(ctx.runtime.CheckInterrupt());
  PQ_FAULT_POINT("ucq.disjunct");
  TraceSpan span(ctx.runtime.tracer, "disjunct");
  if (stats != nullptr) ++stats->disjuncts_evaluated;
  if (YannakakisRoute(cq, ctx)) {
    if (stats != nullptr) ++stats->acyclic_disjuncts;
    return AcyclicEvaluate(db, cq, ctx, plan_stats, sort_output);
  }
  if (stats != nullptr) ++stats->naive_disjuncts;
  return NaiveEvaluateCq(db, cq, ctx, plan_stats, sort_output);
}

Result<bool> DisjunctNonempty(const Database& db, const ConjunctiveQuery& cq,
                              const EvalContext& ctx, UcqStats* stats,
                              PlanStats* plan_stats) {
  PQ_RETURN_NOT_OK(ctx.runtime.CheckInterrupt());
  PQ_FAULT_POINT("ucq.disjunct");
  TraceSpan span(ctx.runtime.tracer, "disjunct");
  if (stats != nullptr) ++stats->disjuncts_evaluated;
  if (YannakakisRoute(cq, ctx)) {
    if (stats != nullptr) ++stats->acyclic_disjuncts;
    return AcyclicNonempty(db, cq, ctx, plan_stats);
  }
  if (stats != nullptr) ++stats->naive_disjuncts;
  // The backtracking decision search is inherently sequential; the runtime
  // binding is threaded for its abort polling (query_ctx), not for
  // parallelism — the runtime only parallelizes across disjuncts here.
  return NaiveCqNonempty(db, cq, ctx);
}

// One disjunct task's counters in a parallel fan-out.
struct DisjunctShare {
  UcqStats ucq;
  PlanStats plan;
};

// Folds the per-task shares (in disjunct order) into the caller's counters.
void MergeDisjunctShares(const std::vector<DisjunctShare>& shares,
                         UcqStats* stats, PlanStats* plan_stats) {
  if (plan_stats != nullptr) plan_stats->parallel_tasks += shares.size();
  for (const DisjunctShare& share : shares) {
    if (stats != nullptr) {
      stats->disjuncts_evaluated += share.ucq.disjuncts_evaluated;
      stats->acyclic_disjuncts += share.ucq.acyclic_disjuncts;
      stats->naive_disjuncts += share.ucq.naive_disjuncts;
    }
    if (plan_stats != nullptr) plan_stats->Merge(share.plan);
  }
}

// Concatenates the disjuncts' answers into one buffer (unsorted, with the
// duplicates shared between disjuncts), for the counting union.
Relation ConcatAnswers(const std::vector<Relation>& parts, size_t arity) {
  size_t rows = 0, values = 0;
  for (const Relation& part : parts) {
    rows += part.size();
    values += part.data().size();
  }
  std::vector<Value> out;
  out.reserve(values);
  for (const Relation& part : parts) {
    out.insert(out.end(), part.data().begin(), part.data().end());
  }
  return AnswerRelation(arity, rows, std::move(out));
}

// Evaluates every disjunct and returns the per-disjunct answer relations in
// disjunct order — one task per disjunct when a scheduler is bound (per-task
// stats merge and parts land in disjunct order after the barrier, so both
// the results and the counters match the sequential evaluation; the first
// error in disjunct order wins and cancels the remaining tasks). With
// `sort_parts` each part is sorted (SortAnswers) inside its own task.
Result<std::vector<Relation>> EvaluateAllDisjuncts(
    const Database& db, const std::vector<ConjunctiveQuery>& cqs,
    const EvalContext& ctx, bool sort_parts, UcqStats* stats,
    PlanStats* plan_stats) {
  std::vector<Relation> out;
  out.reserve(cqs.size());
  if (ctx.runtime.parallel() && cqs.size() > 1) {
    std::vector<std::optional<Result<Relation>>> parts(cqs.size());
    std::vector<DisjunctShare> shares(cqs.size());
    TaskGroup group(ctx.runtime.scheduler);
    for (size_t i = 0; i < cqs.size(); ++i) {
      group.Spawn([&, i] {
        parts[i].emplace(EvaluateDisjunct(db, cqs[i], ctx, sort_parts,
                                          &shares[i].ucq, &shares[i].plan));
        if (!parts[i]->ok()) group.Cancel();
      });
    }
    group.Wait();
    MergeDisjunctShares(shares, stats, plan_stats);
    for (const std::optional<Result<Relation>>& part : parts) {
      if (part.has_value()) PQ_RETURN_NOT_OK(part->status());
    }
    for (std::optional<Result<Relation>>& part : parts) {
      out.push_back(std::move(*part).value());
    }
    return out;
  }
  for (const ConjunctiveQuery& cq : cqs) {
    PQ_ASSIGN_OR_RETURN(Relation part, EvaluateDisjunct(db, cq, ctx, sort_parts,
                                                        stats, plan_stats));
    out.push_back(std::move(part));
  }
  return out;
}

}  // namespace

Result<Relation> EvaluatePositive(const Database& db, const PositiveQuery& q,
                                  const EvalContext& ctx,
                                  const UcqOptions& options, UcqStats* stats,
                                  PlanStats* plan_stats) {
  TraceSpan route_span(ctx.runtime.tracer, "route.ucq");
  PQ_ASSIGN_OR_RETURN(auto cqs,
                      ExpandDedupedDisjuncts(q, options.max_disjuncts, stats));
  PQ_ASSIGN_OR_RETURN(
      std::vector<Relation> parts,
      EvaluateAllDisjuncts(db, cqs, ctx, /*sort_parts=*/true, stats,
                           plan_stats));
  return MergeSortedAnswers(parts, q.fo().head.size(), ctx.runtime);
}

Result<Relation> EvaluatePositiveCount(const Database& db,
                                       const PositiveQuery& q,
                                       const EvalContext& ctx,
                                       const UcqOptions& options,
                                       UcqStats* stats, PlanStats* plan_stats) {
  TraceSpan route_span(ctx.runtime.tracer, "route.ucq_count");
  PQ_FAULT_POINT("ucq.count");
  const FirstOrderQuery& fo = q.fo();
  if (!fo.answer.counting()) {
    return Status::InvalidArgument(
        "EvaluatePositiveCount requires a counting query (AnswerSpec)");
  }
  // Enumeration form: the same formula answering the full free-variable
  // tuples, so every disjunct is evaluated exactly once, in tuples mode;
  // counting and grouping happen over the materialized answer sets.
  const std::vector<VarId> free_vars = fo.FreeVariables();
  FirstOrderQuery enum_fo = fo;
  enum_fo.answer = AnswerSpec::Tuples();
  enum_fo.head.clear();
  for (VarId v : free_vars) enum_fo.head.push_back(Term::Var(v));
  PQ_ASSIGN_OR_RETURN(PositiveQuery enum_q,
                      PositiveQuery::FromFirstOrder(std::move(enum_fo)));
  PQ_ASSIGN_OR_RETURN(
      auto cqs, ExpandDedupedDisjuncts(enum_q, options.max_disjuncts, stats));
  // Group-key positions within the free-variable tuple (Validate guarantees
  // every group key is free).
  std::vector<int> gcols;
  for (const Term& t : fo.head) {
    auto it = std::find(free_vars.begin(), free_vars.end(), t.var());
    if (it == free_vars.end()) {
      return Status::Internal("counting group key is not a free variable");
    }
    gcols.push_back(static_cast<int>(it - free_vars.begin()));
  }
  PQ_ASSIGN_OR_RETURN(
      std::vector<Relation> parts,
      EvaluateAllDisjuncts(db, cqs, ctx, /*sort_parts=*/false, stats,
                           plan_stats));
  const size_t n = parts.size();
  // Inclusion–exclusion over disjunct subsets: per group g,
  //   |∪ A_i restricted to g| = Σ_{∅≠S} (−1)^{|S|+1} |∩_{i∈S} A_i at g|.
  // Each A_i must be a SET for relational Intersect to compute the subset
  // terms exactly, but needs no order (the accumulator is keyed by group):
  // the unsorted per-disjunct answers are hash-deduplicated, not sorted.
  // Subsets run in increasing popcount order and any superset of an empty
  // intersection is pruned unvisited. Past the subset budget (or with
  // nothing to include-exclude over) the materialized union is counted
  // directly instead — identical answers, linear in the parts.
  constexpr size_t kMaxIeDisjuncts = 10;
  const ParallelForFn pfor = MakeParallelFor(ctx.runtime.scheduler);
  if (n >= 2 && n <= kMaxIeDisjuncts && !free_vars.empty()) {
    std::vector<AttrId> attrs(free_vars.size());
    for (size_t i = 0; i < attrs.size(); ++i) attrs[i] = static_cast<AttrId>(i);
    std::vector<NamedRelation> sets;
    sets.reserve(n);
    for (Relation& p : parts) {
      p.HashDedup(pfor);
      sets.emplace_back(attrs, std::move(p));
    }
    std::vector<uint32_t> masks;
    masks.reserve((1u << n) - 1);
    for (uint32_t m = 1; m < (1u << n); ++m) masks.push_back(m);
    std::stable_sort(masks.begin(), masks.end(), [](uint32_t a, uint32_t b) {
      return std::popcount(a) < std::popcount(b);
    });
    std::vector<uint32_t> empty_masks;
    // Per subset, the signed group counts of its intersection, as rows
    // (group values..., subset mask, signed count): distinct, because each
    // subset contributes one row per group. SumGroups adds them per group.
    // (Exact inclusion–exclusion leaves every nonempty group a positive
    // count.)
    Value total = 0;  // the scalar COUNT(*) accumulator
    std::vector<Value> terms;
    for (uint32_t m : masks) {
      PQ_RETURN_NOT_OK(ctx.runtime.CheckInterrupt());
      bool pruned = false;
      for (uint32_t e : empty_masks) {
        if ((m & e) == e) {
          pruned = true;
          break;
        }
      }
      if (pruned) {
        if (stats != nullptr) ++stats->ie_pruned;
        continue;
      }
      NamedRelation inter;
      bool first = true;
      for (size_t i = 0; i < n; ++i) {
        if ((m >> i & 1u) == 0) continue;
        inter = first ? sets[i] : Intersect(inter, sets[i]);
        first = false;
        if (inter.empty()) break;
      }
      if (stats != nullptr) ++stats->ie_subsets;
      if (inter.empty()) {
        empty_masks.push_back(m);
        continue;
      }
      const Value sign = (std::popcount(m) % 2 == 1) ? 1 : -1;
      if (gcols.empty()) {
        if (__builtin_add_overflow(
                total, sign * static_cast<Value>(inter.size()), &total)) {
          return Status::OutOfRange("count exceeds the signed 64-bit range");
        }
        continue;
      }
      const Relation counts = GroupCountRows(inter.rel(), gcols);
      for (size_t r = 0; r < counts.size(); ++r) {
        auto row = counts.Row(r);
        terms.insert(terms.end(), row.begin(), row.end() - 1);
        terms.push_back(static_cast<Value>(m));
        terms.push_back(sign * row.back());
      }
    }
    if (gcols.empty()) {
      Relation out(1);
      out.Add(std::vector<Value>{total});
      return out;
    }
    const size_t ngroup = gcols.size();
    std::vector<int> group_cols(ngroup);
    for (size_t i = 0; i < ngroup; ++i) group_cols[i] = static_cast<int>(i);
    return SumGroups(Relation(ngroup + 2, std::move(terms)), group_cols,
                     static_cast<int>(ngroup + 1), pfor);
  }
  // GroupCountRows orders the groups itself; the union only needs to be a
  // set.
  Relation all = ConcatAnswers(parts, free_vars.size());
  all.HashDedup(pfor);
  return GroupCountRows(all, gcols);
}

Result<bool> PositiveNonempty(const Database& db, const PositiveQuery& q,
                              const EvalContext& ctx,
                              const UcqOptions& options, UcqStats* stats,
                              PlanStats* plan_stats) {
  TraceSpan route_span(ctx.runtime.tracer, "route.ucq");
  PQ_ASSIGN_OR_RETURN(auto cqs,
                      ExpandDedupedDisjuncts(q, options.max_disjuncts, stats));
  if (ctx.runtime.parallel() && cqs.size() > 1) {
    // Concurrent disjunct decisions, cancelling on the first witness (a
    // true answer decides the union regardless of the other disjuncts, so
    // dropping unstarted tasks is the parallel analogue of the sequential
    // short-circuit). Errors do NOT cancel: every started disjunct reports,
    // and the resolution scan below picks the earliest decisive disjunct in
    // index order — the outcome a sequential evaluation would reach, except
    // that a disjunct skipped by a witness's cancellation is treated as
    // false (sequentially it might have errored first).
    std::vector<std::optional<Result<bool>>> parts(cqs.size());
    std::vector<DisjunctShare> shares(cqs.size());
    TaskGroup group(ctx.runtime.scheduler);
    for (size_t i = 0; i < cqs.size(); ++i) {
      group.Spawn([&, i] {
        parts[i].emplace(DisjunctNonempty(db, cqs[i], ctx, &shares[i].ucq,
                                          &shares[i].plan));
        if (parts[i]->ok() && parts[i]->value()) group.Cancel();
      });
    }
    group.Wait();
    MergeDisjunctShares(shares, stats, plan_stats);
    for (const std::optional<Result<bool>>& part : parts) {
      if (!part.has_value()) continue;  // cancelled before it ran
      PQ_RETURN_NOT_OK(part->status());
      if (part->value()) return true;
    }
    return false;
  }
  for (const ConjunctiveQuery& cq : cqs) {
    PQ_ASSIGN_OR_RETURN(bool nonempty,
                        DisjunctNonempty(db, cq, ctx, stats, plan_stats));
    if (nonempty) return true;
  }
  return false;
}

}  // namespace paraquery
