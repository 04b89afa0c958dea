#include "eval/naive.hpp"

#include <algorithm>

#include "common/fault_injection.hpp"
#include "eval/common.hpp"
#include "obs/trace.hpp"
#include "plan/planner.hpp"
#include "relational/ops.hpp"
#include "relational/row_index.hpp"

namespace paraquery {

namespace {

// One depth of the backtracking search: an atom relation plus a hash index
// keyed on the columns whose variables are already bound when the search
// reaches this depth. With the static atom order, the bound-variable set at
// each depth is known up front, so each level probes its index instead of
// scanning the relation.
struct Level {
  std::vector<int> key_cols;    // columns probed via the index
  std::vector<VarId> key_vars;  // variable supplying each key column
  std::vector<int> free_cols;   // columns bound by this level
  std::vector<VarId> free_vars;
  RowIndex index;               // over atom_rels[depth], keyed on key_cols
  ValueVec key_scratch;         // probe key buffer (size = key_cols.size())
};

// Backtracking search state over atom relations.
struct Search {
  const ConjunctiveQuery& q;
  std::vector<NamedRelation> atom_rels;  // S_j per body atom
  std::vector<Level> levels;             // parallel to atom_rels
  std::vector<Value> binding;            // VarId -> value
  std::vector<bool> bound;
  uint64_t steps = 0;
  uint64_t max_steps = 0;
  bool stop_at_first = false;
  Status status = Status::OK();

  // Bindings accumulated for the full-evaluation mode.
  NamedRelation* out_bindings = nullptr;
  std::vector<VarId> out_vars;

  // Abort state of the running query (null = unhardened). Polled every
  // 1024 search steps, so deadline/cancel aborts interrupt even a search
  // whose step budget is off.
  const QueryContext* qc = nullptr;

  bool CompareOk(const CompareAtom& c) const {
    auto value_of = [this](const Term& t, Value* v) {
      if (t.is_const()) {
        *v = t.value();
        return true;
      }
      if (bound[t.var()]) {
        *v = binding[t.var()];
        return true;
      }
      return false;
    };
    Value a, b;
    if (!value_of(c.lhs, &a) || !value_of(c.rhs, &b)) return true;  // deferred
    return CompareAtom::Apply(c.op, a, b);
  }

  bool AllComparesOk() const {
    for (const CompareAtom& c : q.comparisons) {
      if (!CompareOk(c)) return false;
    }
    return true;
  }

  // Returns true when the search should stop (witness found in decision
  // mode, or abort).
  bool Dfs(size_t atom_idx) {
    ++steps;
    if (max_steps != 0 && steps > max_steps) {
      status = Status::ResourceExhausted("naive evaluation step limit");
      return true;
    }
    if ((steps & 1023) == 0 && qc != nullptr && qc->Aborted()) {
      status = qc->Check();
      return true;
    }
    if (atom_idx == atom_rels.size()) {
      if (out_bindings != nullptr) {
        ValueVec row(out_vars.size());
        for (size_t i = 0; i < out_vars.size(); ++i) {
          row[i] = binding[out_vars[i]];
        }
        out_bindings->rel().Add(row);
      }
      return stop_at_first;
    }
    Level& lvl = levels[atom_idx];
    const Relation& rel = atom_rels[atom_idx].rel();
    for (size_t i = 0; i < lvl.key_vars.size(); ++i) {
      lvl.key_scratch[i] = binding[lvl.key_vars[i]];
    }
    // The index chain enumerates exactly the rows agreeing with the current
    // binding on every already-bound variable of this atom; the remaining
    // columns carry fresh variables (distinct within the atom), so every
    // chained row extends the binding consistently.
    for (uint32_t r = lvl.index.Find(lvl.key_scratch); r != RowIndex::kNone;
         r = lvl.index.Next(r)) {
      for (size_t i = 0; i < lvl.free_cols.size(); ++i) {
        VarId var = lvl.free_vars[i];
        bound[var] = true;
        binding[var] = rel.At(r, lvl.free_cols[i]);
      }
      if (AllComparesOk() && Dfs(atom_idx + 1)) return true;
      for (VarId var : lvl.free_vars) bound[var] = false;
    }
    return false;
  }
};

Result<Search> Prepare(const Database& db, const ConjunctiveQuery& q,
                       const EvalContext& ctx, bool stop_at_first,
                       NamedRelation* out_bindings) {
  PQ_RETURN_NOT_OK(q.Validate());
  Search s{q, {}, {}, {}, {}, 0, ctx.limits.max_steps,
           stop_at_first, Status::OK(), out_bindings, {}};
  s.qc = ctx.runtime.query_ctx;
  // S_j per atom. Constant-free, repetition-free atoms come back as zero-copy
  // views over the stored relations (shared row blocks), so a query touching
  // the same relation k times holds one copy of its rows, not k. The
  // per-depth RowIndexes below borrow that shared storage; copy-on-write
  // keeps it stable for the lifetime of the search.
  for (const Atom& a : q.body) {
    PQ_ASSIGN_OR_RETURN(NamedRelation rel, AtomToRelation(db, a));
    s.atom_rels.push_back(std::move(rel));
  }
  // Static join order: the planner's greedy smallest-relation-first order
  // with bound-variable propagation (shared with PlanCyclicCq, so the
  // backtracking search and the plan executor explore atoms identically).
  {
    std::vector<NamedRelation>& rels = s.atom_rels;
    std::vector<size_t> order = GreedyAtomOrder(rels, q.NumVariables());
    std::vector<NamedRelation> ordered;
    ordered.reserve(rels.size());
    for (size_t i : order) ordered.push_back(std::move(rels[i]));
    rels = std::move(ordered);
  }
  // Per-depth indexes: with the order fixed, the variables bound before
  // depth d are exactly those of atoms 0..d-1, so each atom's columns split
  // statically into probe-key columns and freshly-bound columns.
  {
    std::vector<bool> bound_var(std::max(1, q.NumVariables()), false);
    s.levels.reserve(s.atom_rels.size());
    for (const NamedRelation& rel : s.atom_rels) {
      std::vector<int> key_cols, free_cols;
      std::vector<VarId> key_vars, free_vars;
      for (size_t c = 0; c < rel.attrs().size(); ++c) {
        VarId var = rel.attrs()[c];
        if (bound_var[var]) {
          key_cols.push_back(static_cast<int>(c));
          key_vars.push_back(var);
        } else {
          free_cols.push_back(static_cast<int>(c));
          free_vars.push_back(var);
          bound_var[var] = true;
        }
      }
      RowIndex index(rel.rel(), key_cols);
      ValueVec scratch(key_cols.size());
      s.levels.push_back(Level{std::move(key_cols), std::move(key_vars),
                               std::move(free_cols), std::move(free_vars),
                               std::move(index), std::move(scratch)});
    }
  }
  s.binding.assign(std::max(1, q.NumVariables()), 0);
  s.bound.assign(std::max(1, q.NumVariables()), false);
  return s;
}

}  // namespace

Result<Relation> NaiveEvaluateCq(const Database& db, const ConjunctiveQuery& q,
                                 const EvalContext& ctx, PlanStats* plan_stats,
                                 bool sort_output) {
  PQ_FAULT_POINT("naive.plan");
  TraceSpan route_span(ctx.runtime.tracer, "route.cyclic");
  std::vector<Term> head;
  PQ_ASSIGN_OR_RETURN(NamedRelation bindings,
                      ExecuteCachedPlan(db, q, ctx, "cq-cyc:", PlanCyclicCq,
                                        /*insert_fault=*/nullptr, plan_stats,
                                        &head));
  Relation answers =
      BindingsToAnswers(std::move(bindings), head, /*sort_output=*/false);
  if (!sort_output) return answers;
  return SortAnswers(std::move(answers), ctx.runtime);
}

Result<Relation> BacktrackEvaluateCq(const Database& db,
                                     const ConjunctiveQuery& q,
                                     const EvalContext& ctx) {
  TraceSpan route_span(ctx.runtime.tracer, "route.backtrack");
  NamedRelation bindings{q.HeadVariables()};
  PQ_ASSIGN_OR_RETURN(
      Search s, Prepare(db, q, ctx, /*stop_at_first=*/false, &bindings));
  s.out_vars = q.HeadVariables();
  // Constant/constant comparisons may already refute the query.
  if (!s.AllComparesOk()) return Relation(q.head.size());
  s.Dfs(0);
  PQ_RETURN_NOT_OK(s.status);
  bindings.rel().HashDedup();
  return BindingsToAnswers(std::move(bindings), q.head);
}

Result<bool> NaiveCqNonempty(const Database& db, const ConjunctiveQuery& q,
                             const EvalContext& ctx) {
  TraceSpan route_span(ctx.runtime.tracer, "route.backtrack");
  PQ_ASSIGN_OR_RETURN(
      Search s, Prepare(db, q, ctx, /*stop_at_first=*/true, nullptr));
  if (!s.AllComparesOk()) return false;
  bool found = s.Dfs(0);
  PQ_RETURN_NOT_OK(s.status);
  return found;
}

Result<bool> NaiveCqContains(const Database& db, const ConjunctiveQuery& q,
                             const std::vector<Value>& tuple,
                             const EvalContext& ctx) {
  if (tuple.size() != q.head.size()) {
    return Status::InvalidArgument("tuple arity does not match query head");
  }
  return NaiveCqNonempty(db, q.BindHead(tuple), ctx);
}

}  // namespace paraquery
