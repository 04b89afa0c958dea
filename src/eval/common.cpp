#include "eval/common.hpp"

#include <algorithm>

#include "common/fault_injection.hpp"
#include "common/timer.hpp"
#include "obs/analyze.hpp"
#include "obs/trace.hpp"
#include "relational/ops.hpp"

namespace paraquery {

namespace {

// Builds a constraint over the *projected* relation (columns = distinct
// variables) for a comparison atom. Variables must be present.
Result<Constraint> FilterToConstraint(const NamedRelation& projected,
                                      const CompareAtom& cmp) {
  auto col_of = [&projected](const Term& t) -> int {
    return t.is_var() ? projected.ColumnOf(t.var()) : -1;
  };
  bool lv = cmp.lhs.is_var(), rv = cmp.rhs.is_var();
  if (lv && rv) {
    int a = col_of(cmp.lhs), b = col_of(cmp.rhs);
    if (a < 0 || b < 0) {
      return Status::InvalidArgument(
          "filter variable does not occur in the atom");
    }
    switch (cmp.op) {
      case CompareOp::kNeq:
        return Constraint::NeqCols(a, b);
      case CompareOp::kLt:
        return Constraint::LtCols(a, b);
      case CompareOp::kLe:
        return Constraint::LeCols(a, b);
      case CompareOp::kEq:
        return Constraint::EqCols(a, b);
    }
  }
  if (lv != rv) {
    // Normalize to var OP const.
    Term var = lv ? cmp.lhs : cmp.rhs;
    Value c = lv ? cmp.rhs.value() : cmp.lhs.value();
    int col = col_of(var);
    if (col < 0) {
      return Status::InvalidArgument(
          "filter variable does not occur in the atom");
    }
    CompareOp op = cmp.op;
    if (!lv) {
      // c OP x  ->  x OP' c with the mirrored operator.
      if (op == CompareOp::kLt) {
        return Constraint::GtConst(col, c);
      }
      if (op == CompareOp::kLe) {
        return Constraint::GeConst(col, c);
      }
    }
    switch (op) {
      case CompareOp::kNeq:
        return Constraint::NeqConst(col, c);
      case CompareOp::kLt:
        return Constraint::LtConst(col, c);
      case CompareOp::kLe:
        return Constraint::LeConst(col, c);
      case CompareOp::kEq:
        return Constraint::EqConst(col, c);
    }
  }
  return Status::InvalidArgument(
      "constant/constant comparison cannot be pushed into an atom");
}

}  // namespace

bool ComparisonWithin(const CompareAtom& cmp,
                      const std::vector<VarId>& atom_vars) {
  auto in = [&atom_vars](const Term& t) {
    return t.is_const() || std::find(atom_vars.begin(), atom_vars.end(),
                                     t.var()) != atom_vars.end();
  };
  // At least one side must be a variable of the atom for pushing to make
  // sense; constant/constant pairs are resolved by the caller.
  if (cmp.lhs.is_const() && cmp.rhs.is_const()) return false;
  return in(cmp.lhs) && in(cmp.rhs);
}

Result<NamedRelation> AtomToRelation(const Relation& rel, const Atom& atom,
                                     const std::vector<CompareAtom>& filters) {
  if (rel.arity() != atom.terms.size()) {
    return Status::InvalidArgument(internal::StrCat(
        "atom ", atom.relation, "/", atom.terms.size(),
        " does not match stored arity ", rel.arity()));
  }
  // Selection on raw positions: constants and repeated variables.
  Predicate raw;
  std::vector<VarId> vars;       // distinct, first-occurrence order
  std::vector<int> first_col;    // column of first occurrence
  for (size_t i = 0; i < atom.terms.size(); ++i) {
    const Term& t = atom.terms[i];
    if (t.is_const()) {
      raw.Add(Constraint::EqConst(static_cast<int>(i), t.value()));
      continue;
    }
    auto it = std::find(vars.begin(), vars.end(), t.var());
    if (it == vars.end()) {
      vars.push_back(t.var());
      first_col.push_back(static_cast<int>(i));
    } else {
      raw.Add(Constraint::EqCols(first_col[it - vars.begin()],
                                 static_cast<int>(i)));
    }
  }
  // Fast path: no constants, no repeated variables, no filters — S_j is the
  // base relation itself under variable labels, a zero-copy view over the
  // stored rows. HashDedup keeps that storage when it is duplicate-free and
  // otherwise adopts the set form cached on it: one hash pass per stored
  // block, shared by every plan, query and engine that reads it.
  if (raw.empty() && vars.size() == atom.terms.size() && filters.empty()) {
    NamedRelation view{vars, rel};
    view.rel().HashDedup();
    return view;
  }
  // Select and project in one scan.
  NamedRelation out{vars};
  out.rel().Reserve(rel.size());
  ValueVec row(vars.size());
  for (size_t r = 0; r < rel.size(); ++r) {
    auto raw_row = rel.Row(r);
    if (!raw.Eval(raw_row)) continue;
    for (size_t i = 0; i < vars.size(); ++i) row[i] = raw_row[first_col[i]];
    out.rel().Add(row);
  }
  if (!filters.empty()) {
    Predicate post;
    for (const CompareAtom& cmp : filters) {
      PQ_ASSIGN_OR_RETURN(Constraint c, FilterToConstraint(out, cmp));
      post.Add(c);
    }
    out = Select(out, post);
  }
  // Set semantics only: evaluators probe S_j through hash indexes, so the
  // sorted order a SortAndDedup would impose is never exploited.
  out.rel().HashDedup();
  return out;
}

Result<NamedRelation> AtomToRelation(const Database& db, const Atom& atom,
                                     const std::vector<CompareAtom>& filters) {
  PQ_ASSIGN_OR_RETURN(RelId id, db.FindRelation(atom.relation));
  return AtomToRelation(db.relation(id), atom, filters);
}

namespace {

// Appends the answer tuples of `bindings` through `head` to the row-major
// buffer `out` (unsorted).
void AppendAnswers(const NamedRelation& bindings,
                   const std::vector<Term>& head, std::vector<Value>& out) {
  const size_t k = head.size();
  std::vector<int> cols(k, -1);
  for (size_t i = 0; i < k; ++i) {
    if (head[i].is_var()) {
      cols[i] = bindings.ColumnOf(head[i].var());
      PQ_CHECK(cols[i] >= 0, "BindingsToAnswers: head variable not bound");
    }
  }
  const size_t n = bindings.size();
  const Relation& in = bindings.rel();
  size_t pos = out.size();
  out.resize(pos + n * k);
  for (size_t r = 0; r < n; ++r) {
    for (size_t i = 0; i < k; ++i) {
      out[pos++] = cols[i] >= 0 ? in.At(r, cols[i]) : head[i].value();
    }
  }
}

}  // namespace

Relation AnswerRelation(size_t arity, size_t rows, std::vector<Value> values) {
  if (arity > 0 && rows > 0) return Relation(arity, std::move(values));
  Relation out(arity);
  if (rows > 0) out.AddEmptyRow();  // arity 0: "true"
  return out;
}

Relation BindingsToAnswers(NamedRelation bindings,
                           const std::vector<Term>& head, bool sort_output) {
  bool identity = !head.empty() && head.size() == bindings.arity();
  for (size_t i = 0; identity && i < head.size(); ++i) {
    identity = head[i].is_var() && head[i].var() == bindings.attrs()[i];
  }
  Relation out(head.size());
  if (identity) {
    out = std::move(bindings.rel());
  } else {
    std::vector<Value> values;
    AppendAnswers(bindings, head, values);
    out = AnswerRelation(head.size(), bindings.size(), std::move(values));
  }
  if (sort_output) out.SortAndDedup();
  return out;
}

namespace {

// Runs `sort` (which returns the sorted answers), timing it as the answer
// sort when EXPLAIN ANALYZE or a tracer is armed.
template <typename SortFn>
Relation TimedAnswerSort(const RuntimeOptions& runtime, const SortFn& sort) {
  if (runtime.tracer == nullptr && runtime.analyze == nullptr) return sort();
  const uint64_t t0 = NowNanos();
  Relation out = sort();
  const uint64_t t1 = NowNanos();
  if (runtime.tracer != nullptr) runtime.tracer->Record("answer.sort", t0, t1);
  if (runtime.analyze != nullptr) runtime.analyze->NoteAnswerSort(t1 - t0);
  return out;
}

}  // namespace

Relation SortAnswers(Relation answers, const RuntimeOptions& runtime) {
  return TimedAnswerSort(runtime, [&answers, &runtime] {
    answers.SortAndDedup(MakeParallelFor(runtime.scheduler));
    return std::move(answers);
  });
}

namespace {

// Merges two sorted, duplicate-free row buffers of `arity` columns into one
// sorted, duplicate-free buffer: a row both hold is kept once. The output is
// reserved, not sized, so it is written once (no zero-fill pass first);
// per-value push_back beats a per-row range insert here.
std::vector<Value> MergeTwo(const std::vector<Value>& a,
                            const std::vector<Value>& b, size_t arity) {
  std::vector<Value> out;
  out.reserve(a.size() + b.size());
  const Value *pa = a.data(), *ea = pa + a.size();
  const Value *pb = b.data(), *eb = pb + b.size();
  auto take = [&out, arity](const Value*& p) {
    for (size_t i = 0; i < arity; ++i) out.push_back(p[i]);
    p += arity;
  };
  while (pa != ea && pb != eb) {
    size_t i = 0;
    while (i < arity && pa[i] == pb[i]) ++i;
    if (i == arity) {  // in both: keep one
      take(pa);
      pb += arity;
    } else if (pa[i] < pb[i]) {
      take(pa);
    } else {
      take(pb);
    }
  }
  out.insert(out.end(), pa, ea);
  out.insert(out.end(), pb, eb);
  return out;
}

}  // namespace

Relation MergeSortedAnswers(const std::vector<Relation>& parts, size_t arity,
                            const RuntimeOptions& runtime) {
  return TimedAnswerSort(runtime, [&parts, arity] {
    std::vector<const Relation*> live;
    for (const Relation& p : parts) {
      if (!p.empty()) live.push_back(&p);
    }
    if (live.size() == 1) return *live[0];  // shares the sorted storage
    if (arity == 0 || live.empty()) {
      Relation out = AnswerRelation(arity, live.size(), {});
      out.MarkSorted();
      return out;
    }
    // A balanced tree of two-way merges: every row is copied about log2(k)
    // times, once for the usual two disjuncts.
    std::vector<std::vector<Value>> runs;
    for (size_t i = 0; i + 1 < live.size(); i += 2) {
      runs.push_back(MergeTwo(live[i]->data(), live[i + 1]->data(), arity));
    }
    if (live.size() % 2 == 1) runs.push_back(live.back()->data());
    while (runs.size() > 1) {
      std::vector<std::vector<Value>> next;
      for (size_t i = 0; i + 1 < runs.size(); i += 2) {
        next.push_back(MergeTwo(runs[i], runs[i + 1], arity));
      }
      if (runs.size() % 2 == 1) next.push_back(std::move(runs.back()));
      runs = std::move(next);
    }
    Relation merged(arity, std::move(runs[0]));
    merged.MarkSorted();
    return merged;
  });
}

Result<NamedRelation> ExecuteCachedPlan(const Database& db,
                                        const ConjunctiveQuery& q,
                                        const EvalContext& ctx,
                                        const char* key_prefix,
                                        CqPlanner plan_cq,
                                        const char* insert_fault,
                                        PlanStats* plan_stats,
                                        std::vector<Term>* head_out) {
  std::shared_ptr<PhysicalPlan> plan;
  CanonicalCq canonical;
  std::string key;
  if (ctx.plan_cache != nullptr) {
    canonical = CanonicalizeCq(q);
    key = internal::StrCat(key_prefix, PlannerCacheTag(ctx.planner),
                           canonical.signature);
    plan = ctx.plan_cache->Lookup<PhysicalPlan>(key, db);
  }
  const ConjunctiveQuery& planned =
      ctx.plan_cache != nullptr ? canonical.query : q;
  if (plan == nullptr) {
    PQ_ASSIGN_OR_RETURN(PhysicalPlan built, plan_cq(db, planned, ctx.planner));
    plan = std::make_shared<PhysicalPlan>(std::move(built));
    if (ctx.plan_cache != nullptr) {
      if (insert_fault != nullptr) PQ_FAULT_POINT(insert_fault);
      ctx.plan_cache->Insert(key, db, canonical.query, plan);
    }
  }
  if (head_out != nullptr) *head_out = planned.head;
  return ExecutePhysicalPlan(*plan, ctx.limits, plan_stats, ctx.runtime);
}

}  // namespace paraquery
