#include "eval/fo.hpp"

#include <algorithm>
#include <map>
#include <numeric>

#include "eval/common.hpp"
#include "relational/ops.hpp"

namespace paraquery {

namespace {

struct FoEval {
  const Database& db;
  const FirstOrderQuery& q;
  const RuntimeOptions& runtime;
  uint64_t max_rows;  // cap on any intermediate relation
  std::vector<Value> adom;
  std::map<int, NamedRelation> memo;  // node id -> result

  // Relation over `attrs` containing all adom tuples satisfying cmp.
  Result<NamedRelation> CompareRelation(const CompareAtom& cmp) {
    std::vector<AttrId> attrs;
    if (cmp.lhs.is_var()) attrs.push_back(cmp.lhs.var());
    if (cmp.rhs.is_var() && (!cmp.lhs.is_var() ||
                             cmp.rhs.var() != cmp.lhs.var())) {
      attrs.push_back(cmp.rhs.var());
    }
    if (attrs.empty()) {
      // Constant comparison: TRUE or FALSE.
      return CompareAtom::Apply(cmp.op, cmp.lhs.value(), cmp.rhs.value())
                 ? BooleanTrue()
                 : BooleanFalse();
    }
    PQ_ASSIGN_OR_RETURN(NamedRelation all,
                        DomainPower(attrs, adom, max_rows));
    Predicate pred;
    auto col = [&all](const Term& t) { return all.ColumnOf(t.var()); };
    if (cmp.lhs.is_var() && cmp.rhs.is_var()) {
      if (cmp.lhs.var() == cmp.rhs.var()) {
        // x op x.
        switch (cmp.op) {
          case CompareOp::kEq:
          case CompareOp::kLe:
            return all;  // always true
          case CompareOp::kNeq:
          case CompareOp::kLt:
            return NamedRelation{attrs};  // always false
        }
      }
      switch (cmp.op) {
        case CompareOp::kEq:
          pred.Add(Constraint::EqCols(col(cmp.lhs), col(cmp.rhs)));
          break;
        case CompareOp::kNeq:
          pred.Add(Constraint::NeqCols(col(cmp.lhs), col(cmp.rhs)));
          break;
        case CompareOp::kLt:
          pred.Add(Constraint::LtCols(col(cmp.lhs), col(cmp.rhs)));
          break;
        case CompareOp::kLe:
          pred.Add(Constraint::LeCols(col(cmp.lhs), col(cmp.rhs)));
          break;
      }
    } else {
      bool lhs_var = cmp.lhs.is_var();
      int c = col(lhs_var ? cmp.lhs : cmp.rhs);
      Value v = lhs_var ? cmp.rhs.value() : cmp.lhs.value();
      switch (cmp.op) {
        case CompareOp::kEq:
          pred.Add(Constraint::EqConst(c, v));
          break;
        case CompareOp::kNeq:
          pred.Add(Constraint::NeqConst(c, v));
          break;
        case CompareOp::kLt:
          pred.Add(lhs_var ? Constraint::LtConst(c, v)
                           : Constraint::GtConst(c, v));
          break;
        case CompareOp::kLe:
          pred.Add(lhs_var ? Constraint::LeConst(c, v)
                           : Constraint::GeConst(c, v));
          break;
      }
    }
    return Select(all, pred);
  }

  // Division: tuples t over attrs−{x} such that for EVERY value v in adom,
  // t extended with x=v belongs to `rel`. Requires x ∈ attrs(rel).
  Result<NamedRelation> Divide(const NamedRelation& rel, AttrId x) {
    int xcol = rel.ColumnOf(x);
    PQ_CHECK(xcol >= 0, "Divide: attribute missing");
    std::vector<AttrId> rest;
    for (AttrId a : rel.attrs()) {
      if (a != x) rest.push_back(a);
    }
    // Sort rows of `rel` reordered as (rest..., x) and count, per `rest`
    // group, how many distinct x values appear: keep the groups covering
    // the whole active domain.
    std::vector<AttrId> order = rest;
    order.push_back(x);
    // The group scan below needs lexicographic order, which Project's
    // hash-dedup does not provide — sort-dedup the raw projection instead.
    NamedRelation sorted = Project(rel, order, /*dedup=*/false);
    sorted.rel().SortAndDedup();
    NamedRelation out{rest};
    size_t n = sorted.size();
    size_t need = adom.size();
    size_t i = 0;
    size_t groups = 0;
    while (i < n) {
      // The group scan is the evaluator's longest uninterruptible stretch
      // (up to |adom|^arity rows): poll the abort state every ~1k groups.
      if ((++groups & 1023) == 0) {
        PQ_RETURN_NOT_OK(runtime.CheckInterrupt());
      }
      size_t j = i;
      auto same_group = [&](size_t a, size_t b) {
        for (size_t c = 0; c + 1 < order.size(); ++c) {
          if (sorted.rel().At(a, c) != sorted.rel().At(b, c)) return false;
        }
        return true;
      };
      while (j < n && same_group(i, j)) ++j;
      if (j - i == need) {
        ValueVec row(rest.size());
        for (size_t c = 0; c < rest.size(); ++c) {
          row[c] = sorted.rel().At(i, c);
        }
        out.rel().Add(row);
      }
      i = j;
    }
    return out;
  }

  Result<NamedRelation> Eval(int id) {
    // One poll per subformula: a deadline/cancel/memory abort stops the
    // recursion within one algebra operation.
    PQ_RETURN_NOT_OK(runtime.CheckInterrupt());
    auto it = memo.find(id);
    if (it != memo.end()) return it->second;
    using Kind = FirstOrderQuery::NodeKind;
    const auto& node = q.nodes[id];
    NamedRelation result;
    switch (node.kind) {
      case Kind::kAtom: {
        PQ_ASSIGN_OR_RETURN(result, AtomToRelation(db, q.atoms[node.atom]));
        break;
      }
      case Kind::kCompare: {
        PQ_ASSIGN_OR_RETURN(result, CompareRelation(node.compare));
        break;
      }
      case Kind::kAnd: {
        PQ_ASSIGN_OR_RETURN(result, Eval(node.children[0]));
        JoinOptions jo;
        jo.max_output_rows = max_rows;
        for (size_t i = 1; i < node.children.size(); ++i) {
          PQ_ASSIGN_OR_RETURN(NamedRelation next, Eval(node.children[i]));
          PQ_ASSIGN_OR_RETURN(result, NaturalJoin(result, next, jo));
        }
        break;
      }
      case Kind::kOr: {
        // Align all children to the union of their attribute sets by
        // padding with adom, then union.
        std::vector<NamedRelation> parts;
        std::vector<AttrId> all_attrs;
        for (int c : node.children) {
          PQ_ASSIGN_OR_RETURN(NamedRelation part, Eval(c));
          for (AttrId a : part.attrs()) {
            if (std::find(all_attrs.begin(), all_attrs.end(), a) ==
                all_attrs.end()) {
              all_attrs.push_back(a);
            }
          }
          parts.push_back(std::move(part));
        }
        bool first = true;
        for (NamedRelation& part : parts) {
          std::vector<AttrId> missing;
          for (AttrId a : all_attrs) {
            if (!part.HasAttr(a)) missing.push_back(a);
          }
          NamedRelation padded = std::move(part);
          if (!missing.empty()) {
            PQ_ASSIGN_OR_RETURN(NamedRelation pad,
                                DomainPower(missing, adom, max_rows));
            PQ_ASSIGN_OR_RETURN(padded,
                                CrossProduct(padded, pad, max_rows));
          }
          if (first) {
            result = std::move(padded);
            first = false;
          } else {
            result = UnionSet(result, padded);
          }
        }
        break;
      }
      case Kind::kNot: {
        PQ_ASSIGN_OR_RETURN(NamedRelation inner, Eval(node.children[0]));
        PQ_ASSIGN_OR_RETURN(result,
                            Complement(inner, adom, max_rows));
        break;
      }
      case Kind::kExists: {
        PQ_ASSIGN_OR_RETURN(NamedRelation inner, Eval(node.children[0]));
        std::vector<AttrId> keep;
        for (AttrId a : inner.attrs()) {
          if (std::find(node.bound.begin(), node.bound.end(), a) ==
              node.bound.end()) {
            keep.push_back(a);
          }
        }
        if (keep.size() == inner.attrs().size()) {
          // Bound variables do not occur: ∃x φ ≡ φ over a nonempty domain.
          result = std::move(inner);
        } else if (keep.empty() && inner.arity() > 0) {
          result = inner.empty() ? BooleanFalse() : BooleanTrue();
        } else {
          result = Project(inner, keep);
        }
        break;
      }
      case Kind::kForall: {
        PQ_ASSIGN_OR_RETURN(NamedRelation inner, Eval(node.children[0]));
        result = std::move(inner);
        for (VarId x : node.bound) {
          if (result.HasAttr(x)) {
            PQ_ASSIGN_OR_RETURN(result, Divide(result, x));
          }
          // ∀x φ with x not free in φ ≡ φ over a nonempty domain.
        }
        if (result.arity() == 0 && !result.empty()) result = BooleanTrue();
        break;
      }
    }
    // Exit poll: an abort raised DURING this node's own algebra work
    // (domain-power padding, complement, division sort) must surface here —
    // entry polls only observe aborts raised before the node started.
    PQ_RETURN_NOT_OK(runtime.CheckInterrupt());
    memo.emplace(id, result);
    return result;
  }
};

}  // namespace

Result<Relation> EvaluateFirstOrder(const Database& db,
                                    const FirstOrderQuery& q,
                                    const EvalContext& ctx,
                                    const FoOptions& options) {
  PQ_RETURN_NOT_OK(q.Validate());
  std::vector<Value> adom = db.ActiveDomain();
  if (adom.empty()) {
    return Status::InvalidArgument(
        "first-order evaluation requires a nonempty active domain");
  }
  const uint64_t max_rows =
      ctx.limits.max_rows != 0 ? ctx.limits.max_rows : options.max_rows;
  FoEval ev{db, q, ctx.runtime, max_rows, std::move(adom), {}};
  PQ_ASSIGN_OR_RETURN(NamedRelation root, ev.Eval(q.root));
  // Extend to head variables that are not free in the formula (they range
  // over the active domain).
  std::vector<AttrId> missing;
  for (const Term& t : q.head) {
    if (t.is_var() && !root.HasAttr(t.var())) {
      bool seen = std::find(missing.begin(), missing.end(), t.var()) !=
                  missing.end();
      if (!seen) missing.push_back(t.var());
    }
  }
  if (!missing.empty()) {
    PQ_ASSIGN_OR_RETURN(NamedRelation pad,
                        DomainPower(missing, ev.adom, max_rows));
    PQ_ASSIGN_OR_RETURN(root, CrossProduct(root, pad, max_rows));
  }
  // Final poll covers the head padding above (the last uninterruptible
  // stretch before answers are handed back).
  PQ_RETURN_NOT_OK(ctx.runtime.CheckInterrupt());
  return SortAnswers(
      BindingsToAnswers(std::move(root), q.head, /*sort_output=*/false),
      ctx.runtime);
}

Result<bool> FirstOrderNonempty(const Database& db, const FirstOrderQuery& q,
                                const EvalContext& ctx,
                                const FoOptions& options) {
  PQ_ASSIGN_OR_RETURN(Relation result,
                      EvaluateFirstOrder(db, q, ctx, options));
  return !result.empty();
}

}  // namespace paraquery
