#include "plan/route.hpp"

#include "hypergraph/gyo.hpp"
#include "plan/planner.hpp"
#include "query/comparison_closure.hpp"

namespace paraquery {

const char* EngineChoiceName(EngineChoice engine) {
  switch (engine) {
    case EngineChoice::kAcyclic:
      return "acyclic (Yannakakis)";
    case EngineChoice::kInequality:
      return "acyclic+inequality (Theorem 2 color coding)";
    case EngineChoice::kNaive:
      return "general join plan (hypertree multiway joins or join chain)";
    case EngineChoice::kUcq:
      return "union-of-CQs expansion";
    case EngineChoice::kFo:
      return "active-domain relational calculus";
    case EngineChoice::kDatalog:
      return "semi-naive fixpoint";
    case EngineChoice::kCounting:
      return "counting (Yannakakis multiplicity folding / "
             "enumerate-then-aggregate)";
  }
  return "?";
}

RouteDecision DecideRoute(const ConjunctiveQuery& q,
                          const PlannerOptions& planner, bool closure) {
  RouteDecision d;
  d.counting = q.answer.counting();
  if (closure && q.HasComparisons() &&
      (!q.HasOnlyInequalities() || q.body.empty())) {
    Result<ComparisonClosure> collapsed = CollapseComparisons(q);
    // The collapse is count-preserving (merging equal variables bijects the
    // satisfying assignments), but it can merge or constant-fold a group
    // key; such a count runs over the query as written.
    if (collapsed.ok() && !collapsed.value().consistent) {
      d.inconsistent = true;
    } else if (collapsed.ok() &&
               (!d.counting || collapsed.value().rewritten.Validate().ok())) {
      d.rewritten = std::move(collapsed).value().rewritten;
    }
  }
  const ConjunctiveQuery& e = d.query(q);
  d.empty_body = e.body.empty();
  d.comparison_free = !e.HasComparisons();
  d.neq_only = !d.comparison_free && e.HasOnlyInequalities();
  Hypergraph h = e.BuildHypergraph();
  d.acyclic = IsAcyclic(h);
  bool atoms_have_variables = true;
  for (size_t i = 0; i < h.num_edges(); ++i) {
    atoms_have_variables &= !h.edge(static_cast<int>(i)).empty();
  }
  d.wcoj = planner.wcoj && d.comparison_free && !d.acyclic &&
           e.body.size() >= 3 && atoms_have_variables;
  const bool yannakakis = d.acyclic && d.comparison_free;

  if (d.counting) {
    d.engine = EngineChoice::kCounting;
    d.reason =
        d.inconsistent ? "empty count: inconsistent comparisons (Klug)"
        : d.empty_body ? "constant count: no relational atoms"
        : yannakakis   ? "counting Yannakakis: full acyclic COUNT (FP; "
                         "Pichler-Skritek, Chen-Mengel)"
        : d.wcoj ? "counting over a hypertree decomposition (multiway "
                   "joins in cyclic bags): cyclic comparison-free COUNT "
                   "(poly(n^ghw))"
                 : "enumerate, then count at the root: COUNT with "
                   "comparisons or outside the WCOJ gate";
    return d;
  }
  d.engine = d.inconsistent               ? EngineChoice::kNaive
             : d.empty_body || yannakakis ? EngineChoice::kAcyclic
             : d.acyclic && d.neq_only    ? EngineChoice::kInequality
                                          : EngineChoice::kNaive;
  if (d.engine == EngineChoice::kAcyclic && !d.empty_body) {
    // Free-connex: still acyclic with an atom over the head variables.
    h.AddEdge(e.HeadVariables());
  }
  d.reason =
      d.inconsistent ? "empty answer: inconsistent comparisons (Klug)"
      : d.empty_body ? "constant answer: no relational atoms"
      : yannakakis
          ? (IsAcyclic(h) ? "Yannakakis: acyclic, free-connex (linear; "
                            "Durand-Grandjean)"
                          : "Yannakakis: acyclic, not free-connex (PTIME; "
                            "Yannakakis 1981)")
      : d.engine == EngineChoice::kInequality
          ? "Theorem 2 color coding: acyclic with != only (FPT)"
      : d.wcoj ? "hypertree decomposition, multiway joins in cyclic bags: "
                 "cyclic, comparison-free (Theorem 1: W[1]-complete)"
      : d.comparison_free ? "left-deep join chain: cyclic, outside the WCOJ "
                            "gate (Theorem 1: W[1]-complete)"
      : d.acyclic ? "left-deep join chain with selections: acyclic with "
                    "order comparisons (Theorem 3: W[1]-complete)"
                  : "left-deep join chain with selections: cyclic with "
                    "comparisons (Theorem 1: W[1]-complete)";
  return d;
}

RouteDecision DecideRoute(const PositiveQuery& q) {
  const bool counting = q.fo().answer.counting();
  return {.engine = EngineChoice::kUcq,
          .reason = counting ? "union of CQs counted by inclusion-exclusion "
                               "(Theorem 1: positive queries)"
                             : "union of CQs, each disjunct routed on its own "
                               "(Theorem 1: positive queries)",
          .counting = counting};
}

RouteDecision DecideRoute(const FirstOrderQuery& q) {
  return {.engine = EngineChoice::kFo,
          .reason = "active-domain relational algebra (Theorem 1: "
                    "first-order queries)",
          .counting = q.answer.counting()};
}

RouteDecision DecideRoute(const DatalogProgram&) {
  return {.engine = EngineChoice::kDatalog,
          .reason = "semi-naive fixpoint over cached rule plans (Section 4: "
                    "Datalog)"};
}

}  // namespace paraquery
