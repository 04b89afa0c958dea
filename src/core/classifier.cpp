#include "core/classifier.hpp"

#include <sstream>

namespace paraquery {

const char* QueryLanguageName(QueryLanguage lang) {
  switch (lang) {
    case QueryLanguage::kConjunctive:
      return "conjunctive";
    case QueryLanguage::kPositive:
      return "positive";
    case QueryLanguage::kFirstOrder:
      return "first-order";
    case QueryLanguage::kDatalog:
      return "Datalog";
  }
  return "?";
}

Classification ClassifyConjunctive(const ConjunctiveQuery& q,
                                   const PlannerOptions& planner) {
  return ClassifyConjunctive(q, DecideRoute(q, planner));
}

Classification ClassifyConjunctive(const ConjunctiveQuery& q,
                                   const RouteDecision& route) {
  const ConjunctiveQuery& e = route.query(q);
  Classification c;
  c.language = QueryLanguage::kConjunctive;
  c.q = e.QuerySize();
  c.v = e.NumVariables();
  c.acyclic = route.acyclic;
  c.has_inequalities = route.neq_only;
  c.has_order = e.HasOrderComparisons();
  c.engine = route.engine;
  c.route = route.reason;
  if (route.acyclic && route.comparison_free) {
    c.fixed_parameter_tractable = true;
    c.class_under_q = "PTIME (combined complexity)";
    c.class_under_v = "PTIME (combined complexity)";
    c.basis = "Yannakakis 1981; cited as the classical acyclic tractability";
  } else if (route.acyclic && route.neq_only) {
    c.fixed_parameter_tractable = true;
    c.class_under_q = "FPT: O(g(q) * n log n)";
    c.class_under_v = "FPT: O(2^{O(v log v)} * q * n log n)";
    c.basis = "Theorem 2 (acyclic conjunctive queries with !=)";
  } else if (route.acyclic) {
    c.fixed_parameter_tractable = false;
    c.class_under_q = "W[1]-complete";
    c.class_under_v = "W[1]-complete";
    c.basis = "Theorem 3 (acyclic conjunctive queries with comparisons)";
  } else {
    c.fixed_parameter_tractable = false;
    c.class_under_q = "W[1]-complete";
    c.class_under_v = "W[1]-complete";
    c.basis = "Theorem 1, row 1 (conjunctive queries)";
  }
  if (route.counting) {
    // The decision classification above still governs; counting adds its
    // own verdict. These are FULL counts (every body variable is either a
    // group key or counted — nothing is projected away before counting),
    // the tractable side of the counting trichotomy.
    c.counting = true;
    if (route.acyclic && route.comparison_free) {
      c.counting_class =
          "FP: counting Yannakakis, poly(n) without materializing the join "
          "(full acyclic #CQ; Pichler-Skritek / Chen-Mengel trichotomy)";
    } else if (route.comparison_free) {
      c.counting_class =
          "poly(n^{ghw}): multiplicity folding over the hypertree "
          "decomposition (bounded generalized hypertree width)";
    } else {
      c.counting_class =
          "enumeration-bound: distinct assignments enumerated under the "
          "decision class above, then aggregated";
    }
  }
  return c;
}

namespace {

bool IsPrenexPositive(const FirstOrderQuery& fo) {
  if (fo.root < 0) return false;
  const auto& root = fo.nodes[fo.root];
  if (root.kind != FirstOrderQuery::NodeKind::kExists) return false;
  std::vector<int> stack = {root.children[0]};
  while (!stack.empty()) {
    const auto& n = fo.nodes[stack.back()];
    stack.pop_back();
    if (n.kind == FirstOrderQuery::NodeKind::kExists ||
        n.kind == FirstOrderQuery::NodeKind::kForall) {
      return false;
    }
    for (int c : n.children) stack.push_back(c);
  }
  return true;
}

void SetRoute(const RouteDecision& route, Classification* c) {
  c->engine = route.engine;
  c->route = route.reason;
}

}  // namespace

Classification ClassifyPositive(const PositiveQuery& q) {
  Classification c;
  c.language = QueryLanguage::kPositive;
  c.q = q.QuerySize();
  c.v = q.NumVariables();
  c.prenex = IsPrenexPositive(q.fo());
  c.fixed_parameter_tractable = false;
  c.class_under_q = "W[1]-complete";
  c.class_under_v =
      c.prenex ? "W[SAT]-complete (prenex)" : "W[SAT]-hard";
  c.basis = "Theorem 1, row 2 (positive queries)";
  SetRoute(DecideRoute(q), &c);
  if (q.fo().answer.counting()) {
    c.counting = true;
    c.counting_class =
        "union counted by inclusion-exclusion over disjunct subsets (each "
        "deduplicated disjunct evaluated once; the union itself is never "
        "materialized)";
  }
  return c;
}

Classification ClassifyFirstOrder(const FirstOrderQuery& q) {
  Classification c;
  c.language = QueryLanguage::kFirstOrder;
  c.q = q.QuerySize();
  c.v = q.NumVariables();
  if (q.IsPositive()) {
    auto pos = PositiveQuery::FromFirstOrder(q);
    if (pos.ok()) return ClassifyPositive(pos.value());
  }
  c.fixed_parameter_tractable = false;
  c.class_under_q = "W[t]-hard for all t (AW[*]-complete per Downey-Fellows-Taylor)";
  c.class_under_v = "W[P]-hard (AW[P]-hard with alternation)";
  c.basis = "Theorem 1, row 3 (first-order queries)";
  SetRoute(DecideRoute(q), &c);
  if (q.answer.counting()) {
    c.counting = true;
    c.counting_class =
        "active-domain enumeration of free-variable assignments, then "
        "group-count (no counting shortcut for general first-order queries)";
  }
  return c;
}

Classification ClassifyDatalog(const DatalogProgram& p) {
  Classification c;
  c.language = QueryLanguage::kDatalog;
  c.q = p.QuerySize();
  c.v = p.MaxRuleVariables();
  c.max_idb_arity = p.MaxIdbArity();
  c.fixed_parameter_tractable = false;
  // The bounded-arity remark of Section 4.
  std::ostringstream basis;
  if (c.max_idb_arity <= 2) {
    c.class_under_q = "W[1]-complete (bounded-arity Datalog)";
    c.class_under_v = "W[1]-complete (bounded-arity Datalog)";
    basis << "Section 4 remark: fixed-arity Datalog is in W[1]";
  } else {
    c.class_under_q =
        "query size provably in the exponent for unbounded arity (Vardi)";
    c.class_under_v = c.class_under_q;
    basis << "Section 4: Vardi's lower bound for fixpoint/Datalog";
  }
  c.basis = basis.str();
  SetRoute(DecideRoute(p), &c);
  return c;
}

std::string Classification::ToString() const {
  std::ostringstream oss;
  oss << "language: " << QueryLanguageName(language) << "\n";
  oss << "q (query size): " << q << ", v (variables): " << v << "\n";
  if (language == QueryLanguage::kConjunctive) {
    oss << "acyclic: " << (acyclic ? "yes" : "no")
        << ", inequalities: " << (has_inequalities ? "yes" : "no")
        << ", order comparisons: " << (has_order ? "yes" : "no") << "\n";
  }
  if (language == QueryLanguage::kDatalog) {
    oss << "max IDB arity: " << max_idb_arity << "\n";
  }
  oss << "parametrized class (parameter q): " << class_under_q << "\n";
  oss << "parametrized class (parameter v): " << class_under_v << "\n";
  oss << "fixed-parameter tractable here: "
      << (fixed_parameter_tractable ? "yes" : "no") << "\n";
  oss << "basis: " << basis << "\n";
  if (counting) oss << "counting: " << counting_class << "\n";
  oss << "engine: " << EngineChoiceName(engine) << "\n";
  oss << "route: " << route << "\n";
  return oss.str();
}

}  // namespace paraquery
