#include "core/explain.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_set>
#include <vector>

#include "eval/inequality.hpp"
#include "eval/ucq.hpp"
#include "plan/planner.hpp"

namespace paraquery {

namespace {

// Appends a plan render (or the planner's failure) under a header line.
void AppendPlanSection(std::ostringstream* oss,
                       const Result<std::string>& render) {
  *oss << "physical plan:\n";
  if (render.ok()) {
    *oss << render.value();
  } else {
    *oss << "  unavailable: " << render.status().message() << "\n";
  }
}

// Indents every line of `text` by `spaces`.
std::string Indent(const std::string& text, int spaces) {
  std::string pad(spaces, ' ');
  std::ostringstream out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) out << pad << line << "\n";
  return out.str();
}

// Marks scans whose build-time cardinality is unknown (IDB atoms and
// unresolvable EDB atoms in the static Datalog render) as est "?", and
// propagates the unknown upward: an operator over an unknown input has an
// unknown estimate too. Returns true if `node`'s estimate is unknown.
bool ClearScanEstimates(PlanNode* node,
                        const std::unordered_set<int>& unknown_slots) {
  bool unknown =
      node->op == PlanOp::kScan && unknown_slots.count(node->input_slot) > 0;
  for (const PlanNodePtr& c : node->children) {
    unknown |= ClearScanEstimates(c.get(), unknown_slots);
  }
  if (unknown) node->est_rows = -1.0;
  return unknown;
}

}  // namespace

Result<std::string> RenderConjunctivePlan(const Database& db,
                                          const ConjunctiveQuery& q,
                                          const PlannerOptions& planner) {
  PQ_RETURN_NOT_OK(q.Validate());
  const RouteDecision route = DecideRoute(q, planner);
  std::ostringstream oss;
  if (route.rewritten.has_value()) {
    oss << "-- after comparison closure: "
        << route.rewritten->ToString(&db.dict()) << "\n";
  }
  oss << "-- route: " << route.reason << "\n";
  // Nothing runs for these; the color-coding engine compiles its own plan
  // (and Run returns its compile errors too).
  if (route.inconsistent || route.empty_body) return oss.str();
  if (route.engine == EngineChoice::kInequality) {
    PQ_ASSIGN_OR_RETURN(std::string residual,
                        IneqPlanText(db, route.query(q)));
    oss << residual;
    return oss.str();
  }
  PQ_ASSIGN_OR_RETURN(PhysicalPlan plan, PlanConjunctive(db, q, planner));
  oss << plan.Render();
  return oss.str();
}

Result<std::string> RenderPositivePlan(const Database& db,
                                       const PositiveQuery& q,
                                       const PlannerOptions& planner) {
  // Expand with the evaluator's own cap (so anything the engine can run,
  // this can report on), but keep the render readable by showing at most
  // kExplainRenderCap disjunct subplans and summarizing the rest.
  constexpr size_t kExplainRenderCap = 64;
  UcqStats stats;
  PQ_ASSIGN_OR_RETURN(
      auto cqs, ExpandDedupedDisjuncts(q, UcqOptions{}.max_disjuncts, &stats));
  std::ostringstream oss;
  oss << "-- route: " << DecideRoute(q).reason << "\n";
  oss << "Union [" << cqs.size() << " disjunct" << (cqs.size() == 1 ? "" : "s");
  if (stats.disjuncts_deduped > 0) {
    oss << ", " << stats.disjuncts_deduped
        << " syntactic duplicate(s) dropped";
  }
  oss << "]\n";
  size_t shown = std::min(cqs.size(), kExplainRenderCap);
  // Each disjunct carries its own variable table (ToUnionOfCqs standardizes
  // apart), so the subplans are rendered one at a time with their own names.
  for (size_t i = 0; i < shown; ++i) {
    oss << "  disjunct " << i + 1 << ": " << cqs[i].ToString(&db.dict())
        << "\n";
    auto plan = RenderConjunctivePlan(db, cqs[i], planner);
    if (plan.ok()) {
      oss << Indent(plan.value(), 4);
    } else {
      oss << "    unavailable: " << plan.status().message() << "\n";
    }
  }
  if (shown < cqs.size()) {
    oss << "  ... (" << cqs.size() - shown << " more disjunct plans omitted)\n";
  }
  return oss.str();
}

Result<std::string> RenderDatalogPlan(const Database& db,
                                      const DatalogProgram& p,
                                      const PlannerOptions& planner) {
  PQ_RETURN_NOT_OK(p.Validate());
  std::ostringstream oss;
  oss << "-- route: " << DecideRoute(p).reason << "\n";
  oss << "Fixpoint(" << p.goal << ") [semi-naive, " << p.rules.size()
      << " rule" << (p.rules.size() == 1 ? "" : "s")
      << "; delta-substituted variants are planned at first firing]\n";
  for (size_t ri = 0; ri < p.rules.size(); ++ri) {
    const DatalogRule& rule = p.rules[ri];
    oss << "  rule " << ri << ": " << rule.ToString(&db.dict()) << "\n";
    if (rule.body.empty()) {
      oss << "    (constant head; fires once)\n";
      continue;
    }
    std::vector<std::vector<AttrId>> attrs;
    std::vector<size_t> sizes;
    std::vector<JoinIndexCache*> caches(rule.body.size(), nullptr);
    std::unordered_set<int> unknown_slots;
    for (size_t i = 0; i < rule.body.size(); ++i) {
      const Atom& a = rule.body[i];
      attrs.push_back(a.Variables());
      if (p.IsIdb(a.relation)) {
        // IDB inputs start empty and grow with the fixpoint: size unknown.
        sizes.push_back(0);
        unknown_slots.insert(static_cast<int>(i));
      } else {
        auto found = db.FindRelation(a.relation);
        if (found.ok()) {
          sizes.push_back(db.relation(found.value()).size());
        } else {
          sizes.push_back(0);
          unknown_slots.insert(static_cast<int>(i));
        }
      }
    }
    auto plan = PlanRuleBody(rule, attrs, sizes, caches, /*delta_pos=*/-1,
                             /*distinct=*/{}, planner.vectorize, &db.dict());
    if (!plan.ok()) {
      oss << "    unavailable: " << plan.status().message() << "\n";
      continue;
    }
    ClearScanEstimates(plan.value().get(), unknown_slots);
    oss << Indent(RenderPlan(*plan.value(), &rule.vars), 4);
  }
  return oss.str();
}

std::string ExplainConjunctive(const ConjunctiveQuery& q, const Database* db,
                               const PlannerOptions& planner) {
  const Dictionary* dict = db != nullptr ? &db->dict() : nullptr;
  std::ostringstream oss;
  oss << "query: " << q.ToString(dict) << "\n";
  const RouteDecision route = DecideRoute(q, planner);
  if (route.inconsistent) {
    oss << "comparison closure: INCONSISTENT — the answer is empty on "
           "every database (Section 5 / Klug)\n";
  } else if (route.rewritten.has_value()) {
    oss << "comparison closure: collapsed to "
        << route.rewritten->ToString(dict) << "\n";
  }
  oss << ClassifyConjunctive(q, route).ToString();
  if (db != nullptr) {
    AppendPlanSection(&oss, RenderConjunctivePlan(*db, q, planner));
  }
  return oss.str();
}

std::string ExplainFirstOrder(const FirstOrderQuery& q, const Database* db,
                              const PlannerOptions& planner) {
  std::ostringstream oss;
  oss << "query: " << q.ToString(db != nullptr ? &db->dict() : nullptr)
      << "\n";
  oss << ClassifyFirstOrder(q).ToString();
  if (db != nullptr && q.IsPositive()) {
    auto positive = PositiveQuery::FromFirstOrder(q);
    if (positive.ok()) {
      AppendPlanSection(&oss,
                        RenderPositivePlan(*db, positive.value(), planner));
    }
  }
  return oss.str();
}

std::string ExplainDatalog(const DatalogProgram& p, const Database* db,
                           const PlannerOptions& planner) {
  std::ostringstream oss;
  oss << "program:\n" << p.ToString(db != nullptr ? &db->dict() : nullptr);
  oss << ClassifyDatalog(p).ToString();
  if (db != nullptr) {
    AppendPlanSection(&oss, RenderDatalogPlan(*db, p, planner));
  }
  return oss.str();
}

}  // namespace paraquery
