// The routing decision: the paper's classification as the engine acts on it.
// DecideRoute is the one place the route predicates (acyclic,
// comparison-free, ≠-only, the WCOJ gate) are evaluated; the engine runs the
// route it returns and records it in EngineStats, the classifier reports
// it, and EXPLAIN / `.plan` render it.
#ifndef PARAQUERY_PLAN_ROUTE_H_
#define PARAQUERY_PLAN_ROUTE_H_

#include <optional>

#include "query/conjunctive_query.hpp"
#include "query/datalog.hpp"
#include "query/first_order_query.hpp"
#include "query/positive_query.hpp"

namespace paraquery {

struct PlannerOptions;

/// Engines this library can route a query to.
enum class EngineChoice {
  kAcyclic,     // Yannakakis (acyclic, comparison-free): PTIME
  kInequality,  // Theorem 2 color coding (acyclic + ≠): FPT
  kNaive,       // the general plan: hypertree WCOJ or a left-deep join chain
  kUcq,         // positive via union of CQs
  kFo,          // active-domain relational calculus
  kDatalog,     // semi-naive fixpoint
  kCounting,    // counting Yannakakis / aggregate-at-root (COUNT heads)
};

const char* EngineChoiceName(EngineChoice engine);

/// How one query runs, and why.
struct RouteDecision {
  EngineChoice engine = EngineChoice::kNaive;
  /// What runs, and the paper's class that puts it there (static; empty
  /// until a query has been decided).
  const char* reason = "";
  bool counting = false;  // the last answer column is a count

  // Conjunctive queries: the predicates of the query that runs.
  bool acyclic = false;
  bool comparison_free = false;
  bool neq_only = false;      // comparison atoms present, all of them ≠
  bool empty_body = false;    // the answer is the constant head: no plan
  bool inconsistent = false;  // unsatisfiable comparisons: empty, no plan
  /// The WCOJ gate: cyclic, comparison-free, at least three atoms, each
  /// with a variable, and PlannerOptions::wcoj.
  bool wcoj = false;
  /// The comparison closure's rewrite, when it runs in place of the query.
  std::optional<ConjunctiveQuery> rewritten = std::nullopt;

  /// The query the route runs, given the one it was decided for.
  const ConjunctiveQuery& query(const ConjunctiveQuery& original) const {
    return rewritten.has_value() ? *rewritten : original;
  }
};

/// With `closure`, < / ≤ / = atoms (and a body-less query's constant
/// comparisons) go through the comparison closure first, and the route is
/// the rewrite's — unless the rewrite fails or breaks a COUNT group key.
/// Planners handed the exact query to plan pass `closure` = false.
RouteDecision DecideRoute(const ConjunctiveQuery& q,
                          const PlannerOptions& planner, bool closure = true);
RouteDecision DecideRoute(const PositiveQuery& q);
/// The active-domain route; positive formulas route as PositiveQuery.
RouteDecision DecideRoute(const FirstOrderQuery& q);
RouteDecision DecideRoute(const DatalogProgram& p);

}  // namespace paraquery

#endif  // PARAQUERY_PLAN_ROUTE_H_
