// Human-readable classification reports ("EXPLAIN" for parametrized
// complexity): what the paper says about this query, and what the engine
// will do about it. When a database is supplied, the report also renders the
// physical plan (plan/planner.hpp) the engine would execute, with per-node
// cardinality estimates; after execution the same tree carries actual rows.
#ifndef PARAQUERY_CORE_EXPLAIN_H_
#define PARAQUERY_CORE_EXPLAIN_H_

#include <string>

#include "common/status.hpp"
#include "core/classifier.hpp"
#include "plan/planner.hpp"
#include "relational/database.hpp"

namespace paraquery {

/// Renders a report for a conjunctive query (runs the comparison closure
/// first when order/equality atoms are present, and reports both views).
/// With `db`, appends the rendered physical plan, planned under `planner` —
/// pass the engine context's options so the render shows the plan Run
/// executes.
std::string ExplainConjunctive(const ConjunctiveQuery& q,
                               const Database* db = nullptr,
                               const PlannerOptions& planner = {});

std::string ExplainFirstOrder(const FirstOrderQuery& q,
                              const Database* db = nullptr,
                              const PlannerOptions& planner = {});
std::string ExplainDatalog(const DatalogProgram& p,
                           const Database* db = nullptr);

/// Plan-only renders (the shell's `.plan` command): the physical plan the
/// engine would run under `planner`, without executing it. Datalog rule
/// bodies take no planner option.
Result<std::string> RenderConjunctivePlan(const Database& db,
                                          const ConjunctiveQuery& q,
                                          const PlannerOptions& planner = {});
Result<std::string> RenderPositivePlan(const Database& db,
                                       const PositiveQuery& q,
                                       const PlannerOptions& planner = {});
Result<std::string> RenderDatalogPlan(const Database& db,
                                      const DatalogProgram& p);

}  // namespace paraquery

#endif  // PARAQUERY_CORE_EXPLAIN_H_
