// Umbrella header: the public API of ParaQuery in one include.
//
//   #include "paraquery.hpp"
//   using namespace paraquery;
//
//   Database db = ...;
//   Engine engine(db);
//   auto answers = engine.RunText("g(e) :- EP(e, p), EP(e, q), p != q.");
//
// Fine-grained headers remain available for users who want a single
// subsystem (e.g. only the Theorem 2 evaluator or only the reductions).
#ifndef PARAQUERY_PARAQUERY_H_
#define PARAQUERY_PARAQUERY_H_

// Error model and utilities.
#include "common/combinatorics.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "common/timer.hpp"

// Relational substrate.
#include "relational/csv.hpp"
#include "relational/database.hpp"
#include "relational/named_relation.hpp"
#include "relational/ops.hpp"
#include "relational/predicate.hpp"
#include "relational/relation.hpp"
#include "relational/row_index.hpp"

// Graphs, hypergraphs, circuits, hashing.
#include "circuit/circuit.hpp"
#include "circuit/cnf.hpp"
#include "circuit/normalize.hpp"
#include "circuit/weighted_sat.hpp"
#include "graph/clique.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/hamiltonian.hpp"
#include "graph/scc.hpp"
#include "hashing/coloring.hpp"
#include "hypergraph/gyo.hpp"
#include "hypergraph/hypergraph.hpp"
#include "hypergraph/join_tree.hpp"

// Query languages.
#include "query/builder.hpp"
#include "query/comparison_closure.hpp"
#include "query/conjunctive_query.hpp"
#include "query/datalog.hpp"
#include "query/first_order_query.hpp"
#include "query/ineq_formula.hpp"
#include "query/parser.hpp"
#include "query/positive_query.hpp"
#include "query/term.hpp"

// Physical plan IR, planner, the shared executor, and the plan cache.
#include "plan/executor.hpp"
#include "plan/plan.hpp"
#include "plan/plan_cache.hpp"
#include "plan/planner.hpp"

// Evaluation engines.
#include "eval/acyclic.hpp"
#include "eval/context.hpp"
#include "eval/datalog_eval.hpp"
#include "eval/fo.hpp"
#include "eval/inequality.hpp"
#include "eval/naive.hpp"
#include "eval/ucq.hpp"

// The paper's reductions.
#include "reductions/alternating.hpp"
#include "reductions/circuit_to_fo.hpp"
#include "reductions/clique_to_comparisons.hpp"
#include "reductions/clique_to_cq.hpp"
#include "reductions/cq_to_clique.hpp"
#include "reductions/cq_to_w2cnf.hpp"
#include "reductions/hampath_to_neq.hpp"
#include "reductions/positive_to_wformula.hpp"
#include "reductions/schema_folding.hpp"
#include "reductions/wformula_to_positive.hpp"

// Classification, engine facade, workloads.
#include "core/classifier.hpp"
#include "core/engine.hpp"
#include "core/explain.hpp"
#include "workload/generators.hpp"

#endif  // PARAQUERY_PARAQUERY_H_
