// Simple paths of length k — the special case of Theorem 2 the paper
// singles out ("the problem of finding simple paths of a specified length k
// in a graph ... proved f.p. tractable by Monien, improved via color coding
// by Alon-Yuster-Zwick. Our algorithm combines this technique with acyclic
// query processing").
//
// The query is the chain E(x1,x2), ..., E(xk, xk+1) plus all-pairs ≠: every
// pairwise inequality between non-adjacent variables lands in I1, so the
// engine runs genuine color coding over the join tree.
//
//   ./simple_paths [k]
#include <cstdio>
#include <cstdlib>

#include "common/timer.hpp"
#include "core/classifier.hpp"
#include "eval/inequality.hpp"
#include "graph/generators.hpp"
#include "workload/generators.hpp"

using namespace paraquery;

int main(int argc, char** argv) {
  int k = argc > 1 ? std::atoi(argv[1]) : 4;
  if (k < 2 || k > 8) {
    std::fprintf(stderr, "k must be between 2 and 8\n");
    return 1;
  }
  ConjunctiveQuery query = SimplePathQuery(k);
  std::printf("query: %s\n", query.ToString().c_str());
  Classification c = ClassifyConjunctive(query);
  std::printf("classified: %s under q; engine: %s\n\n",
              c.class_under_q.c_str(), EngineChoiceName(c.engine));

  std::printf("%8s %10s %10s %12s %8s %10s\n", "n", "edges", "k(hash)",
              "colorings", "found", "ms");
  for (int n : {500, 1000, 2000, 4000}) {
    // Sparse graph: long simple paths exist but are rare.
    Database db = GraphDatabase(GnpRandom(n, 1.2 / n, /*seed=*/n + k));
    IneqOptions options;
    options.driver = IneqOptions::Driver::kMonteCarlo;
    options.mc_error_exponent = 4.0;
    options.seed = 99;
    IneqStats stats;
    Timer timer;
    auto found = IneqNonempty(db, query, {}, options, &stats);
    double ms = timer.Millis();
    found.status().Expect("simple path decision");
    RelId e = db.FindRelation("E").ValueOrDie();
    std::printf("%8d %10zu %10d %12zu %8s %10.1f\n", n,
                db.relation(e).size() / 2, stats.k, stats.family_size,
                found.value() ? "yes" : "no", ms);
  }
  std::printf(
      "\nDecision time is f(k) * n log n: linear in the graph at fixed k,\n"
      "with the exponential confined to the number of colorings (c * e^k).\n"
      "Compare bench_theorem2_fpt's trivial n^{k+1} enumeration baseline.\n");
  return 0;
}
