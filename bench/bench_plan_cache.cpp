// Plan-cache benchmarks with machine-readable JSON output.
//
//   * repeated_cq: a repeated-query workload (8 distinct selective CQs run
//     round-robin) evaluated cold — a fresh Engine per pass, so every query
//     pays S_j materialization + planning — vs warm — one Engine whose plan
//     cache serves every repeat. CI gates warm >= 3x cold throughput.
//   * theorem2: the Theorem 2 color-coding engine, lowered per-coloring
//     plan execution vs the hand-rolled oracle on the same family. The
//     binary exits nonzero if the answers disagree or if a warm engine run
//     reports zero plan_cache hits (the k^k-colorings headline); CI gates
//     lowered wall-clock <= 1.15x the oracle's (it is usually at parity or
//     faster — one compiled plan per family, filters pushed into joins).
//
// Output is a single JSON array; each entry is
// {"bench", "impl", "rows", "seconds", "output_rows", "rows_per_sec"}.
//
// Usage: bench_plan_cache [--quick]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/engine.hpp"
#include "eval/inequality.hpp"
#include "graph/generators.hpp"
#include "query/parser.hpp"
#include "relational/database.hpp"

namespace paraquery {
namespace {

struct Entry {
  std::string bench, impl;
  size_t rows = 0;
  double seconds = 0;
  size_t output_rows = 0;
  double rows_per_sec = 0;
};

std::vector<Entry> g_entries;

template <typename Fn>
void Measure(const std::string& bench, const std::string& impl, size_t rows,
             int reps, Fn&& fn) {
  size_t output_rows = fn();  // warm-up (also provides output_rows)
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    Timer t;
    output_rows = fn();
    best = std::min(best, t.Seconds());
  }
  g_entries.push_back(Entry{bench, impl, rows, best, output_rows,
                            static_cast<double>(rows) / best});
}

// ---------------------------------------------------------------------------
// repeated_cq: cold per-query planning vs the warm cache.
// ---------------------------------------------------------------------------

void BenchRepeatedCq(size_t scale, int reps) {
  // R(k, x): `scale` rows over 1000 keys — the constant-selected S_j is
  // ~scale/1000 rows, so planning (which scans R to materialize it) costs
  // ~scale while execution costs ~|S_j|. T links the survivors.
  Rng rng(424242);
  Database db;
  RelId r = db.AddRelation("R", 2).ValueOrDie();
  RelId t = db.AddRelation("T", 2).ValueOrDie();
  for (size_t i = 0; i < scale; ++i) {
    db.relation(r).Add({rng.Range(0, 999), rng.Range(0, 499)});
  }
  for (size_t i = 0; i < scale / 25; ++i) {
    db.relation(t).Add({rng.Range(0, 499), rng.Range(0, 499)});
  }
  std::vector<ConjunctiveQuery> queries;
  for (int c = 0; c < 8; ++c) {
    std::string text = "ans(x, y) :- R(" + std::to_string(c * 100) +
                       ", x), T(x, y), R(" + std::to_string(c * 100 + 7) +
                       ", y).";
    queries.push_back(ParseConjunctive(text).ValueOrDie());
  }
  size_t total_rows = (scale + scale / 25) * queries.size();

  size_t cold_rows = 0, warm_rows = 0;
  Measure("repeated_cq", "cold_per_query", total_rows, reps, [&] {
    size_t out = 0;
    for (const ConjunctiveQuery& q : queries) {
      Engine fresh(db);  // empty cache: full S_j + planning cost per query
      out += fresh.Run(q).ValueOrDie().size();
    }
    cold_rows = out;
    return out;
  });
  Engine warm(db);
  for (const ConjunctiveQuery& q : queries) {
    (void)warm.Run(q).ValueOrDie();  // populate the cache once
  }
  Measure("repeated_cq", "warm_cache", total_rows, reps, [&] {
    size_t out = 0;
    for (const ConjunctiveQuery& q : queries) {
      out += warm.Run(q).ValueOrDie().size();
    }
    warm_rows = out;
    return out;
  });
  if (cold_rows != warm_rows) {
    std::fprintf(stderr, "FATAL: repeated_cq answers disagree (%zu vs %zu)\n",
                 cold_rows, warm_rows);
    std::exit(1);
  }
  if (warm.last_stats().plan_cache.hits == 0) {
    std::fprintf(stderr, "FATAL: warm engine reports zero plan_cache hits\n");
    std::exit(1);
  }
}

// ---------------------------------------------------------------------------
// theorem2: lowered per-coloring plan execution, cold (recompile the
// residual plan every run) vs warm (cross-run PlanCache hit). The removed
// hand-rolled oracle's recorded answers are asserted against the lowered
// path in tests/inequality_test.cpp (tests/theorem2_recorded.inc).
// ---------------------------------------------------------------------------

void BenchTheorem2(int n, int reps) {
  // Path-rich sparse graph; simple-3-path endpoints with all-pairs ≠ keeps
  // k = 2 I1 atoms after co-occurrence splitting and runs several
  // colorings per family.
  Database db;
  {
    Graph g = GnpRandom(n, 3.0 / n, /*seed=*/21);
    RelId e = db.AddRelation("E", 2).ValueOrDie();
    for (int u = 0; u < g.num_vertices(); ++u) {
      for (int v : g.Neighbors(u)) db.relation(e).Add({u, v});
    }
  }
  auto q = ParseConjunctive(
               "ans(a, d) :- E(a, b), E(b, c), E(c, d), a != c, a != d, "
               "b != d.")
               .ValueOrDie();
  IneqOptions options;
  options.driver = IneqOptions::Driver::kMonteCarlo;
  options.mc_error_exponent = 2.0;
  options.seed = 1234;
  size_t rows = db.relation(0).size();

  size_t cold_rows = 0, warm_rows = 0;
  Measure("theorem2", "cold_compile", rows, reps, [&] {
    cold_rows = IneqEvaluate(db, q, {}, options).ValueOrDie().size();
    return cold_rows;
  });
  PlanCache cache;
  EvalContext warm;
  warm.plan_cache = &cache;
  (void)IneqEvaluate(db, q, warm, options).ValueOrDie();  // prime the cache
  Measure("theorem2", "warm_cache", rows, reps, [&] {
    warm_rows = IneqEvaluate(db, q, warm, options).ValueOrDie().size();
    return warm_rows;
  });
  if (cold_rows != warm_rows) {
    std::fprintf(stderr, "FATAL: theorem2 answers disagree (%zu vs %zu)\n",
                 cold_rows, warm_rows);
    std::exit(1);
  }
  // The acceptance headline: ONE engine-level run of the inequality query
  // must report nonzero plan_cache hits (one plan compiled, the family's
  // remaining colorings credited as reuses).
  Engine engine(db);
  (void)engine.Run(q).ValueOrDie();
  if (engine.last_stats().plan_cache.hits == 0 ||
      engine.last_stats().ineq.family_size < 2) {
    std::fprintf(stderr,
                 "FATAL: theorem2 engine run reports no plan_cache hits "
                 "(hits=%llu, family=%zu)\n",
                 static_cast<unsigned long long>(
                     engine.last_stats().plan_cache.hits),
                 engine.last_stats().ineq.family_size);
    std::exit(1);
  }
}

void PrintJson() {
  std::printf("[\n");
  for (size_t i = 0; i < g_entries.size(); ++i) {
    const Entry& e = g_entries[i];
    std::printf("  {\"bench\": \"%s\", \"impl\": \"%s\", \"rows\": %zu, "
                "\"seconds\": %.6f, \"output_rows\": %zu, "
                "\"rows_per_sec\": %.0f}%s\n",
                e.bench.c_str(), e.impl.c_str(), e.rows, e.seconds,
                e.output_rows, e.rows_per_sec,
                i + 1 < g_entries.size() ? "," : "");
  }
  std::printf("]\n");
}

}  // namespace
}  // namespace paraquery

int main(int argc, char** argv) {
  bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
  paraquery::BenchRepeatedCq(quick ? 40000 : 120000, quick ? 3 : 5);
  // Extra reps: the CI parity gate on this bench has the tightest margin
  // (warm <= 1.05x cold), and Measure keeps the best-of-N, so more reps
  // directly damp shared-runner noise.
  paraquery::BenchTheorem2(quick ? 1200 : 3000, quick ? 5 : 7);
  paraquery::PrintJson();
  return 0;
}
