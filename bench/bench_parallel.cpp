// Parallel-runtime benchmark with machine-readable JSON output: the
// cyclic-join + UCQ mix CI gates the ≥2x @ 4-thread speedup on, and a
// Theorem 2 cell gated on its own.
//
//   * cyclic_join: a cyclic triangle join with an inequality over one large
//     and two mid-size relations — a large morsel-parallel probe pipeline
//     (hash-join probes, selection, projection over millions of
//     intermediate rows).
//   * ucq_mix: a four-disjunct union of two-atom joins — structural
//     parallelism (disjuncts run as concurrent tasks), each disjunct a
//     Yannakakis plan.
//   * theorem2: the paper's "employees on more than one project" query,
//     g(e) :- EP(e, p), EP(e, q), p != q — Theorem 2 color coding, one
//     scheduler task per coloring of the family.
//
// Each bench runs three ways: "sequential" (the evaluators called directly,
// no runtime bound — the PR 3 executor), "threads1" (engine with
// threads = 1), and "threadsN" (engine with the requested width, default
// 4). The binary itself exits nonzero if any impl's answer differs from
// the sequential one — N-thread output must be byte-identical.
//
// Output: a JSON array of
// {"bench", "impl", "rows", "seconds", "output_rows", "rows_per_sec"}.
//
// Usage: bench_parallel [--quick] [--threads N]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/engine.hpp"
#include "eval/inequality.hpp"
#include "eval/naive.hpp"
#include "eval/ucq.hpp"
#include "query/parser.hpp"
#include "relational/database.hpp"
#include "workload/generators.hpp"

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

void ExpectIdentical(const char* bench, const Relation& reference,
                     const Relation& candidate) {
  if (reference.arity() == candidate.arity() &&
      reference.size() == candidate.size() &&
      reference.data() == candidate.data()) {
    return;
  }
  std::fprintf(stderr, "FATAL: %s: output is not byte-identical\n", bench);
  std::exit(1);
}

Engine MakeEngine(const Database& db, size_t threads) {
  EngineOptions options;
  options.threads = threads;
  // This bench compares the RUNTIME against the runtime-free evaluator
  // path, so every rep must pay identical planning work: the plan cache
  // would let the engine impls skip planning that the "sequential"
  // baseline repeats (bench_plan_cache measures that win separately).
  options.use_plan_cache = false;
  return Engine(db, options);
}

// One bench: run a pre-parsed query through the runtime-free evaluators
// ("sequential" — the pre-runtime executor path, no scheduler plumbing at
// all), the engine at threads=1, and the engine at threads=N; assert
// byte-identity of all three answers. Every impl runs the SAME parsed
// query object, so the parity gate compares planning + execution only —
// front-end parsing is outside all three measurements.
template <typename Query, typename SeqFn>
void RunBench(const std::string& bench, const Database& db, const Query& q,
              size_t rows, int reps, size_t threads, SeqFn&& sequential) {
  Engine one = MakeEngine(db, 1);
  Engine wide = MakeEngine(db, threads);
  auto run_t1 = [&] { return std::move(one.Run(q)).ValueOrDie(); };
  auto run_tn = [&] { return std::move(wide.Run(q)).ValueOrDie(); };
  // Warm-up once per impl (also provides the identity-check answers), then
  // interleave the timed reps round-robin so load/frequency drift hits all
  // three impls alike — the 5% parity gate compares best-of times.
  Relation reference = sequential();
  Relation t1 = run_t1();
  Relation tn = run_tn();
  ExpectIdentical(bench.c_str(), reference, t1);
  ExpectIdentical(bench.c_str(), reference, tn);
  double best_seq = 1e300, best_t1 = 1e300, best_tn = 1e300;
  for (int r = 0; r < reps; ++r) {
    {
      Timer t;
      reference = sequential();
      best_seq = std::min(best_seq, t.Seconds());
    }
    {
      Timer t;
      t1 = run_t1();
      best_t1 = std::min(best_t1, t.Seconds());
    }
    {
      Timer t;
      tn = run_tn();
      best_tn = std::min(best_tn, t.Seconds());
    }
  }
  auto push = [&](const std::string& impl, double best, const Relation& out) {
    g_entries.push_back(Entry{bench, impl, rows, best, out.size(),
                              static_cast<double>(rows) / best});
  };
  push("sequential", best_seq, reference);
  push("threads1", best_t1, t1);
  push("threads" + std::to_string(threads), best_tn, tn);
}

// ---------------------------------------------------------------------------
// cyclic_join: triangle with an inequality, large probe-side pipeline.
// ---------------------------------------------------------------------------

void BenchCyclicJoin(size_t scale, int reps, size_t threads) {
  Rng rng(314159);
  const Value domain = 2000;
  Database db;
  RelId a = db.AddRelation("A", 2).ValueOrDie();
  RelId b = db.AddRelation("B", 2).ValueOrDie();
  RelId c = db.AddRelation("C", 2).ValueOrDie();
  auto fill = [&](RelId id, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      db.relation(id).Add(
          {rng.Range(0, domain - 1), rng.Range(0, domain - 1)});
    }
  };
  // Mid-size build sides (sequential index builds stay cheap) feeding a
  // multi-million-row probe/select/probe pipeline (morsel-parallel).
  size_t na = 3 * scale, nb = 2 * scale, nc = 3 * scale;
  fill(a, na);
  fill(b, nb);
  fill(c, nc);
  auto q = ParseConjunctive("ans(x, y) :- B(y, z), C(z, x), A(x, y), x != z.")
               .ValueOrDie();
  RunBench("cyclic_join", db, q, na + nb + nc, reps, threads, [&] {
    return std::move(NaiveEvaluateCq(db, q)).ValueOrDie();
  });
}

// ---------------------------------------------------------------------------
// ucq_mix: four two-atom disjuncts, structurally parallel.
// ---------------------------------------------------------------------------

void BenchUcqMix(size_t scale, int reps, size_t threads) {
  Rng rng(271828);
  const Value domain = 1500;
  Database db;
  RelId a = db.AddRelation("A", 2).ValueOrDie();
  RelId b = db.AddRelation("B", 2).ValueOrDie();
  RelId c = db.AddRelation("C", 2).ValueOrDie();
  auto fill = [&](RelId id, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      db.relation(id).Add(
          {rng.Range(0, domain - 1), rng.Range(0, domain - 1)});
    }
  };
  fill(a, scale);
  fill(b, scale);
  fill(c, scale);
  auto q = ParsePositive(
               "ans(x) := exists y . exists z . ((A(x, y) and B(y, z)) or "
               "(B(x, y) and C(y, z)) or (A(x, y) and C(y, z)) or "
               "(C(x, y) and A(y, z))).")
               .ValueOrDie();
  RunBench("ucq_mix", db, q, 3 * scale, reps, threads, [&] {
    return std::move(EvaluatePositive(db, q)).ValueOrDie();
  });
}

// ---------------------------------------------------------------------------
// theorem2: color coding, the family's colorings as concurrent tasks.
// ---------------------------------------------------------------------------

void BenchTheorem2(int employees, int reps, size_t threads) {
  // 100 projects, as in pqbench's analytic database: the certified family
  // is cheap to build and the colorings' plan executions dominate.
  Database db = EmployeeProjects(employees, 100, 1, 4, /*seed=*/7);
  auto q = ParseConjunctive("g(e) :- EP(e, p), EP(e, q), p != q.")
               .ValueOrDie();
  RunBench("theorem2", db, q, db.relation(0).size(), reps, threads, [&] {
    return std::move(IneqEvaluate(db, q)).ValueOrDie();
  });
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
  bool quick = false;
  size_t threads = 4;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = static_cast<size_t>(std::strtoul(argv[i + 1], nullptr, 10));
    }
  }
  paraquery::BenchCyclicJoin(quick ? 30000 : 60000, quick ? 5 : 7, threads);
  paraquery::BenchUcqMix(quick ? 150000 : 300000, quick ? 5 : 7, threads);
  paraquery::BenchTheorem2(quick ? 20000 : 40000, quick ? 5 : 7, threads);
  paraquery::PrintJson();
  return 0;
}
