// E7 — ablations on the design choices the paper's algorithms make.
//
//   a) Monte Carlo error exponent c: the paper's trial count is c·e^k; the
//      failure probability e^-c trades directly against runtime.
//   b) Certified family vs Monte Carlo on a small witness domain: the
//      deterministic driver pays a certification cost but gives exactness.
//   c) Full reducer on/off in Yannakakis evaluation on data with dangling
//      tuples: without the semijoin passes the intermediate joins inflate
//      (the paper's output-sensitivity claim hinges on the reducer).
//   d) Grouped (structure-aware) weighted-2CNF solving vs exhaustive
//      enumeration over C(N, k) assignments.
#include <benchmark/benchmark.h>

#include "circuit/weighted_sat.hpp"
#include "common/rng.hpp"
#include "eval/acyclic.hpp"
#include "eval/inequality.hpp"
#include "graph/generators.hpp"
#include "query/ineq_formula.hpp"
#include "query/parser.hpp"
#include "reductions/clique_to_cq.hpp"
#include "reductions/cq_to_w2cnf.hpp"
#include "workload/generators.hpp"

namespace paraquery {
namespace {

void BM_McErrorExponent(benchmark::State& state) {
  double c = static_cast<double>(state.range(0));
  Database db = RandomBinaryDatabase(2, 1200, 300, /*seed=*/13);
  ConjunctiveQuery q = RandomAcyclicNeqQuery(2, 5, 4, /*seed=*/17);
  IneqOptions opt;
  opt.driver = IneqOptions::Driver::kMonteCarlo;
  opt.mc_error_exponent = c;
  opt.seed = 4242;
  IneqStats stats;
  for (auto _ : state) {
    auto r = IneqEvaluate(db, q, {}, opt, &stats);
    benchmark::DoNotOptimize(r);
    if (!r.ok()) state.SkipWithError("evaluation failed");
  }
  state.counters["c"] = c;
  state.counters["k"] = stats.k;
  state.counters["colorings"] = static_cast<double>(stats.family_size);
}
BENCHMARK(BM_McErrorExponent)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_CertifiedDriver(benchmark::State& state) {
  // Small witness domain: certification is feasible and exact.
  Database db = RandomBinaryDatabase(2, 1200, 40, /*seed=*/13);
  ConjunctiveQuery q = RandomAcyclicNeqQuery(2, 5, 4, /*seed=*/17);
  IneqOptions opt;
  opt.driver = IneqOptions::Driver::kCertified;
  opt.seed = 4242;
  IneqStats stats;
  for (auto _ : state) {
    auto r = IneqEvaluate(db, q, {}, opt, &stats);
    benchmark::DoNotOptimize(r);
    if (!r.ok()) state.SkipWithError(r.status().message().c_str());
  }
  state.counters["k"] = stats.k;
  state.counters["family"] = static_cast<double>(stats.family_size);
}
BENCHMARK(BM_CertifiedDriver)->Unit(benchmark::kMillisecond);

void BM_MonteCarloDriverSmallDomain(benchmark::State& state) {
  Database db = RandomBinaryDatabase(2, 1200, 40, /*seed=*/13);
  ConjunctiveQuery q = RandomAcyclicNeqQuery(2, 5, 4, /*seed=*/17);
  IneqOptions opt;
  opt.driver = IneqOptions::Driver::kMonteCarlo;
  opt.mc_error_exponent = 4.0;
  opt.seed = 4242;
  for (auto _ : state) {
    auto r = IneqEvaluate(db, q, {}, opt);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_MonteCarloDriverSmallDomain)->Unit(benchmark::kMillisecond);

// Four-atom chain engineered so that, processed bottom-up, the very first
// join (L1 ⋈ π(L0)) fans out quadratically, while the selective relation
// L3 sits at the other end of the tree. With the full reducer the semijoin
// passes shrink everything to the (tiny) output first; without it the
// intermediate result is ~rows²/100 tuples — the failure mode Algorithm 2's
// two passes exist to prevent.
Database DanglingChainDb(int rows) {
  Database db;
  const Value buckets = 100;
  RelId l0 = db.AddRelation("L0", 2).ValueOrDie();
  RelId l1 = db.AddRelation("L1", 2).ValueOrDie();
  RelId l2 = db.AddRelation("L2", 2).ValueOrDie();
  RelId l3 = db.AddRelation("L3", 2).ValueOrDie();
  for (Value r = 0; r < rows; ++r) {
    db.relation(l0).Add({r, r % buckets});
    // L1 carries only even c values; L2 rows are odd (dead) except ten live
    // chains. Every L2 row fans into rows/100 L3 rows via the d bucket, so
    // the join L2 ⋈ L3 — processed first without the reducer — explodes
    // before the dead c values are discovered at the root.
    db.relation(l1).Add({r % buckets, 2 * r});
    bool live = r < 10;
    db.relation(l2).Add({live ? 2 * r : 2 * r + 1, r % buckets});
    db.relation(l3).Add({r % buckets, r});
  }
  return db;
}

void RunFullReducerBench(benchmark::State& state, bool reducer) {
  int rows = static_cast<int>(state.range(0));
  Database db = DanglingChainDb(rows);
  auto q = ParseConjunctive(
               "ans(e) :- L0(a, b), L1(b, c), L2(c, d), L3(d, e).")
               .ValueOrDie();
  EvalContext ctx;
  ctx.planner.full_reducer = reducer;
  PlanStats stats;
  for (auto _ : state) {
    auto r = AcyclicEvaluate(db, q, ctx, &stats);
    benchmark::DoNotOptimize(r);
    if (!r.ok()) state.SkipWithError("evaluation failed");
  }
  state.counters["rows"] = rows;
  state.counters["peak_rows"] = static_cast<double>(stats.peak_intermediate_rows);
}

void BM_FullReducerOn(benchmark::State& state) {
  RunFullReducerBench(state, true);
}
BENCHMARK(BM_FullReducerOn)
    ->RangeMultiplier(4)
    ->Range(1000, 16000)
    ->Unit(benchmark::kMillisecond);

void BM_FullReducerOff(benchmark::State& state) {
  RunFullReducerBench(state, false);
}
BENCHMARK(BM_FullReducerOff)
    ->RangeMultiplier(4)
    ->Range(1000, 16000)
    ->Unit(benchmark::kMillisecond);

// (e) The ∧/∨ inequality-formula extension vs expanding the formula to DNF
// and evaluating each conjunct separately: the formula engine pays one pass
// with hash range #vars + #consts; the DNF route multiplies the work by the
// number of disjuncts.
void BM_IneqFormulaMode(benchmark::State& state) {
  Database db = RandomBinaryDatabase(2, 2000, 200, /*seed=*/23);
  ConjunctiveQuery q = RandomAcyclicNeqQuery(2, 4, 0, /*seed=*/29);
  std::vector<VarId> pool = q.BodyVariables();
  IneqFormula phi;
  std::vector<int> disjuncts;
  for (int d = 0; d < 3; ++d) {
    int a = phi.AddAtom({CompareOp::kNeq, Term::Var(pool[d]),
                         Term::Var(pool[d + 1])});
    int b = phi.AddAtom({CompareOp::kNeq, Term::Var(pool[d]),
                         Term::Var(pool[(d + 2) % pool.size()])});
    disjuncts.push_back(phi.AddAnd({a, b}));
  }
  phi.root = phi.AddOr(std::move(disjuncts));
  IneqOptions mc;
  mc.driver = IneqOptions::Driver::kMonteCarlo;
  mc.mc_error_exponent = 2.0;
  mc.seed = 7;
  IneqStats stats;
  for (auto _ : state) {
    auto r = IneqFormulaEvaluate(db, q, phi, {}, mc, &stats);
    benchmark::DoNotOptimize(r);
    if (!r.ok()) state.SkipWithError("formula evaluation failed");
  }
  state.counters["k"] = stats.k;
  state.counters["colorings"] = static_cast<double>(stats.family_size);
}
BENCHMARK(BM_IneqFormulaMode)->Unit(benchmark::kMillisecond);

void BM_IneqFormulaViaDnf(benchmark::State& state) {
  Database db = RandomBinaryDatabase(2, 2000, 200, /*seed=*/23);
  ConjunctiveQuery q = RandomAcyclicNeqQuery(2, 4, 0, /*seed=*/29);
  std::vector<VarId> pool = q.BodyVariables();
  IneqFormula phi;
  std::vector<int> disjuncts;
  for (int d = 0; d < 3; ++d) {
    int a = phi.AddAtom({CompareOp::kNeq, Term::Var(pool[d]),
                         Term::Var(pool[d + 1])});
    int b = phi.AddAtom({CompareOp::kNeq, Term::Var(pool[d]),
                         Term::Var(pool[(d + 2) % pool.size()])});
    disjuncts.push_back(phi.AddAnd({a, b}));
  }
  phi.root = phi.AddOr(std::move(disjuncts));
  auto dnf = phi.ToDnf().ValueOrDie();
  IneqOptions mc;
  mc.driver = IneqOptions::Driver::kMonteCarlo;
  mc.mc_error_exponent = 2.0;
  mc.seed = 7;
  for (auto _ : state) {
    Relation answers(q.head.size());
    for (const auto& conj : dnf) {
      ConjunctiveQuery variant = q;
      for (const CompareAtom& c : conj) variant.comparisons.push_back(c);
      auto r = IneqEvaluate(db, variant, {}, mc);
      if (!r.ok()) state.SkipWithError("DNF evaluation failed");
      for (size_t row = 0; row < r.value().size(); ++row) {
        answers.Add(r.value().Row(row));
      }
    }
    answers.SortAndDedup();
    benchmark::DoNotOptimize(answers);
  }
  state.counters["disjuncts"] = static_cast<double>(dnf.size());
}
BENCHMARK(BM_IneqFormulaViaDnf)->Unit(benchmark::kMillisecond);

void BM_GroupedW2CnfSolver(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Graph g = TuranGraph(2, n / 2);  // max clique 2: k=3 query is a no
  CliqueToCqResult red = CliqueToCq(g, 3);
  auto inst = CqToW2Cnf(red.db, red.query).ValueOrDie();
  for (auto _ : state) {
    auto sol = SolveGroupedW2Cnf(inst.instance);
    benchmark::DoNotOptimize(sol);
  }
  state.counters["vars"] = inst.instance.num_vars;
}
BENCHMARK(BM_GroupedW2CnfSolver)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond);

void BM_ExhaustiveW2CnfSolver(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Graph g = TuranGraph(2, n / 2);
  CliqueToCqResult red = CliqueToCq(g, 3);
  auto inst = CqToW2Cnf(red.db, red.query).ValueOrDie();
  Cnf cnf = inst.instance.ToCnf();
  for (auto _ : state) {
    auto sol = WeightedCnfSat(cnf, inst.k);
    benchmark::DoNotOptimize(sol);
  }
  state.counters["vars"] = inst.instance.num_vars;
}
// The exhaustive baseline enumerates C(N, k) assignments and evaluates the
// whole CNF on each — keep N tiny or it never returns (that is the point).
BENCHMARK(BM_ExhaustiveW2CnfSolver)
    ->Arg(4)
    ->Arg(6)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace paraquery
