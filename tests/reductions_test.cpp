// Round-trip correctness of every reduction in the paper: each construction
// is exercised on random instances and checked against independent ground
// truth on both sides.
#include <gtest/gtest.h>

#include "circuit/weighted_sat.hpp"
#include "common/rng.hpp"
#include "eval/fo.hpp"
#include "eval/inequality.hpp"
#include "eval/naive.hpp"
#include "eval/ucq.hpp"
#include "graph/clique.hpp"
#include "graph/generators.hpp"
#include "graph/hamiltonian.hpp"
#include "query/parser.hpp"
#include "reductions/circuit_to_fo.hpp"
#include "reductions/clique_to_comparisons.hpp"
#include "reductions/clique_to_cq.hpp"
#include "reductions/cq_to_clique.hpp"
#include "reductions/cq_to_w2cnf.hpp"
#include "reductions/hampath_to_neq.hpp"
#include "reductions/positive_to_wformula.hpp"
#include "reductions/schema_folding.hpp"
#include "reductions/wformula_to_positive.hpp"

namespace paraquery {
namespace {

// ---------- clique -> CQ (Theorem 1 lower bound) ----------

class CliqueToCqTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, int>> {};

TEST_P(CliqueToCqTest, QueryNonemptyIffClique) {
  auto [seed, k] = GetParam();
  Graph g = GnpRandom(14, 0.45, seed);
  CliqueToCqResult red = CliqueToCq(g, k);
  EXPECT_EQ(red.query.NumVariables(), k);
  bool clique = FindCliqueBb(g, k).has_value();
  bool query = NaiveCqNonempty(red.db, red.query).ValueOrDie();
  EXPECT_EQ(clique, query) << "k=" << k << " seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CliqueToCqTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5),
                       ::testing::Values(1, 2, 3, 4)));

TEST(CliqueToCqTest, PlantedCliqueIsFound) {
  Graph g = PlantedClique(25, 0.15, 5, 7);
  CliqueToCqResult red = CliqueToCq(g, 5);
  EXPECT_TRUE(NaiveCqNonempty(red.db, red.query).ValueOrDie());
  EXPECT_EQ(red.query.QuerySize(), 1u + 3u * (5u * 4u / 2u));
}

// ---------- CQ -> weighted 2-CNF (Theorem 1 upper bound, parameter q) ----

class CqToW2CnfTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CqToW2CnfTest, SatisfiableIffQueryNonempty) {
  Rng rng(GetParam());
  Database db;
  RelId r = db.AddRelation("R", 2).ValueOrDie();
  RelId s = db.AddRelation("S", 2).ValueOrDie();
  for (int i = 0; i < 12; ++i) {
    db.relation(r).Add({rng.Range(0, 4), rng.Range(0, 4)});
    db.relation(s).Add({rng.Range(0, 4), rng.Range(0, 4)});
  }
  // Cyclic query on purpose: the reduction does not need acyclicity.
  auto q = ParseConjunctive("p() :- R(x, y), S(y, z), R(z, x).").ValueOrDie();
  auto red = CqToW2Cnf(db, q).ValueOrDie();
  EXPECT_EQ(red.k, 3);
  auto sol = SolveGroupedW2Cnf(red.instance);
  bool truth = NaiveCqNonempty(db, q).ValueOrDie();
  EXPECT_EQ(sol.has_value(), truth);
  if (sol.has_value()) {
    // Decoded binding must satisfy the query: check each atom via naive
    // containment of the induced head... simpler: verify atom-by-atom.
    auto binding = DecodeW2CnfSolution(db, q, red, *sol).ValueOrDie();
    for (const Atom& a : q.body) {
      RelId id = db.FindRelation(a.relation).ValueOrDie();
      ValueVec row;
      for (const Term& t : a.terms) {
        row.push_back(t.is_var() ? binding[t.var()] : t.value());
      }
      EXPECT_TRUE(db.relation(id).Contains(row));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CqToW2CnfTest, ::testing::Range<uint64_t>(1, 16));

TEST(CqToW2CnfTest, RejectsComparisons) {
  Database db;
  db.AddRelation("R", 2).ValueOrDie();
  auto q = ParseConjunctive("p() :- R(x, y), x != y.").ValueOrDie();
  EXPECT_FALSE(CqToW2Cnf(db, q).ok());
}

TEST(CqToW2CnfTest, ConstantsAndRepeatsFilterTuples) {
  Database db;
  RelId r = db.AddRelation("R", 3).ValueOrDie();
  db.relation(r).Add({1, 1, 5});
  db.relation(r).Add({1, 2, 5});
  db.relation(r).Add({2, 2, 6});
  auto q = ParseConjunctive("p() :- R(x, x, 5).").ValueOrDie();
  auto red = CqToW2Cnf(db, q).ValueOrDie();
  ASSERT_EQ(red.instance.groups.size(), 1u);
  EXPECT_EQ(red.instance.groups[0].size(), 1u);  // only (1,1,5)
}

// ---------- schema folding (Theorem 1 upper bound, parameter v) ----------

class SchemaFoldingTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SchemaFoldingTest, FoldedQueryEquivalent) {
  Rng rng(GetParam());
  Database db;
  RelId r = db.AddRelation("R", 2).ValueOrDie();
  RelId s = db.AddRelation("S", 2).ValueOrDie();
  RelId t = db.AddRelation("T", 3).ValueOrDie();
  for (int i = 0; i < 15; ++i) {
    db.relation(r).Add({rng.Range(0, 4), rng.Range(0, 4)});
    db.relation(s).Add({rng.Range(0, 4), rng.Range(0, 4)});
    db.relation(t).Add({rng.Range(0, 4), rng.Range(0, 4), rng.Range(0, 4)});
  }
  // Two atoms share the variable set {x,y}: they must be intersected; the
  // T atom folds separately; a constant atom tests selection.
  auto q = ParseConjunctive(
               "ans(x, z) :- R(x, y), S(x, y), T(y, z, z), R(x, 2).")
               .ValueOrDie();
  auto folded = FoldSchema(db, q).ValueOrDie();
  // Folded query has one atom per distinct variable set: {x,y}, {y,z}, {x}.
  EXPECT_EQ(folded.query.body.size(), 3u);
  EXPECT_LE(folded.query.body.size(),
            static_cast<size_t>(1) << q.NumVariables());
  auto lhs = NaiveEvaluateCq(db, q).ValueOrDie();
  auto rhs = NaiveEvaluateCq(folded.db, folded.query).ValueOrDie();
  EXPECT_TRUE(lhs.EqualsAsSet(rhs));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchemaFoldingTest,
                         ::testing::Range<uint64_t>(1, 13));

// ---------- weighted formula -> positive query (parameter v) ----------

class WFormulaToPositiveTest : public ::testing::TestWithParam<uint64_t> {};

// Random small formula as a tree circuit with NOTs.
Circuit RandomFormula(Rng* rng, int inputs) {
  Circuit c(inputs);
  // Build a random tree bottom-up over leaf references.
  std::vector<int> nodes;
  for (int i = 0; i < inputs; ++i) {
    nodes.push_back(rng->Chance(0.3) ? c.AddGate(GateKind::kNot, {i}) : i);
  }
  while (nodes.size() > 1) {
    int a = nodes.back();
    nodes.pop_back();
    int b = nodes.back();
    nodes.pop_back();
    int g = rng->Chance(0.5) ? c.AddGate(GateKind::kAnd, {a, b})
                             : c.AddGate(GateKind::kOr, {a, b});
    if (rng->Chance(0.2)) g = c.AddGate(GateKind::kNot, {g});
    nodes.push_back(g);
  }
  c.SetOutput(nodes[0]);
  return c;
}

TEST_P(WFormulaToPositiveTest, QueryTrueIffWeightedSat) {
  Rng rng(GetParam());
  Circuit formula = RandomFormula(&rng, 4 + static_cast<int>(rng.Below(2)));
  for (int k = 1; k <= 3; ++k) {
    auto red = WFormulaToPositive(formula, k).ValueOrDie();
    EXPECT_EQ(red.query.NumVariables(), k);
    bool sat = WeightedCircuitSat(formula, k).has_value();
    bool query = PositiveNonempty(red.db, red.query).ValueOrDie();
    EXPECT_EQ(sat, query) << "k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WFormulaToPositiveTest,
                         ::testing::Range<uint64_t>(1, 13));

// ---------- prenex positive -> weighted formula (membership) ----------

class PositiveToWFormulaTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PositiveToWFormulaTest, WeightedSatIffQueryTrue) {
  Rng rng(GetParam());
  Database db;
  RelId r = db.AddRelation("R", 2).ValueOrDie();
  RelId a = db.AddRelation("A", 1).ValueOrDie();
  for (int i = 0; i < 10; ++i) {
    db.relation(r).Add({rng.Range(0, 3), rng.Range(0, 3)});
  }
  db.relation(a).Add({rng.Range(0, 3)});
  auto q = ParsePositive(
               "p() := exists x, y, z . ((R(x, y) or R(y, x)) and A(z) "
               "and (R(y, z) or A(x))).")
               .ValueOrDie();
  auto red = PrenexPositiveToWFormula(db, q).ValueOrDie();
  EXPECT_EQ(red.k, 3);
  bool sat = WeightedCircuitSat(red.formula, red.k).has_value();
  bool truth = PositiveNonempty(db, q).ValueOrDie();
  EXPECT_EQ(sat, truth);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PositiveToWFormulaTest,
                         ::testing::Range<uint64_t>(1, 13));

TEST(PositiveToWFormulaTest, RejectsNonPrenex) {
  Database db;
  RelId a = db.AddRelation("A", 1).ValueOrDie();
  db.relation(a).Add({1});
  auto q = ParsePositive("p() := (exists x . A(x)) and (exists y . A(y)).")
               .ValueOrDie();
  EXPECT_FALSE(PrenexPositiveToWFormula(db, q).ok());
  auto q2 = ParsePositive("ans(x) := exists y . R(x, y).");
  // Open query rejected.
  if (q2.ok()) {
    EXPECT_FALSE(PrenexPositiveToWFormula(db, q2.value()).ok());
  }
}

// ---------- monotone circuit -> FO (Theorem 1, first-order row) ----------

Circuit RandomMonotoneCircuit(Rng* rng, int inputs, int extra_gates) {
  Circuit c(inputs);
  for (int i = 0; i < extra_gates; ++i) {
    GateKind kind = rng->Chance(0.5) ? GateKind::kAnd : GateKind::kOr;
    int fan_in = 1 + static_cast<int>(rng->Below(3));
    std::vector<int> ins;
    for (int j = 0; j < fan_in; ++j) {
      ins.push_back(static_cast<int>(rng->Below(
          static_cast<uint64_t>(c.num_gates()))));
    }
    c.AddGate(kind, ins);
  }
  c.SetOutput(c.num_gates() - 1);
  return c;
}

class CircuitToFoTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CircuitToFoTest, FoQueryTrueIffWeightedSat) {
  // Small circuits on purpose: FO evaluation is n^{O(v)} with v = k + 2 —
  // exactly the scaling the paper predicts (benches explore it at scale).
  Rng rng(GetParam());
  Circuit circuit = RandomMonotoneCircuit(&rng, 4, 3);
  for (int k = 1; k <= 2; ++k) {
    auto red = MonotoneCircuitToFo(circuit, k).ValueOrDie();
    // k + 2 variables, exactly as the paper counts.
    EXPECT_EQ(red.query.NumVariables(), k + 2);
    bool sat = WeightedMonotoneCircuitSat(circuit, k).has_value();
    bool fo = FirstOrderNonempty(red.db, red.query).ValueOrDie();
    EXPECT_EQ(sat, fo) << "k=" << k << " top=" << red.top_level;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CircuitToFoTest,
                         ::testing::Range<uint64_t>(1, 16));

TEST(CircuitToFoTest, AndOrBasics) {
  // AND(x1..x4): weight-k sat iff k == 4... (monotone: k <= n with padding:
  // satisfiable iff k >= 4; exact k semantics require >= 4 trues).
  Circuit and4 = AndOfInputs(4);
  auto red3 = MonotoneCircuitToFo(and4, 3).ValueOrDie();
  EXPECT_FALSE(FirstOrderNonempty(red3.db, red3.query).ValueOrDie());
  auto red4 = MonotoneCircuitToFo(and4, 4).ValueOrDie();
  EXPECT_TRUE(FirstOrderNonempty(red4.db, red4.query).ValueOrDie());

  Circuit or4 = OrOfInputs(4);
  auto red1 = MonotoneCircuitToFo(or4, 1).ValueOrDie();
  EXPECT_TRUE(FirstOrderNonempty(red1.db, red1.query).ValueOrDie());
}

// ---------- footnote 2: CQ / positive -> clique ----------

class CqToCliqueTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CqToCliqueTest, CliqueIffQueryNonempty) {
  Rng rng(GetParam());
  Database db;
  RelId r = db.AddRelation("R", 2).ValueOrDie();
  RelId s = db.AddRelation("S", 1).ValueOrDie();
  for (int i = 0; i < 10; ++i) {
    db.relation(r).Add({rng.Range(0, 4), rng.Range(0, 4)});
  }
  for (int i = 0; i < 3; ++i) db.relation(s).Add({rng.Range(0, 4)});
  auto q = ParseConjunctive("p() :- R(x, y), R(y, z), S(x).").ValueOrDie();
  auto inst = CqDecisionToClique(db, q).ValueOrDie();
  EXPECT_EQ(inst.k, 3);
  bool clique = FindCliqueBb(inst.graph, inst.k).has_value();
  bool truth = NaiveCqNonempty(db, q).ValueOrDie();
  EXPECT_EQ(clique, truth);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CqToCliqueTest,
                         ::testing::Range<uint64_t>(1, 16));

class PositiveToCliqueTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PositiveToCliqueTest, PaddedUnionPreservesAnswer) {
  Rng rng(GetParam());
  Database db;
  RelId r = db.AddRelation("R", 2).ValueOrDie();
  RelId a = db.AddRelation("A", 1).ValueOrDie();
  for (int i = 0; i < 8; ++i) {
    db.relation(r).Add({rng.Range(0, 3), rng.Range(0, 3)});
  }
  if (rng.Chance(0.5)) db.relation(a).Add({rng.Range(0, 3)});
  // Disjuncts of different sizes force the padding path.
  auto q = ParsePositive(
               "p() := (exists x . A(x)) or "
               "(exists x, y, z . (R(x, y) and R(y, z) and R(z, x))).")
               .ValueOrDie();
  auto inst = PositiveToClique(db, q).ValueOrDie();
  bool clique = FindCliqueBb(inst.graph, inst.k).has_value();
  bool truth = PositiveNonempty(db, q).ValueOrDie();
  EXPECT_EQ(clique, truth);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PositiveToCliqueTest,
                         ::testing::Range<uint64_t>(1, 16));

// ---------- Hamiltonian path -> acyclic ≠ query (Section 5) ----------

class HamPathTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HamPathTest, QueryNonemptyIffHamiltonianPath) {
  Rng rng(GetParam());
  int n = 5 + static_cast<int>(rng.Below(3));
  Graph g = GnpRandom(n, 0.45, rng.Next());
  HamPathToNeqResult red = HamPathToNeq(g);
  EXPECT_TRUE(red.query.IsAcyclic());
  EXPECT_TRUE(red.query.HasOnlyInequalities());
  bool ham = FindHamiltonianPath(g).has_value();
  bool naive = NaiveCqNonempty(red.db, red.query).ValueOrDie();
  EXPECT_EQ(ham, naive);
  // The Theorem 2 engine also decides it (k = n here, so only for small n).
  IneqOptions mc;
  mc.driver = IneqOptions::Driver::kMonteCarlo;
  mc.mc_error_exponent = 3.0;
  mc.seed = 42;
  bool fpt = IneqNonempty(red.db, red.query, {}, mc).ValueOrDie();
  if (ham) {
    // Monte Carlo may miss with tiny probability; these seeds succeed.
    EXPECT_TRUE(fpt);
  } else {
    EXPECT_FALSE(fpt);  // soundness is unconditional
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HamPathTest, ::testing::Range<uint64_t>(1, 9));

TEST(HamPathTest, PathAndStar) {
  HamPathToNeqResult path = HamPathToNeq(PathGraph(6));
  EXPECT_TRUE(NaiveCqNonempty(path.db, path.query).ValueOrDie());
  Graph star(5);
  for (int i = 1; i < 5; ++i) star.AddEdge(0, i);
  HamPathToNeqResult s = HamPathToNeq(star);
  EXPECT_FALSE(NaiveCqNonempty(s.db, s.query).ValueOrDie());
}

// ---------- Theorem 3: clique -> acyclic comparison query ----------

TEST(CliqueToComparisonsTest, EncodingIsInjectiveAndOrdered) {
  int n = 7;
  std::set<Value> seen;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      for (int b = 0; b <= 1; ++b) {
        Value v = EncodeTriple(n, i, j, b);
        EXPECT_TRUE(seen.insert(v).second) << i << "," << j << "," << b;
      }
    }
  }
  // The paper's key identities: x_ji - x_ij = v_j - v_i  and
  // x'_ij - x_ji = n + v_i - v_j for clique witnesses.
  int vi = 2, vj = 5;
  EXPECT_EQ(EncodeTriple(n, vj, vi, 0) - EncodeTriple(n, vi, vj, 0),
            Value{vj - vi});
  EXPECT_EQ(EncodeTriple(n, vi, vj, 1) - EncodeTriple(n, vj, vi, 0),
            Value{n + vi - vj});
}

class CliqueToComparisonsTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, int>> {};

TEST_P(CliqueToComparisonsTest, QueryNonemptyIffClique) {
  // Naive evaluation of the comparison query is n^{O(k)} by design
  // (Theorem 3 is a hardness result), so the instances stay tiny.
  auto [seed, k] = GetParam();
  Graph g = GnpRandom(6, 0.5, seed);
  auto red = CliqueToComparisons(g, k).ValueOrDie();
  EXPECT_TRUE(red.query.IsAcyclic());
  EXPECT_TRUE(red.query.HasOrderComparisons());
  bool clique = FindCliqueBb(g, k).has_value();
  bool query = NaiveCqNonempty(red.db, red.query).ValueOrDie();
  EXPECT_EQ(clique, query) << "k=" << k << " seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CliqueToComparisonsTest,
    ::testing::Combine(::testing::Values(1, 2, 3), ::testing::Values(2, 3)));

TEST(CliqueToComparisonsTest, PlantedCliqueFound) {
  Graph g = PlantedClique(8, 0.2, 3, 11);
  auto red = CliqueToComparisons(g, 3).ValueOrDie();
  EXPECT_TRUE(NaiveCqNonempty(red.db, red.query).ValueOrDie());
}

TEST(CliqueToComparisonsTest, RejectsDegenerate) {
  Graph g(3);
  EXPECT_FALSE(CliqueToComparisons(g, 1).ok());
  EXPECT_FALSE(CliqueToComparisons(Graph(0), 2).ok());
}

}  // namespace
}  // namespace paraquery
