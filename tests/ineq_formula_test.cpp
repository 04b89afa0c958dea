// Tests for the Section 5 parameter-q extension: acyclic queries with an
// arbitrary ∧/∨ formula over ≠ atoms.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "eval/inequality.hpp"
#include "eval/naive.hpp"
#include "graph/generators.hpp"
#include "query/ineq_formula.hpp"
#include "query/parser.hpp"
#include "workload/generators.hpp"

namespace paraquery {
namespace {

IneqOptions Certified() {
  IneqOptions o;
  o.driver = IneqOptions::Driver::kCertified;
  return o;
}

// Ground truth: expand φ to DNF and union the naive evaluations of the
// query with each conjunction of ≠ atoms.
Relation NaiveFormulaEvaluate(const Database& db, const ConjunctiveQuery& q,
                              const IneqFormula& phi) {
  auto dnf = phi.ToDnf().ValueOrDie();
  Relation answers(q.head.size());
  for (const auto& conj : dnf) {
    ConjunctiveQuery variant = q;
    for (const CompareAtom& c : conj) variant.comparisons.push_back(c);
    Relation part = NaiveEvaluateCq(db, variant).ValueOrDie();
    for (size_t r = 0; r < part.size(); ++r) answers.Add(part.Row(r));
  }
  answers.SortAndDedup();
  return answers;
}

TEST(IneqFormulaTest, BuildAndInspect) {
  IneqFormula phi;
  int a = phi.AddAtom({CompareOp::kNeq, Term::Var(0), Term::Var(1)});
  int b = phi.AddAtom({CompareOp::kNeq, Term::Var(1), Term::Const(5)});
  phi.root = phi.AddOr({a, b});
  EXPECT_TRUE(phi.Validate().ok());
  EXPECT_EQ(phi.Variables(), (std::vector<VarId>{0, 1}));
  EXPECT_EQ(phi.Constants(), (std::vector<Value>{5}));
  EXPECT_EQ(phi.HashRange(), 3);
}

TEST(IneqFormulaTest, EvaluateRespectsStructure) {
  IneqFormula phi;
  int a = phi.AddAtom({CompareOp::kNeq, Term::Var(0), Term::Var(1)});
  int b = phi.AddAtom({CompareOp::kNeq, Term::Var(0), Term::Var(2)});
  phi.root = phi.AddAnd({phi.AddOr({a, b}), a});
  std::vector<Value> vals = {1, 1, 2};  // x0=1, x1=1, x2=2
  auto value_of = [&vals](const Term& t) {
    return t.is_var() ? vals[t.var()] : t.value();
  };
  // a = (x0 != x1) = false; b = (x0 != x2) = true; (a or b) and a = false.
  EXPECT_FALSE(phi.Evaluate(value_of));
  vals[1] = 3;  // now a = true
  EXPECT_TRUE(phi.Evaluate(value_of));
}

TEST(IneqFormulaTest, ToDnfDistributes) {
  IneqFormula phi;
  int a = phi.AddAtom({CompareOp::kNeq, Term::Var(0), Term::Var(1)});
  int b = phi.AddAtom({CompareOp::kNeq, Term::Var(1), Term::Var(2)});
  int c = phi.AddAtom({CompareOp::kNeq, Term::Var(2), Term::Var(3)});
  int d = phi.AddAtom({CompareOp::kNeq, Term::Var(3), Term::Var(0)});
  phi.root = phi.AddAnd({phi.AddOr({a, b}), phi.AddOr({c, d})});
  auto dnf = phi.ToDnf().ValueOrDie();
  EXPECT_EQ(dnf.size(), 4u);
  for (const auto& conj : dnf) EXPECT_EQ(conj.size(), 2u);
}

TEST(IneqFormulaTest, ValidateRejectsBadFormulas) {
  IneqFormula no_root;
  EXPECT_FALSE(no_root.Validate().ok());
  IneqFormula cyclic;
  int a = cyclic.AddAtom({CompareOp::kNeq, Term::Var(0), Term::Var(1)});
  cyclic.root = cyclic.AddAnd({a});
  cyclic.nodes[cyclic.root].children.push_back(cyclic.root);  // self-loop
  EXPECT_FALSE(cyclic.Validate().ok());
}

TEST(IneqFormulaEvalTest, DisjunctionOfInequalities) {
  // g(e) over EP pairs where the two projects differ OR one is a marked id.
  Database db;
  RelId ep = db.AddRelation("EP", 2).ValueOrDie();
  db.relation(ep).Add({1, 100});
  db.relation(ep).Add({1, 101});
  db.relation(ep).Add({2, 100});
  db.relation(ep).Add({3, 777});
  auto q = ParseConjunctive("g(e) :- EP(e, p), EP(e, r).").ValueOrDie();
  VarId p = q.vars.Find("p"), r = q.vars.Find("r");
  IneqFormula phi;
  int diff = phi.AddAtom({CompareOp::kNeq, Term::Var(p), Term::Var(r)});
  int marked = phi.AddAtom({CompareOp::kNeq, Term::Var(p), Term::Const(777)});
  phi.root = phi.AddOr({diff, marked});
  auto out = IneqFormulaEvaluate(db, q, phi, {}, Certified()).ValueOrDie();
  auto truth = NaiveFormulaEvaluate(db, q, phi);
  EXPECT_TRUE(out.EqualsAsSet(truth));
  // Employees 1, 2 satisfy via p != 777; employee 1 also via p != r;
  // employee 3 fails both (only project 777).
  EXPECT_TRUE(out.Contains(std::vector<Value>{1}));
  EXPECT_TRUE(out.Contains(std::vector<Value>{2}));
  EXPECT_FALSE(out.Contains(std::vector<Value>{3}));
}

TEST(IneqFormulaEvalTest, RejectsBodyComparisonsAndFreeFormulaVars) {
  Database db = GraphDatabase(PathGraph(3));
  auto with_cmp = ParseConjunctive("p() :- E(x, y), x != y.").ValueOrDie();
  IneqFormula phi;
  phi.root = phi.AddAtom({CompareOp::kNeq, Term::Var(0), Term::Var(1)});
  EXPECT_FALSE(IneqFormulaNonempty(db, with_cmp, phi).ok());

  auto clean = ParseConjunctive("p() :- E(x, y).").ValueOrDie();
  IneqFormula ghost;
  ghost.root = ghost.AddAtom({CompareOp::kNeq, Term::Var(7), Term::Var(0)});
  EXPECT_FALSE(IneqFormulaNonempty(db, clean, ghost).ok());
}

TEST(IneqFormulaEvalTest, ParameterVRefinementPushesVarConstConjuncts) {
  // The body may carry x != c conjuncts: they are pushed into selections
  // and do not enlarge the hash range (the paper's parameter-v case).
  Database db = GraphDatabase(PathGraph(5));
  auto q = ParseConjunctive("ans(x) :- E(x, y), E(y, z), x != 0, z != 4.")
               .ValueOrDie();
  VarId x = q.vars.Find("x"), z = q.vars.Find("z");
  IneqFormula phi;
  phi.root = phi.AddAtom({CompareOp::kNeq, Term::Var(x), Term::Var(z)});
  IneqOptions certified;
  certified.driver = IneqOptions::Driver::kCertified;
  IneqStats stats;
  auto out = IneqFormulaEvaluate(db, q, phi, {}, certified, &stats).ValueOrDie();
  // Hash range covers only the two formula variables, not the constants.
  EXPECT_EQ(stats.k, 2);
  EXPECT_EQ(stats.i2_atoms, 2u);
  // Ground truth via naive with all atoms as plain comparisons.
  auto naive_q = ParseConjunctive(
                     "ans(x) :- E(x, y), E(y, z), x != 0, z != 4, x != z.")
                     .ValueOrDie();
  auto truth = NaiveEvaluateCq(db, naive_q).ValueOrDie();
  EXPECT_TRUE(out.EqualsAsSet(truth));
}

TEST(IneqFormulaEvalTest, DecisionMatchesEvaluation) {
  Database db = GraphDatabase(GnpRandom(12, 0.3, 5));
  auto q = ParseConjunctive("p() :- E(a, b), E(b, c), E(c, d).").ValueOrDie();
  IneqFormula phi;
  VarId a = q.vars.Find("a"), c = q.vars.Find("c"), d = q.vars.Find("d");
  int x = phi.AddAtom({CompareOp::kNeq, Term::Var(a), Term::Var(c)});
  int y = phi.AddAtom({CompareOp::kNeq, Term::Var(a), Term::Var(d)});
  phi.root = phi.AddAnd({x, y});
  bool dec = IneqFormulaNonempty(db, q, phi, {}, Certified()).ValueOrDie();
  auto full = IneqFormulaEvaluate(db, q, phi, {}, Certified()).ValueOrDie();
  EXPECT_EQ(dec, !full.empty());
}

// The main property: formula-mode evaluation equals the DNF-expanded naive
// ground truth on random instances.
class IneqFormulaPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IneqFormulaPropertyTest, MatchesDnfGroundTruth) {
  Rng rng(GetParam());
  Database db = RandomBinaryDatabase(2, 8 + static_cast<int>(rng.Below(18)),
                                     6, rng.Next());
  ConjunctiveQuery q =
      RandomAcyclicNeqQuery(2, 2 + static_cast<int>(rng.Below(3)), 0,
                            rng.Next());
  q.head = {Term::Var(0)};
  std::vector<VarId> pool = q.BodyVariables();
  // Random two-level formula: OR of ANDs of random != atoms.
  IneqFormula phi;
  std::vector<int> disjuncts;
  int num_disjuncts = 1 + static_cast<int>(rng.Below(3));
  for (int d = 0; d < num_disjuncts; ++d) {
    std::vector<int> conj;
    int width = 1 + static_cast<int>(rng.Below(2));
    for (int i = 0; i < width; ++i) {
      VarId x = pool[rng.Below(pool.size())];
      if (rng.Chance(0.25)) {
        conj.push_back(phi.AddAtom(
            {CompareOp::kNeq, Term::Var(x), Term::Const(rng.Range(0, 5))}));
      } else {
        VarId y = pool[rng.Below(pool.size())];
        if (x == y) {
          conj.push_back(phi.AddAtom(
              {CompareOp::kNeq, Term::Var(x), Term::Const(rng.Range(0, 5))}));
        } else {
          conj.push_back(
              phi.AddAtom({CompareOp::kNeq, Term::Var(x), Term::Var(y)}));
        }
      }
    }
    disjuncts.push_back(conj.size() == 1 ? conj[0] : phi.AddAnd(conj));
  }
  phi.root = disjuncts.size() == 1 ? disjuncts[0] : phi.AddOr(disjuncts);

  IneqStats stats;
  auto out = IneqFormulaEvaluate(db, q, phi, {}, Certified(), &stats).ValueOrDie();
  auto truth = NaiveFormulaEvaluate(db, q, phi);
  EXPECT_TRUE(out.EqualsAsSet(truth))
      << q.ToString() << "\nphi: " << phi.ToString(q.vars)
      << "\nk=" << stats.k;
  EXPECT_EQ(IneqFormulaNonempty(db, q, phi, {}, Certified()).ValueOrDie(),
            !truth.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, IneqFormulaPropertyTest,
                         ::testing::Range<uint64_t>(1, 41));

}  // namespace
}  // namespace paraquery
