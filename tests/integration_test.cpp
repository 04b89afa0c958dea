// Cross-engine integration tests: independent evaluation paths must agree
// on the same queries — the strongest correctness signal the library has.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/engine.hpp"
#include "eval/acyclic.hpp"
#include "eval/datalog_eval.hpp"
#include "eval/fo.hpp"
#include "eval/inequality.hpp"
#include "eval/naive.hpp"
#include "eval/ucq.hpp"
#include "graph/generators.hpp"
#include "query/parser.hpp"
#include "workload/generators.hpp"

namespace paraquery {
namespace {

// Three-way agreement on acyclic ≠-queries: engine facade, Theorem 2
// evaluator (certified), naive backtracking.
class ThreeWayAgreementTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ThreeWayAgreementTest, EngineIneqNaiveAgree) {
  Rng rng(GetParam());
  Database db = RandomBinaryDatabase(3, 30, 8, rng.Next());
  ConjunctiveQuery q = RandomAcyclicNeqQuery(3, 4, 3, rng.Next());
  q.head = {Term::Var(0)};
  IneqOptions certified;
  certified.driver = IneqOptions::Driver::kCertified;
  EngineOptions eo;
  eo.inequality = certified;
  Engine engine(db, eo);

  auto via_engine = engine.Run(q).ValueOrDie();
  auto via_ineq = IneqEvaluate(db, q, {}, certified).ValueOrDie();
  auto via_naive = NaiveEvaluateCq(db, q).ValueOrDie();
  EXPECT_TRUE(via_engine.EqualsAsSet(via_naive)) << q.ToString();
  EXPECT_TRUE(via_ineq.EqualsAsSet(via_naive)) << q.ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ThreeWayAgreementTest,
                         ::testing::Range<uint64_t>(1, 26));

// Positive queries: the UCQ expansion and the first-order evaluator are
// entirely different code paths that must produce identical answers.
class PositiveVsFoTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PositiveVsFoTest, UcqAndFoAgree) {
  Rng rng(GetParam());
  Database db = RandomBinaryDatabase(2, 25, 6, rng.Next());
  // Random positive formula in FO syntax over R0/R1.
  const char* shapes[] = {
      "ans(x) := exists y . (R0(x, y) or R1(y, x)).",
      "ans(x) := exists y . (R0(x, y) and (R1(x, y) or R0(y, x))).",
      "ans(x) := (exists y . R0(x, y)) or (exists y . R1(x, y)).",
      "ans(x) := exists y, z . (R0(x, y) and R1(y, z)).",
      "ans(x) := exists y . (R0(x, y) and exists z . (R1(y, z) or R0(z, y))).",
  };
  const char* text = shapes[rng.Below(5)];
  auto fo = ParseFirstOrder(text).ValueOrDie();
  auto positive = PositiveQuery::FromFirstOrder(fo).ValueOrDie();
  auto via_ucq = EvaluatePositive(db, positive).ValueOrDie();
  auto via_fo = EvaluateFirstOrder(db, fo).ValueOrDie();
  EXPECT_TRUE(via_ucq.EqualsAsSet(via_fo)) << text;
}

INSTANTIATE_TEST_SUITE_P(Seeds, PositiveVsFoTest,
                         ::testing::Range<uint64_t>(1, 31));

// Non-recursive Datalog equals the corresponding conjunctive query.
TEST(DatalogVsCqTest, NonRecursiveProgramMatchesCq) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Database db = RandomBinaryDatabase(1, 40, 10, seed);
    auto prog = ParseDatalog("ans(x, z) :- R0(x, y), R0(y, z).").ValueOrDie();
    auto cq = ParseConjunctive("ans(x, z) :- R0(x, y), R0(y, z).").ValueOrDie();
    auto via_datalog = EvaluateDatalog(db, prog).ValueOrDie();
    auto via_cq = NaiveEvaluateCq(db, cq).ValueOrDie();
    EXPECT_TRUE(via_datalog.EqualsAsSet(via_cq)) << "seed=" << seed;
  }
}

// Datalog TC equals FO-expressible bounded reachability on short chains.
TEST(DatalogVsFoTest, BoundedReachabilityAgrees) {
  Database db = GraphDatabase(PathGraph(5));
  auto tc = EvaluateDatalog(db, TransitiveClosureProgram()).ValueOrDie();
  // Paths of length <= 2 via FO (E is symmetric here).
  auto fo = ParseFirstOrder(
                "ans(x, y) := E(x, y) or (exists z . (E(x, z) and E(z, y))).")
                .ValueOrDie();
  auto two_hop = EvaluateFirstOrder(db, fo).ValueOrDie();
  // Every 2-hop pair is in TC.
  for (size_t r = 0; r < two_hop.size(); ++r) {
    std::vector<Value> row(two_hop.Row(r).begin(), two_hop.Row(r).end());
    if (row[0] == row[1]) continue;  // TC as defined has no x->x via E sym?
    EXPECT_TRUE(tc.Contains(row)) << row[0] << "," << row[1];
  }
}

// The decision variants agree with emptiness of the full evaluation, for
// every engine, on the same instances.
class DecisionConsistencyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DecisionConsistencyTest, NonemptyIffAnswersExist) {
  Rng rng(GetParam());
  Database db = RandomBinaryDatabase(2, 12, 5, rng.Next());
  ConjunctiveQuery q = RandomAcyclicNeqQuery(2, 3, 2, rng.Next());
  // Boolean version.
  ConjunctiveQuery boolean = q;
  boolean.head.clear();

  auto naive_full = NaiveEvaluateCq(db, boolean).ValueOrDie();
  EXPECT_EQ(NaiveCqNonempty(db, boolean).ValueOrDie(), !naive_full.empty());

  IneqOptions certified;
  certified.driver = IneqOptions::Driver::kCertified;
  auto fpt_full = IneqEvaluate(db, boolean, {}, certified).ValueOrDie();
  EXPECT_EQ(IneqNonempty(db, boolean, {}, certified).ValueOrDie(),
            !fpt_full.empty());

  if (!boolean.HasComparisons()) {
    auto acy_full = AcyclicEvaluate(db, boolean).ValueOrDie();
    EXPECT_EQ(AcyclicNonempty(db, boolean).ValueOrDie(), !acy_full.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecisionConsistencyTest,
                         ::testing::Range<uint64_t>(1, 21));

// End-to-end: the engine handles the paper's three running examples with
// ground truth computed independently.
TEST(PaperExamplesTest, AllThreeRunningExamples) {
  // 1. Employees on >1 project.
  Database ep = EmployeeProjects(300, 40, 1, 3, 13);
  Engine e1(ep);
  auto multi = e1.Run(MultiProjectQuery()).ValueOrDie();
  EXPECT_TRUE(multi.EqualsAsSet(
      NaiveEvaluateCq(ep, MultiProjectQuery()).ValueOrDie()));

  // 2. Students outside their department.
  Database uni = StudentCourses(400, 60, 6, 3, 0.4, 17);
  Engine e2(uni);
  auto outside = e2.Run(OutsideDepartmentQuery()).ValueOrDie();
  EXPECT_TRUE(outside.EqualsAsSet(
      NaiveEvaluateCq(uni, OutsideDepartmentQuery()).ValueOrDie()));

  // 3. Employees paid more than their manager (comparisons).
  Database firm = EmployeeSalaries(200, 5000, 19);
  Engine e3(firm);
  auto higher = e3.Run(HigherPaidThanManagerQuery()).ValueOrDie();
  EXPECT_TRUE(higher.EqualsAsSet(
      NaiveEvaluateCq(firm, HigherPaidThanManagerQuery()).ValueOrDie()));
}

// Width differential on the row executor: every plan-routed engine answers
// byte for byte as at one thread when it runs at threads 4, or with small
// morsels so that tiny inputs split, and a CQ's answer equals the
// backtracking oracle's byte for byte.
struct WidthSetting {
  size_t threads;
  size_t morsel_rows;
};

constexpr WidthSetting kWidths[] = {
    {1, 32}, {4, kDefaultMorselRows}, {4, 32}};

Engine MakeEngine(const Database& db, const WidthSetting& w) {
  EngineOptions options;
  options.threads = w.threads;
  options.morsel_rows = w.morsel_rows;
  return Engine(db, options);
}

std::string WidthTrace(const WidthSetting& w) {
  return "threads=" + std::to_string(w.threads) +
         " morsel_rows=" + std::to_string(w.morsel_rows);
}

struct EngineWorkload {
  const char* label;
  const char* text;
  bool cq;
};

constexpr EngineWorkload kWorkloads[] = {
    {"cyclic_triangle", "ans(x) :- E(x, y), E(y, z), E(z, x).", true},
    {"cyclic_ineq", "ans(x, z) :- E(x, y), E(y, z), x != z.", true},
    {"ucq", "ans(x) := exists y . (E(x, y) or E(y, x)).", false},
    {"datalog", "tc(x, y) :- E(x, y).\ntc(x, y) :- E(x, z), tc(z, y).\n",
     false},
};

TEST(RowPathDifferentialTest, ByteIdenticalAcrossEnginesAndWidths) {
  for (uint64_t seed : {3u, 11u, 29u}) {
    Database big = GraphDatabase(GnpRandom(120, 4.0 / 120, seed));
    Database small = GraphDatabase(GnpRandom(12, 0.3, seed));
    for (Database* db : {&big, &small}) {
      Engine reference(*db);
      for (const EngineWorkload& w : kWorkloads) {
        SCOPED_TRACE(std::string(w.label) + " seed=" + std::to_string(seed) +
                     (db == &big ? " big" : " small"));
        auto want = reference.RunText(w.text);
        ASSERT_TRUE(want.ok()) << want.status();
        if (w.cq) {
          auto q = ParseConjunctive(w.text).ValueOrDie();
          Relation oracle = BacktrackEvaluateCq(*db, q).ValueOrDie();
          ASSERT_EQ(want.value().size(), oracle.size());
          EXPECT_TRUE(want.value().data() == oracle.data());
        }
        for (const WidthSetting& width : kWidths) {
          SCOPED_TRACE(WidthTrace(width));
          auto got = MakeEngine(*db, width).RunText(w.text);
          ASSERT_TRUE(got.ok()) << got.status();
          ASSERT_EQ(got.value().arity(), want.value().arity());
          ASSERT_EQ(got.value().size(), want.value().size());
          EXPECT_TRUE(got.value().data() == want.value().data());
        }
      }
    }
  }
}

TEST(RowPathDifferentialTest, RandomCqsByteIdentical) {
  // Random CQs of two to four binary atoms over two relations, half of them
  // with a comparison (var != var, or var < const).
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed * 131 + 7);
    Database db;
    const char* names[] = {"R0", "R1"};
    for (const char* name : names) {
      RelId id = db.AddRelation(name, 2).ValueOrDie();
      int rows = 300 + static_cast<int>(rng.Below(300));
      for (int i = 0; i < rows; ++i) {
        db.relation(id).Add({rng.Range(0, 40), rng.Range(0, 40)});
      }
    }
    ConjunctiveQuery q;
    int num_atoms = 2 + static_cast<int>(rng.Below(3));
    std::vector<VarId> pool = {q.vars.Intern("v0")};
    for (int i = 0; i < num_atoms; ++i) {
      VarId shared = pool[rng.Below(pool.size())];
      VarId fresh = q.vars.Intern(std::string("v") + std::to_string(i + 1));
      Atom a{names[rng.Below(2)], {Term::Var(shared), Term::Var(fresh)}};
      if (rng.Chance(0.5)) std::swap(a.terms[0], a.terms[1]);
      q.body.push_back(a);
      pool.push_back(fresh);
    }
    if (rng.Chance(0.5)) {
      VarId x = pool[rng.Below(pool.size())];
      VarId y = pool[rng.Below(pool.size())];
      if (x != y && rng.Chance(0.5)) {
        q.comparisons.push_back({CompareOp::kNeq, Term::Var(x), Term::Var(y)});
      } else {
        q.comparisons.push_back(
            {CompareOp::kLt, Term::Var(x), Term::Const(rng.Range(5, 35))});
      }
    }
    q.head = {Term::Var(pool[0]), Term::Var(pool[pool.size() / 2])};
    SCOPED_TRACE("seed=" + std::to_string(seed) + " q=" + q.ToString());
    auto want = Engine(db).Run(q);
    ASSERT_TRUE(want.ok()) << want.status();
    Relation oracle = BacktrackEvaluateCq(db, q).ValueOrDie();
    ASSERT_EQ(want.value().size(), oracle.size());
    EXPECT_TRUE(want.value().data() == oracle.data());
    for (const WidthSetting& width : kWidths) {
      SCOPED_TRACE(WidthTrace(width));
      auto got = MakeEngine(db, width).Run(q);
      ASSERT_TRUE(got.ok()) << got.status();
      ASSERT_EQ(got.value().size(), want.value().size());
      EXPECT_TRUE(got.value().data() == want.value().data());
    }
  }
}

}  // namespace
}  // namespace paraquery
