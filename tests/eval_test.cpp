// Tests for the naive, acyclic (Yannakakis), UCQ, FO, and Datalog engines.
// The Theorem 2 inequality engine has its own file (inequality_test.cpp).
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "eval/acyclic.hpp"
#include "eval/common.hpp"
#include "eval/datalog_eval.hpp"
#include "eval/fo.hpp"
#include "eval/naive.hpp"
#include "eval/ucq.hpp"
#include "graph/generators.hpp"
#include "plan/executor.hpp"
#include "query/parser.hpp"
#include "runtime/scheduler.hpp"

namespace paraquery {
namespace {

// Builds a database with a binary edge relation E from a graph (symmetric).
Database GraphDb(const Graph& g) {
  Database db;
  RelId e = db.AddRelation("E", 2).ValueOrDie();
  for (int u = 0; u < g.num_vertices(); ++u) {
    for (int v : g.Neighbors(u)) db.relation(e).Add({u, v});
  }
  return db;
}

Database MakeDb(
    const std::vector<std::pair<std::string, std::vector<ValueVec>>>& rels,
    const std::vector<size_t>& arities) {
  Database db;
  for (size_t i = 0; i < rels.size(); ++i) {
    RelId id = db.AddRelation(rels[i].first, arities[i]).ValueOrDie();
    for (const auto& row : rels[i].second) db.relation(id).Add(row);
  }
  return db;
}

TEST(AtomToRelationTest, ConstantsAndRepeats) {
  Relation r(3);
  r.Add({1, 1, 5});
  r.Add({1, 2, 5});
  r.Add({2, 2, 5});
  r.Add({1, 1, 6});
  // R(x, x, 5): rows with col0 == col1 and col2 == 5, projected to x.
  Atom a{"R", {Term::Var(0), Term::Var(0), Term::Const(5)}};
  auto out = AtomToRelation(r, a).ValueOrDie();
  EXPECT_EQ(out.attrs(), (std::vector<AttrId>{0}));
  EXPECT_EQ(out.size(), 2u);  // x in {1, 2}
}

TEST(AtomToRelationTest, FiltersArePushed) {
  Relation r(2);
  r.Add({1, 2});
  r.Add({2, 2});
  r.Add({3, 4});
  Atom a{"R", {Term::Var(0), Term::Var(1)}};
  CompareAtom neq{CompareOp::kNeq, Term::Var(0), Term::Var(1)};
  auto out = AtomToRelation(r, a, {neq}).ValueOrDie();
  EXPECT_EQ(out.size(), 2u);
  CompareAtom lt{CompareOp::kLt, Term::Const(2), Term::Var(0)};  // 2 < x
  auto out2 = AtomToRelation(r, a, {lt}).ValueOrDie();
  EXPECT_EQ(out2.size(), 1u);
}

TEST(AtomToRelationTest, ArityMismatchFails) {
  Relation r(2);
  Atom a{"R", {Term::Var(0)}};
  EXPECT_FALSE(AtomToRelation(r, a).ok());
}

TEST(NaiveTest, PathQueryOnTriangle) {
  Database db = GraphDb(CycleGraph(3));
  auto q = ParseConjunctive("ans(x, z) :- E(x, y), E(y, z).").ValueOrDie();
  auto out = NaiveEvaluateCq(db, q).ValueOrDie();
  // Symmetric triangle: every ordered pair (including x=z) is an answer.
  EXPECT_EQ(out.size(), 9u);
}

TEST(NaiveTest, InequalityFilters) {
  Database db = GraphDb(CycleGraph(3));
  auto q = ParseConjunctive("ans(x, z) :- E(x, y), E(y, z), x != z.")
               .ValueOrDie();
  auto out = NaiveEvaluateCq(db, q).ValueOrDie();
  EXPECT_EQ(out.size(), 6u);
}

TEST(NaiveTest, BooleanDecision) {
  Database db = GraphDb(PathGraph(4));
  auto tri = ParseConjunctive("p() :- E(x, y), E(y, z), E(z, x), x != y, "
                              "y != z, x != z.")
                 .ValueOrDie();
  EXPECT_FALSE(NaiveCqNonempty(db, tri).ValueOrDie());
  Database db2 = GraphDb(CycleGraph(3));
  EXPECT_TRUE(NaiveCqNonempty(db2, tri).ValueOrDie());
}

TEST(NaiveTest, ContainsBindsHead) {
  Database db = GraphDb(PathGraph(4));
  auto q = ParseConjunctive("ans(x, z) :- E(x, y), E(y, z).").ValueOrDie();
  EXPECT_TRUE(NaiveCqContains(db, q, {0, 2}).ValueOrDie());
  EXPECT_FALSE(NaiveCqContains(db, q, {0, 3}).ValueOrDie());
  EXPECT_FALSE(NaiveCqContains(db, q, {0}).ok());  // arity mismatch
}

TEST(NaiveTest, StepLimit) {
  Database db = GraphDb(CompleteGraph(30));
  auto q = ParseConjunctive(
               "p() :- E(a,b), E(b,c), E(c,d), E(d,e), E(e,f), E(f,g), "
               "E(g,h), E(h,a), a != b.")
               .ValueOrDie();
  EvalContext limited;
  limited.limits.max_steps = 10;
  auto full = NaiveEvaluateCq(db, q, limited);
  EXPECT_EQ(full.status().code(), StatusCode::kResourceExhausted);
}

TEST(NaiveTest, ConstantHead) {
  Database db = GraphDb(PathGraph(3));
  auto q = ParseConjunctive("ans(x, 99) :- E(x, y).").ValueOrDie();
  auto out = NaiveEvaluateCq(db, q).ValueOrDie();
  for (size_t r = 0; r < out.size(); ++r) EXPECT_EQ(out.At(r, 1), 99);
}

TEST(AcyclicTest, RejectsCyclicAndComparisons) {
  Database db = GraphDb(CycleGraph(3));
  auto cyclic =
      ParseConjunctive("p() :- E(x,y), E(y,z), E(z,x).").ValueOrDie();
  EXPECT_FALSE(AcyclicNonempty(db, cyclic).ok());
  auto with_cmp =
      ParseConjunctive("p() :- E(x,y), x != y.").ValueOrDie();
  EXPECT_FALSE(AcyclicNonempty(db, with_cmp).ok());
}

TEST(AcyclicTest, DecisionMatchesNaive) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Database db = GraphDb(GnpRandom(12, 0.25, seed));
    auto q = ParseConjunctive(
                 "p() :- E(a,b), E(b,c), E(c,d), E(d,e).")
                 .ValueOrDie();
    EXPECT_EQ(AcyclicNonempty(db, q).ValueOrDie(),
              NaiveCqNonempty(db, q).ValueOrDie())
        << "seed=" << seed;
  }
}

TEST(AcyclicTest, EvaluationMatchesNaiveOnPathQueries) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Database db = GraphDb(GnpRandom(10, 0.3, seed));
    auto q = ParseConjunctive("ans(a, d) :- E(a,b), E(b,c), E(c,d).")
                 .ValueOrDie();
    auto yann = AcyclicEvaluate(db, q).ValueOrDie();
    auto naive = NaiveEvaluateCq(db, q).ValueOrDie();
    EXPECT_TRUE(yann.EqualsAsSet(naive)) << "seed=" << seed;
  }
}

TEST(AcyclicTest, StarJoinWithConstants) {
  Database db = MakeDb({{"R", {{1, 2}, {1, 3}, {2, 4}}},
                        {"S", {{1, 7}, {2, 8}}},
                        {"T", {{1}, {9}}}},
                       {2, 2, 1});
  auto q = ParseConjunctive("ans(x, y, w) :- R(x, y), S(x, w), T(x).")
               .ValueOrDie();
  auto out = AcyclicEvaluate(db, q).ValueOrDie();
  auto naive = NaiveEvaluateCq(db, q).ValueOrDie();
  EXPECT_TRUE(out.EqualsAsSet(naive));
  EXPECT_EQ(out.size(), 2u);  // (1,2,7), (1,3,7)
}

TEST(AcyclicTest, FullReducerAblationStillCorrect) {
  Database db = GraphDb(GnpRandom(10, 0.4, 5));
  auto q = ParseConjunctive("ans(a, c) :- E(a,b), E(b,c), E(c,d).")
               .ValueOrDie();
  EvalContext no_reducer;
  no_reducer.planner.full_reducer = false;
  auto fast = AcyclicEvaluate(db, q).ValueOrDie();
  auto slow = AcyclicEvaluate(db, q, no_reducer).ValueOrDie();
  EXPECT_TRUE(fast.EqualsAsSet(slow));
}

TEST(AcyclicTest, StatsCountZeroCopyViews) {
  Database db = MakeDb({{"R", {{1, 2}, {3, 4}}}, {"S", {{1, 2}, {5, 6}}}},
                       {2, 2});
  auto q = ParseConjunctive("ans(x, y) :- R(x, y), S(x, y).").ValueOrDie();
  PlanStats stats;
  auto out = AcyclicEvaluate(db, q, {}, &stats).ValueOrDie();
  EXPECT_EQ(out.size(), 1u);  // R ∩ S = {(1,2)}
  // Both atoms are constant- and repetition-free, so S_j is a zero-copy view
  // over the stored relation; the child-to-parent projection and the root
  // projection would be no-ops, so the plan has no Project node at all.
  EXPECT_EQ(stats.shared_atom_storage, 2u);
  EXPECT_EQ(stats.projections, 0u);

  // Over a stored bag, both atoms bind the set form cached on its storage,
  // and both still count.
  Database bag = MakeDb({{"R", {{1, 2}, {3, 4}, {1, 2}}}}, {2});
  auto rr = ParseConjunctive("ans(x, y) :- R(x, y), R(x, y).").ValueOrDie();
  PlanStats bag_stats;
  EXPECT_EQ(AcyclicEvaluate(bag, rr, {}, &bag_stats).ValueOrDie().size(), 2u);
  EXPECT_EQ(bag_stats.shared_atom_storage, 2u);

  // A no-op Project that does run is answered by a view.
  const NamedRelation r{{0, 1}, db.relation(0)};
  const NamedRelation* inputs[] = {&r};
  PlanNodePtr root = MakeProject(MakeScan(0, {0, 1}, "R", 2), {0, 1},
                                 /*dedup=*/true);
  PlanStats exec_stats;
  ExecContext ctx{inputs, {}, &exec_stats};
  auto projected = ExecutePlan(*root, ctx).ValueOrDie();
  EXPECT_TRUE(projected.rel().SharesStorageWith(r.rel()));
  EXPECT_EQ(exec_stats.zero_copy_projections, 1u);
}

TEST(AcyclicTest, DisconnectedQueryIsCrossProduct) {
  Database db = MakeDb({{"A", {{1}, {2}}}, {"B", {{7}, {8}}}}, {1, 1});
  auto q = ParseConjunctive("ans(x, y) :- A(x), B(y).").ValueOrDie();
  auto out = AcyclicEvaluate(db, q).ValueOrDie();
  EXPECT_EQ(out.size(), 4u);
}

TEST(AcyclicTest, EmptyRelationShortCircuits) {
  Database db = MakeDb({{"A", {{1}}}, {"B", {}}}, {1, 1});
  auto q = ParseConjunctive("ans(x) :- A(x), B(x).").ValueOrDie();
  EXPECT_FALSE(AcyclicNonempty(db, q).ValueOrDie());
  EXPECT_TRUE(AcyclicEvaluate(db, q).ValueOrDie().empty());
}

// Property sweep: random acyclic queries, Yannakakis == naive.
class AcyclicPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AcyclicPropertyTest, MatchesNaiveOnRandomAcyclicQueries) {
  Rng rng(GetParam());
  // Random database with three binary relations over a small domain.
  Database db;
  const char* names[] = {"R0", "R1", "R2"};
  for (const char* name : names) {
    RelId id = db.AddRelation(name, 2).ValueOrDie();
    int rows = 10 + static_cast<int>(rng.Below(20));
    for (int i = 0; i < rows; ++i) {
      db.relation(id).Add({rng.Range(0, 7), rng.Range(0, 7)});
    }
  }
  // Random acyclic query: atoms chained along a random tree over variables.
  ConjunctiveQuery q;
  int num_atoms = 2 + static_cast<int>(rng.Below(4));
  std::vector<VarId> pool;
  pool.push_back(q.vars.Intern("v0"));
  for (int i = 0; i < num_atoms; ++i) {
    VarId shared = pool[rng.Below(pool.size())];
    std::string fresh_name = std::string("v") + std::to_string(i + 1);
    VarId fresh = q.vars.Intern(fresh_name);
    Atom a{names[rng.Below(3)], {Term::Var(shared), Term::Var(fresh)}};
    if (rng.Chance(0.5)) std::swap(a.terms[0], a.terms[1]);
    q.body.push_back(a);
    pool.push_back(fresh);
  }
  q.head = {Term::Var(pool[0]), Term::Var(pool[pool.size() / 2])};
  ASSERT_TRUE(q.IsAcyclic());
  auto yann = AcyclicEvaluate(db, q).ValueOrDie();
  auto naive = NaiveEvaluateCq(db, q).ValueOrDie();
  EXPECT_TRUE(yann.EqualsAsSet(naive)) << q.ToString();
  EXPECT_EQ(AcyclicNonempty(db, q).ValueOrDie(), !naive.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, AcyclicPropertyTest,
                         ::testing::Range<uint64_t>(1, 31));

TEST(UcqTest, UnionOfPaths) {
  Database db = GraphDb(PathGraph(4));
  auto q = ParsePositive(
               "ans(x) := A(x) or (exists y . E(x, y)).")
               .ValueOrDie();
  // A missing would fail; add an A relation.
  db.AddRelation("A", 1).ValueOrDie();
  db.relation(db.FindRelation("A").ValueOrDie()).Add({99});
  auto out = EvaluatePositive(db, q).ValueOrDie();
  // E endpoints 0..3 all have a neighbor; plus 99 from A.
  EXPECT_EQ(out.size(), 5u);
  EXPECT_TRUE(out.Contains(std::vector<Value>{99}));
}

TEST(UcqTest, DistributedConjunction) {
  Database db = MakeDb({{"A", {{1}, {2}}},
                        {"B", {{2}, {3}}},
                        {"C", {{2}, {4}}},
                        {"D", {{2}, {5}}}},
                       {1, 1, 1, 1});
  auto q = ParsePositive(
               "ans(x) := (A(x) or B(x)) and (C(x) or D(x)).")
               .ValueOrDie();
  auto out = EvaluatePositive(db, q).ValueOrDie();
  EXPECT_EQ(out.size(), 1u);  // only 2 satisfies both sides
  EXPECT_TRUE(PositiveNonempty(db, q).ValueOrDie());
}

TEST(UcqTest, NonemptyShortCircuits) {
  Database db = MakeDb({{"A", {{1}}}, {"B", {}}}, {1, 1});
  auto q = ParsePositive("p() := (exists x . A(x)) or (exists x . B(x)).")
               .ValueOrDie();
  EXPECT_TRUE(PositiveNonempty(db, q).ValueOrDie());
  auto q2 = ParsePositive("p() := exists x . B(x).").ValueOrDie();
  EXPECT_FALSE(PositiveNonempty(db, q2).ValueOrDie());
}

TEST(UcqTest, DisjunctAnswersMergeSortedAtEveryWidth) {
  // Each disjunct's answer is sorted in its own task and the parts are
  // merged once: the union comes out sorted, duplicate-free and marked
  // sorted, byte-identical at threads 1 and 4, for overlapping, disjoint
  // and empty disjuncts and for Boolean (arity 0) unions.
  Rng rng(11);
  std::vector<std::vector<Value>> a, b, c;
  for (int i = 0; i < 400; ++i) {
    a.push_back({rng.Range(0, 30), rng.Range(0, 30)});
    b.push_back({rng.Range(0, 30), rng.Range(0, 30)});  // overlaps A
    c.push_back({rng.Range(100, 130), rng.Range(0, 30)});  // disjoint
  }
  Database db = MakeDb({{"A", a}, {"B", b}, {"C", c}, {"Z", {}}}, {2, 2, 2, 2});
  auto sorted_union = [&db](std::vector<std::string> rels, bool flip) {
    Relation out(2);
    for (const std::string& name : rels) {
      const Relation& r = db.relation(db.FindRelation(name).ValueOrDie());
      for (size_t i = 0; i < r.size(); ++i) {
        if (flip && name != rels[0]) {
          out.Add(std::vector<Value>{r.At(i, 1), r.At(i, 0)});
        } else {
          out.Add(r.Row(i));
        }
      }
    }
    out.SortAndDedup();
    return out;
  };
  struct Case {
    const char* text;
    Relation expected;
  };
  const Case cases[] = {
      {"g(x, y) := A(x, y) or B(x, y).", sorted_union({"A", "B"}, false)},
      {"g(x, y) := A(x, y) or B(y, x).", sorted_union({"A", "B"}, true)},
      {"g(x, y) := A(x, y) or C(x, y).", sorted_union({"A", "C"}, false)},
      {"g(x, y) := A(x, y) or Z(x, y).", sorted_union({"A"}, false)},
      {"g(x, y) := Z(x, y) or Z(y, x).", Relation(2)},
      {"g(x, y) := A(x, y) or B(x, y) or C(x, y) or Z(x, y).",
       sorted_union({"A", "B", "C"}, false)},
  };
  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE(threads);
    TaskScheduler scheduler(threads);
    EvalContext ctx;
    ctx.runtime = RuntimeOptions{&scheduler, 64};
    for (const Case& k : cases) {
      SCOPED_TRACE(k.text);
      Relation out =
          EvaluatePositive(db, ParsePositive(k.text).ValueOrDie(), ctx)
              .ValueOrDie();
      EXPECT_TRUE(out.sorted());
      EXPECT_TRUE(out.StrictlyIncreasing());
      EXPECT_TRUE(out.data() == k.expected.data())
          << out.size() << " vs " << k.expected.size();
    }
    for (const auto& [text, truth] :
         {std::pair<const char*, size_t>{
              "p() := (exists x, y . A(x, y)) or (exists x, y . Z(x, y)).",
              1},
          {"p() := (exists x, y . Z(x, y)) or (exists x, y . Z(y, x)).", 0},
          {"p() := (exists x, y . A(x, y)) or (exists x, y . C(x, y)).",
           1}}) {
      SCOPED_TRACE(text);
      Relation out =
          EvaluatePositive(db, ParsePositive(text).ValueOrDie(), ctx)
              .ValueOrDie();
      EXPECT_EQ(out.arity(), 0u);
      EXPECT_EQ(out.size(), truth);
    }
  }
}

TEST(FoTest, NegationComplementsActiveDomain) {
  Database db = MakeDb({{"A", {{1}, {2}}}, {"U", {{1}, {2}, {3}}}}, {1, 1});
  auto q = ParseFirstOrder("ans(x) := U(x) and not A(x).").ValueOrDie();
  auto out = EvaluateFirstOrder(db, q).ValueOrDie();
  EXPECT_EQ(out.size(), 1u);
  EXPECT_TRUE(out.Contains(std::vector<Value>{3}));
}

TEST(FoTest, ForallAsDivision) {
  // Vertices adjacent to every vertex of U.
  Database db = MakeDb({{"E", {{1, 10}, {1, 11}, {2, 10}}},
                        {"U", {{10}, {11}}}},
                       {2, 1});
  auto q = ParseFirstOrder(
               "ans(x) := (exists y . E(x, y)) and "
               "(forall z . (not U(z) or E(x, z))).")
               .ValueOrDie();
  auto out = EvaluateFirstOrder(db, q).ValueOrDie();
  EXPECT_EQ(out.size(), 1u);
  EXPECT_TRUE(out.Contains(std::vector<Value>{1}));
}

TEST(FoTest, ShadowedVariableEvaluatesCorrectly) {
  // q(x) := exists y. (E(x,y) and forall x. (not E(y,x) or A(x)))
  // The inner x is independent of the outer x.
  Database db = MakeDb({{"E", {{1, 2}, {2, 3}, {2, 4}, {5, 6}, {6, 7}}},
                        {"A", {{3}, {4}}}},
                       {2, 1});
  auto q = ParseFirstOrder(
               "ans(x) := exists y . (E(x, y) and forall x . "
               "(not E(y, x) or A(x))).")
               .ValueOrDie();
  auto out = EvaluateFirstOrder(db, q).ValueOrDie();
  // x=1: y=2, successors of 2 are {3,4} ⊆ A: yes.
  // x=5: y=6, successor 7 ∉ A: no. x=2: y∈{3,4} have no successors: yes
  // (vacuous). x=6: y=7 no successors: yes (vacuous).
  EXPECT_TRUE(out.Contains(std::vector<Value>{1}));
  EXPECT_FALSE(out.Contains(std::vector<Value>{5}));
  EXPECT_TRUE(out.Contains(std::vector<Value>{2}));
  EXPECT_TRUE(out.Contains(std::vector<Value>{6}));
}

TEST(FoTest, DeMorganEquivalence) {
  // not (A or B) == (not A) and (not B) over the active domain.
  Database db = MakeDb({{"A", {{1}, {2}}}, {"B", {{2}, {3}}},
                        {"U", {{1}, {2}, {3}, {4}}}},
                       {1, 1, 1});
  auto lhs = ParseFirstOrder("ans(x) := not (A(x) or B(x)).").ValueOrDie();
  auto rhs = ParseFirstOrder("ans(x) := not A(x) and not B(x).").ValueOrDie();
  auto l = EvaluateFirstOrder(db, lhs).ValueOrDie();
  auto r = EvaluateFirstOrder(db, rhs).ValueOrDie();
  EXPECT_TRUE(l.EqualsAsSet(r));
  EXPECT_EQ(l.size(), 1u);  // only 4
}

TEST(FoTest, ForallNotEqualsNotExistsNot) {
  Database db = GraphDb(GnpRandom(6, 0.4, 3));
  auto lhs =
      ParseFirstOrder("ans(x) := E(x, x) or forall y . E(x, y).").ValueOrDie();
  auto rhs = ParseFirstOrder(
                 "ans(x) := E(x, x) or not (exists y . not E(x, y)).")
                 .ValueOrDie();
  auto l = EvaluateFirstOrder(db, lhs).ValueOrDie();
  auto r = EvaluateFirstOrder(db, rhs).ValueOrDie();
  EXPECT_TRUE(l.EqualsAsSet(r));
}

TEST(FoTest, ComparisonAtoms) {
  Database db = MakeDb({{"A", {{1}, {2}, {3}}}}, {1});
  auto q = ParseFirstOrder("ans(x) := A(x) and x < 3 and x != 1.")
               .ValueOrDie();
  auto out = EvaluateFirstOrder(db, q).ValueOrDie();
  EXPECT_EQ(out.size(), 1u);
  EXPECT_TRUE(out.Contains(std::vector<Value>{2}));
}

TEST(FoTest, EmptyActiveDomainRejected) {
  Database db;
  db.AddRelation("A", 1).ValueOrDie();
  auto q = ParseFirstOrder("p() := exists x . A(x).").ValueOrDie();
  EXPECT_FALSE(EvaluateFirstOrder(db, q).ok());
}

TEST(FoTest, RowLimitEnforced) {
  Database db = MakeDb({{"A", {}}}, {1});
  RelId a = db.FindRelation("A").ValueOrDie();
  for (Value v = 0; v < 200; ++v) db.relation(a).Add({v});
  auto q = ParseFirstOrder(
               "p() := exists x, y, z . (not A(x) or x != y or y != z).")
               .ValueOrDie();
  FoOptions tight;
  tight.max_rows = 1000;
  EXPECT_EQ(EvaluateFirstOrder(db, q, {}, tight).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(DatalogTest, TransitiveClosure) {
  Database db;
  RelId e = db.AddRelation("E", 2).ValueOrDie();
  db.relation(e).Add({1, 2});
  db.relation(e).Add({2, 3});
  db.relation(e).Add({3, 4});
  auto prog = ParseDatalog(
                  "tc(x, y) :- E(x, y).\n"
                  "tc(x, y) :- E(x, z), tc(z, y).\n")
                  .ValueOrDie();
  DatalogStats stats;
  auto out = EvaluateDatalog(db, prog, {}, {}, &stats).ValueOrDie();
  EXPECT_EQ(out.size(), 6u);  // all pairs i<j in the chain
  EXPECT_TRUE(out.Contains(std::vector<Value>{1, 4}));
  EXPECT_FALSE(out.Contains(std::vector<Value>{4, 1}));
  EXPECT_GE(stats.iterations, 3u);
}

TEST(DatalogTest, SameEdbAtomAcrossRulesSharesOneMaterialization) {
  Database db;
  RelId e = db.AddRelation("E", 2).ValueOrDie();
  db.relation(e).Add({1, 2});
  db.relation(e).Add({2, 3});
  // Three body atoms over E with the same shape (two distinct variables),
  // under three different variable namings: one program-wide materialization
  // serves all of them through relabeled views.
  auto prog = ParseDatalog(
                  "p(x) :- E(x, y).\n"
                  "q(x) :- E(y, x).\n"
                  "g(x) :- p(x), q(x), E(x, z).\n"
                  "@goal g.\n")
                  .ValueOrDie();
  DatalogStats stats;
  auto out = EvaluateDatalog(db, prog, {}, {}, &stats).ValueOrDie();
  EXPECT_EQ(stats.edb_materializations, 1u);
  EXPECT_EQ(stats.edb_cache_hits, 2u);
  // g = heads(E) ∩ tails(E) ∩ heads(E) = {2}.
  EXPECT_EQ(out.size(), 1u);
  EXPECT_TRUE(out.Contains(std::vector<Value>{2}));
}

TEST(DatalogTest, DifferentEdbAtomShapesDoNotShare) {
  Database db;
  RelId e = db.AddRelation("E", 2).ValueOrDie();
  db.relation(e).Add({1, 1});
  db.relation(e).Add({1, 2});
  // E(x, y), E(x, x) (repeated variable), and E(x, 1) (constant) select
  // different row sets: three distinct cache entries, no false sharing.
  auto prog = ParseDatalog(
                  "a(x) :- E(x, y).\n"
                  "b(x) :- E(x, x).\n"
                  "c(x) :- E(x, 1).\n"
                  "g(x) :- a(x), b(x), c(x).\n"
                  "@goal g.\n")
                  .ValueOrDie();
  DatalogStats stats;
  auto out = EvaluateDatalog(db, prog, {}, {}, &stats).ValueOrDie();
  EXPECT_EQ(stats.edb_materializations, 3u);
  EXPECT_EQ(stats.edb_cache_hits, 0u);
  EXPECT_EQ(out.size(), 1u);
  EXPECT_TRUE(out.Contains(std::vector<Value>{1}));
}

TEST(DatalogTest, SharedEdbCacheMatchesPerRuleResults) {
  // Differential check: the program-wide cache must not change any fixpoint.
  // Chain graphs exercise multi-iteration runs with the E atom in two rules.
  for (int n = 2; n <= 6; ++n) {
    Database db;
    RelId e = db.AddRelation("E", 2).ValueOrDie();
    for (Value v = 0; v + 1 < n; ++v) db.relation(e).Add({v, v + 1});
    auto prog = ParseDatalog(
                    "tc(x, y) :- E(x, y).\n"
                    "tc(x, y) :- E(x, z), tc(z, y).\n")
                    .ValueOrDie();
    DatalogStats stats;
    auto out = EvaluateDatalog(db, prog, {}, {}, &stats).ValueOrDie();
    EXPECT_EQ(out.size(), static_cast<size_t>(n) * (n - 1) / 2);
    EXPECT_EQ(stats.edb_materializations, 1u);
    EXPECT_EQ(stats.edb_cache_hits, 1u);
  }
}

TEST(DatalogTest, RuleFiringsCountsOnlyRulesThatFire) {
  Database db;
  RelId e = db.AddRelation("E", 2).ValueOrDie();
  db.relation(e).Add({1, 2});
  db.AddRelation("F", 1).ValueOrDie();  // empty: its rule can never fire
  auto prog = ParseDatalog(
                  "p(x) :- E(x, y).\n"
                  "p(x) :- F(x).\n"
                  "@goal p.\n")
                  .ValueOrDie();
  DatalogStats stats;
  auto out = EvaluateDatalog(db, prog, {}, {}, &stats).ValueOrDie();
  EXPECT_EQ(out.size(), 1u);
  // Round 0 evaluates both rules, but only the E rule actually fires; the
  // F rule is counted as skipped, not fired.
  EXPECT_EQ(stats.rule_firings, 1u);
  EXPECT_EQ(stats.skipped_firings, 1u);
}

TEST(DatalogTest, MissingEdbBehindEmptyAtomIsNotResolved) {
  // EDB atoms resolve lazily in body order: Q is empty, so the rule can never
  // fire and the dangling reference to R must not be an error.
  Database db;
  db.AddRelation("Q", 1).ValueOrDie();
  auto prog = ParseDatalog("g(x) :- Q(x), R(x).").ValueOrDie();
  auto out = EvaluateDatalog(db, prog).ValueOrDie();
  EXPECT_TRUE(out.empty());

  // Once the missing atom is reachable, the error surfaces.
  RelId q = db.FindRelation("Q").ValueOrDie();
  db.relation(q).Add({1});
  EXPECT_EQ(EvaluateDatalog(db, prog).status().code(), StatusCode::kNotFound);
}

TEST(DatalogTest, MatchesFloydWarshallReachability) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    int n = 8;
    std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
    Database db;
    RelId e = db.AddRelation("E", 2).ValueOrDie();
    for (int u = 0; u < n; ++u) {
      for (int v = 0; v < n; ++v) {
        if (u != v && rng.Chance(0.2)) {
          db.relation(e).Add({u, v});
          reach[u][v] = true;
        }
      }
    }
    for (int k = 0; k < n; ++k) {
      for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
          reach[i][j] = reach[i][j] || (reach[i][k] && reach[k][j]);
        }
      }
    }
    auto prog = ParseDatalog(
                    "tc(x, y) :- E(x, y).\n"
                    "tc(x, y) :- E(x, z), tc(z, y).\n")
                    .ValueOrDie();
    auto out = EvaluateDatalog(db, prog).ValueOrDie();
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        EXPECT_EQ(out.Contains(std::vector<Value>{i, j}), reach[i][j])
            << i << "->" << j << " seed=" << seed;
      }
    }
  }
}

TEST(DatalogTest, SameGeneration) {
  // Classic non-linear recursion.
  Database db;
  RelId up = db.AddRelation("up", 2).ValueOrDie();
  RelId flat = db.AddRelation("flat", 2).ValueOrDie();
  RelId down = db.AddRelation("down", 2).ValueOrDie();
  db.relation(up).Add({1, 3});
  db.relation(up).Add({2, 4});
  db.relation(flat).Add({3, 4});
  db.relation(down).Add({4, 2});
  db.relation(down).Add({3, 1});
  auto prog = ParseDatalog(
                  "sg(x, y) :- flat(x, y).\n"
                  "sg(x, y) :- up(x, a), sg(a, b), down(b, y).\n")
                  .ValueOrDie();
  auto out = EvaluateDatalog(db, prog).ValueOrDie();
  EXPECT_TRUE(out.Contains(std::vector<Value>{3, 4}));
  EXPECT_TRUE(out.Contains(std::vector<Value>{1, 2}));
  EXPECT_EQ(out.size(), 2u);
}

TEST(DatalogTest, EdbFactsOnlyRule) {
  Database db = MakeDb({{"A", {{5}}}}, {1});
  auto prog = ParseDatalog(
                  "g(7) :- A(x).\n"
                  "g(x) :- A(x).\n")
                  .ValueOrDie();
  auto out = EvaluateDatalog(db, prog).ValueOrDie();
  EXPECT_EQ(out.size(), 2u);
  EXPECT_TRUE(out.Contains(std::vector<Value>{7}));
  EXPECT_TRUE(out.Contains(std::vector<Value>{5}));
}

TEST(DatalogTest, MissingEdbRelationFails) {
  Database db;
  auto prog = ParseDatalog("g(x) :- Ghost(x).").ValueOrDie();
  EXPECT_EQ(EvaluateDatalog(db, prog).status().code(), StatusCode::kNotFound);
}

TEST(DatalogTest, IterationLimit) {
  Database db;
  RelId e = db.AddRelation("E", 2).ValueOrDie();
  for (Value v = 0; v < 50; ++v) db.relation(e).Add({v, v + 1});
  auto prog = ParseDatalog(
                  "tc(x, y) :- E(x, y).\n"
                  "tc(x, y) :- E(x, z), tc(z, y).\n")
                  .ValueOrDie();
  DatalogOptions limited;
  limited.max_iterations = 3;
  EXPECT_EQ(EvaluateDatalog(db, prog, {}, limited).status().code(),
            StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace paraquery
