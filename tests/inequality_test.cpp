// Tests for the Theorem 2 engine: acyclic conjunctive queries with ≠.
#include <gtest/gtest.h>

#include <optional>
#include <thread>

#include "common/fault_injection.hpp"
#include "common/rng.hpp"
#include "core/engine.hpp"
#include "eval/inequality.hpp"
#include "eval/naive.hpp"
#include "graph/generators.hpp"
#include "hypergraph/join_tree.hpp"
#include "query/ineq_formula.hpp"
#include "query/parser.hpp"
#include "workload/generators.hpp"

namespace paraquery {
namespace {

Database GraphDb(const Graph& g) {
  Database db;
  RelId e = db.AddRelation("E", 2).ValueOrDie();
  for (int u = 0; u < g.num_vertices(); ++u) {
    for (int v : g.Neighbors(u)) db.relation(e).Add({u, v});
  }
  return db;
}

IneqOptions Certified() {
  IneqOptions o;
  o.driver = IneqOptions::Driver::kCertified;
  return o;
}

TEST(IneqTest, PaperEmployeeProjectExample) {
  // G(e) :- EP(e,p), EP(e,p'), p != p' — employees on more than one project.
  Database db;
  RelId ep = db.AddRelation("EP", 2).ValueOrDie();
  db.relation(ep).Add({1, 100});
  db.relation(ep).Add({1, 101});
  db.relation(ep).Add({2, 100});
  db.relation(ep).Add({3, 102});
  db.relation(ep).Add({3, 102});  // duplicate row: still one project
  auto q = ParseConjunctive("g(e) :- EP(e, p), EP(e, q), p != q.")
               .ValueOrDie();
  IneqStats stats;
  auto out = IneqEvaluate(db, q, {}, Certified(), &stats).ValueOrDie();
  EXPECT_EQ(out.size(), 1u);
  EXPECT_TRUE(out.Contains(std::vector<Value>{1}));
  EXPECT_TRUE(stats.certified);
  // p, q do not co-occur in one atom: the inequality is in I1, k = 2.
  EXPECT_EQ(stats.k, 2);
  EXPECT_EQ(stats.i1_atoms, 1u);
}

TEST(IneqTest, PaperStudentCourseExample) {
  // G(s) :- SD(s,d), SC(s,c), CD(c,d'), d != d' — students taking a course
  // outside their department.
  Database db;
  RelId sd = db.AddRelation("SD", 2).ValueOrDie();
  RelId sc = db.AddRelation("SC", 2).ValueOrDie();
  RelId cd = db.AddRelation("CD", 2).ValueOrDie();
  // Student 1 in dept 10 takes course 20 (dept 11): outside.
  // Student 2 in dept 11 takes course 21 (dept 11): inside.
  db.relation(sd).Add({1, 10});
  db.relation(sd).Add({2, 11});
  db.relation(sc).Add({1, 20});
  db.relation(sc).Add({2, 21});
  db.relation(cd).Add({20, 11});
  db.relation(cd).Add({21, 11});
  auto q = ParseConjunctive(
               "g(s) :- SD(s, d), SC(s, c), CD(c, e), d != e.")
               .ValueOrDie();
  auto out = IneqEvaluate(db, q, {}, Certified()).ValueOrDie();
  EXPECT_EQ(out.size(), 1u);
  EXPECT_TRUE(out.Contains(std::vector<Value>{1}));
}

TEST(IneqTest, CoOccurringInequalityGoesToI2) {
  Database db = GraphDb(CycleGraph(4));
  auto q = ParseConjunctive("ans(x, y) :- E(x, y), x != y.").ValueOrDie();
  IneqStats stats;
  auto out = IneqEvaluate(db, q, {}, Certified(), &stats).ValueOrDie();
  EXPECT_EQ(stats.k, 0);  // handled entirely by selections
  EXPECT_EQ(stats.i2_atoms, 1u);
  auto naive = NaiveEvaluateCq(db, q).ValueOrDie();
  EXPECT_TRUE(out.EqualsAsSet(naive));
}

TEST(IneqTest, VarConstInequalitiesPushed) {
  Database db = GraphDb(PathGraph(5));
  auto q = ParseConjunctive("ans(x) :- E(x, y), x != 0, y != 3.")
               .ValueOrDie();
  IneqStats stats;
  auto out = IneqEvaluate(db, q, {}, Certified(), &stats).ValueOrDie();
  EXPECT_EQ(stats.k, 0);
  auto naive = NaiveEvaluateCq(db, q).ValueOrDie();
  EXPECT_TRUE(out.EqualsAsSet(naive));
}

TEST(IneqTest, PureAcyclicDegeneratesToYannakakis) {
  Database db = GraphDb(GnpRandom(10, 0.3, 7));
  auto q = ParseConjunctive("ans(a, c) :- E(a,b), E(b,c).").ValueOrDie();
  IneqStats stats;
  auto out = IneqEvaluate(db, q, {}, Certified(), &stats).ValueOrDie();
  EXPECT_EQ(stats.k, 0);
  EXPECT_EQ(stats.family_size, 1u);
  auto naive = NaiveEvaluateCq(db, q).ValueOrDie();
  EXPECT_TRUE(out.EqualsAsSet(naive));
}

TEST(IneqTest, RejectsOrderComparisonsAndCyclicQueries) {
  Database db = GraphDb(PathGraph(3));
  auto lt = ParseConjunctive("p() :- E(x, y), x < y.").ValueOrDie();
  EXPECT_FALSE(IneqNonempty(db, lt).ok());
  auto cyc =
      ParseConjunctive("p() :- E(x,y), E(y,z), E(z,x), x != y.").ValueOrDie();
  EXPECT_FALSE(IneqNonempty(db, cyc).ok());
}

TEST(IneqTest, TriviallyFalseComparisons) {
  Database db = GraphDb(PathGraph(3));
  auto q = ParseConjunctive("p() :- E(x, y), x != x.").ValueOrDie();
  EXPECT_FALSE(IneqNonempty(db, q, {}, Certified()).ValueOrDie());
  auto q2 = ParseConjunctive("p() :- E(x, y), 3 != 3.").ValueOrDie();
  EXPECT_FALSE(IneqNonempty(db, q2, {}, Certified()).ValueOrDie());
  auto q3 = ParseConjunctive("p() :- E(x, y), 3 != 4.").ValueOrDie();
  EXPECT_TRUE(IneqNonempty(db, q3, {}, Certified()).ValueOrDie());
}

TEST(IneqTest, SimplePathsOfLengthK) {
  // Simple paths via all-pairs ≠: the color-coding special case the paper
  // cites (Monien / Alon-Yuster-Zwick). Path graph has simple 3-paths;
  // star graph does not.
  const char* text =
      "p() :- E(a,b), E(b,c), E(c,d), a != b, a != c, a != d, b != c, "
      "b != d, c != d.";
  auto q = ParseConjunctive(text).ValueOrDie();

  Database path = GraphDb(PathGraph(5));
  EXPECT_TRUE(IneqNonempty(path, q, {}, Certified()).ValueOrDie());

  Graph star(6);
  for (int i = 1; i < 6; ++i) star.AddEdge(0, i);
  Database stardb = GraphDb(star);
  EXPECT_FALSE(IneqNonempty(stardb, q, {}, Certified()).ValueOrDie());
}

TEST(IneqTest, DisconnectedQueryComponentsWithCrossInequality) {
  // A(x), B(y), x != y across components of the query hypergraph.
  Database db;
  RelId a = db.AddRelation("A", 1).ValueOrDie();
  RelId b = db.AddRelation("B", 1).ValueOrDie();
  db.relation(a).Add({1});
  db.relation(b).Add({1});
  auto q = ParseConjunctive("p() :- A(x), B(y), x != y.").ValueOrDie();
  EXPECT_FALSE(IneqNonempty(db, q, {}, Certified()).ValueOrDie());
  db.relation(b).Add({2});
  EXPECT_TRUE(IneqNonempty(db, q, {}, Certified()).ValueOrDie());
  auto out = IneqEvaluate(db, q, {}, Certified()).ValueOrDie();
  EXPECT_EQ(out.size(), 1u);
}

TEST(IneqTest, ContainsDecision) {
  Database db = GraphDb(PathGraph(4));
  auto q = ParseConjunctive("ans(x, z) :- E(x, y), E(y, z), x != z.")
               .ValueOrDie();
  EXPECT_TRUE(IneqContains(db, q, {0, 2}, {}, Certified()).ValueOrDie());
  EXPECT_FALSE(IneqContains(db, q, {0, 0}, {}, Certified()).ValueOrDie());
}

TEST(IneqTest, MonteCarloIsSoundAndUsuallyComplete) {
  // Monte Carlo: positives always sound; with c = 6 the failure rate is
  // ~e^-6, so these fixed seeds must find the witness.
  Database db = GraphDb(PathGraph(6));
  auto q = ParseConjunctive(
               "p() :- E(a,b), E(b,c), a != c, a != b, b != c.")
               .ValueOrDie();
  IneqOptions mc;
  mc.driver = IneqOptions::Driver::kMonteCarlo;
  mc.mc_error_exponent = 6.0;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    mc.seed = seed;
    EXPECT_TRUE(IneqNonempty(db, q, {}, mc).ValueOrDie()) << "seed=" << seed;
  }
}

TEST(IneqTest, StatsReportFamilyAndTrials) {
  Database db = GraphDb(PathGraph(6));
  auto q = ParseConjunctive("p() :- E(a,b), E(c,d), a != c.").ValueOrDie();
  IneqStats stats;
  ASSERT_TRUE(IneqNonempty(db, q, {}, Certified(), &stats).ValueOrDie());
  EXPECT_EQ(stats.k, 2);
  EXPECT_GE(stats.family_size, 1u);
  EXPECT_GE(stats.trials, 1u);
  EXPECT_LE(stats.trials, stats.family_size);
}

// The main property: on random acyclic ≠-queries the certified engine
// matches naive backtracking exactly.
class IneqPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IneqPropertyTest, MatchesNaiveOnRandomAcyclicNeqQueries) {
  Rng rng(GetParam());
  Database db;
  const char* names[] = {"R0", "R1"};
  for (const char* name : names) {
    RelId id = db.AddRelation(name, 2).ValueOrDie();
    int rows = 8 + static_cast<int>(rng.Below(18));
    for (int i = 0; i < rows; ++i) {
      db.relation(id).Add({rng.Range(0, 6), rng.Range(0, 6)});
    }
  }
  // Random acyclic query as a random tree of binary atoms.
  ConjunctiveQuery q;
  int num_atoms = 2 + static_cast<int>(rng.Below(4));
  std::vector<VarId> pool = {q.vars.Intern("v0")};
  for (int i = 0; i < num_atoms; ++i) {
    VarId shared = pool[rng.Below(pool.size())];
    std::string fresh_name = std::string("v") + std::to_string(i + 1);
    VarId fresh = q.vars.Intern(fresh_name);
    Atom a{names[rng.Below(2)], {Term::Var(shared), Term::Var(fresh)}};
    if (rng.Chance(0.5)) std::swap(a.terms[0], a.terms[1]);
    q.body.push_back(a);
    pool.push_back(fresh);
  }
  // Random ≠ atoms over the variable pool (some co-occur -> I2, some not
  // -> I1), plus occasionally a var != const atom.
  int num_neq = 1 + static_cast<int>(rng.Below(4));
  for (int i = 0; i < num_neq; ++i) {
    VarId x = pool[rng.Below(pool.size())];
    if (rng.Chance(0.2)) {
      q.comparisons.push_back(
          {CompareOp::kNeq, Term::Var(x), Term::Const(rng.Range(0, 6))});
    } else {
      VarId y = pool[rng.Below(pool.size())];
      if (x == y) continue;
      q.comparisons.push_back({CompareOp::kNeq, Term::Var(x), Term::Var(y)});
    }
  }
  q.head = {Term::Var(pool[0]), Term::Var(pool[pool.size() / 2])};
  ASSERT_TRUE(q.IsAcyclic());

  IneqStats stats;
  auto fpt = IneqEvaluate(db, q, {}, Certified(), &stats).ValueOrDie();
  auto naive = NaiveEvaluateCq(db, q).ValueOrDie();
  EXPECT_TRUE(fpt.EqualsAsSet(naive))
      << q.ToString() << "\nk=" << stats.k << " i1=" << stats.i1_atoms;
  EXPECT_EQ(IneqNonempty(db, q, {}, Certified()).ValueOrDie(), !naive.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, IneqPropertyTest,
                         ::testing::Range<uint64_t>(1, 61));

// ---------------------------------------------------------------------------
// Plan lowering vs the recorded oracle: the historical hand-rolled
// per-coloring relational-algebra code (the *Oracle entry points) was
// deleted after soaking; before its removal, its answers over this exact
// generator family were recorded into tests/theorem2_recorded.inc (arity,
// row count, FNV-1a hash of the sorted+deduped row bytes, and the
// nonemptiness decision). Same options + same seed = same coloring family,
// so the lowered path must keep reproducing every recorded entry
// byte-for-byte.
// ---------------------------------------------------------------------------

// Mirrors the layout of the entries in tests/theorem2_recorded.inc.
struct RecordedIneqAnswer {
  uint64_t seed;
  int driver;  // 0 = kCertified, 1 = kMonteCarlo
  size_t arity;
  size_t rows;
  uint64_t hash;
  bool nonempty;
};

#include "theorem2_recorded.inc"

// FNV-1a over the 8 LE bytes of arity, size, then every value — the exact
// procedure the fixture generator used.
uint64_t FnvRelation(const Relation& r) {
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  mix(static_cast<uint64_t>(r.arity()));
  mix(static_cast<uint64_t>(r.size()));
  for (Value v : r.data()) mix(static_cast<uint64_t>(v));
  return h;
}

void ExpectMatchesRecorded(const Relation& out, const RecordedIneqAnswer& rec,
                           const std::string& context) {
  ASSERT_EQ(out.arity(), rec.arity) << context;
  ASSERT_EQ(out.size(), rec.rows) << context;
  EXPECT_EQ(FnvRelation(out), rec.hash) << context;
}

const RecordedIneqAnswer& FindRecorded(uint64_t seed, int driver) {
  for (const RecordedIneqAnswer& rec : kRecordedIneqAnswers) {
    if (rec.seed == seed && rec.driver == driver) return rec;
  }
  ADD_FAILURE() << "no recorded answer for seed " << seed;
  static RecordedIneqAnswer missing{};
  return missing;
}

class IneqLoweringDifferentialTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IneqLoweringDifferentialTest, PlanMatchesRecordedOracleByteForByte) {
  Rng rng(GetParam() * 7919 + 13);
  Database db;
  const char* names[] = {"R0", "R1"};
  for (const char* name : names) {
    RelId id = db.AddRelation(name, 2).ValueOrDie();
    int rows = 8 + static_cast<int>(rng.Below(20));
    for (int i = 0; i < rows; ++i) {
      db.relation(id).Add({rng.Range(0, 6), rng.Range(0, 6)});
    }
  }
  // Random acyclic tree query with a random mix of I1/I2/var-const ≠ atoms
  // (same generator family as the MatchesNaive suite).
  ConjunctiveQuery q;
  int num_atoms = 2 + static_cast<int>(rng.Below(4));
  std::vector<VarId> pool = {q.vars.Intern("v0")};
  for (int i = 0; i < num_atoms; ++i) {
    VarId shared = pool[rng.Below(pool.size())];
    VarId fresh = q.vars.Intern(std::string("v") + std::to_string(i + 1));
    Atom a{names[rng.Below(2)], {Term::Var(shared), Term::Var(fresh)}};
    if (rng.Chance(0.5)) std::swap(a.terms[0], a.terms[1]);
    q.body.push_back(a);
    pool.push_back(fresh);
  }
  int num_neq = 1 + static_cast<int>(rng.Below(4));
  for (int i = 0; i < num_neq; ++i) {
    VarId x = pool[rng.Below(pool.size())];
    if (rng.Chance(0.2)) {
      q.comparisons.push_back(
          {CompareOp::kNeq, Term::Var(x), Term::Const(rng.Range(0, 6))});
    } else {
      VarId y = pool[rng.Below(pool.size())];
      if (x == y) continue;
      q.comparisons.push_back({CompareOp::kNeq, Term::Var(x), Term::Var(y)});
    }
  }
  q.head = {Term::Var(pool[0]), Term::Var(pool[pool.size() / 2])};
  ASSERT_TRUE(q.IsAcyclic());

  for (auto driver :
       {IneqOptions::Driver::kCertified, IneqOptions::Driver::kMonteCarlo}) {
    IneqOptions options;
    options.driver = driver;
    options.mc_error_exponent = 2.0;
    options.seed = GetParam();
    const RecordedIneqAnswer& rec = FindRecorded(
        GetParam(), driver == IneqOptions::Driver::kCertified ? 0 : 1);
    auto planned = IneqEvaluate(db, q, {}, options);
    ASSERT_TRUE(planned.ok()) << planned.status();
    ExpectMatchesRecorded(planned.value(), rec, q.ToString());
    EXPECT_EQ(IneqNonempty(db, q, {}, options).ValueOrDie(), rec.nonempty);
    // A warm plan cache must not change a single byte either.
    PlanCache cache;
    EvalContext ctx;
    ctx.plan_cache = &cache;
    for (int round = 0; round < 2; ++round) {
      auto cached = IneqEvaluate(db, q, ctx, options);
      ASSERT_TRUE(cached.ok()) << cached.status();
      ExpectMatchesRecorded(cached.value(), rec, q.ToString() + " (cached)");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IneqLoweringDifferentialTest,
                         ::testing::Range<uint64_t>(1, 41));

TEST(IneqTest, FormulaModePlanMatchesRecordedOracle) {
  Rng rng(4242);
  Database db;
  RelId r = db.AddRelation("R", 2).ValueOrDie();
  for (int i = 0; i < 40; ++i) {
    db.relation(r).Add({rng.Range(0, 5), rng.Range(0, 5)});
  }
  // Acyclic chain body, ∧/∨ formula over its variables + one constant.
  auto q = ParseConjunctive("ans(a, c) :- R(a, b), R(b, c), R(c, d).")
               .ValueOrDie();
  IneqFormula phi;
  int ab = phi.AddAtom({CompareOp::kNeq, Term::Var(0), Term::Var(1)});
  int cd = phi.AddAtom({CompareOp::kNeq, Term::Var(2), Term::Var(3)});
  int ac3 = phi.AddAtom({CompareOp::kNeq, Term::Var(0), Term::Const(3)});
  phi.root = phi.AddAnd({phi.AddOr({ab, cd}), phi.AddOr({cd, ac3})});
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    IneqOptions options;
    options.seed = seed;
    const RecordedIneqAnswer& rec = kRecordedFormulaAnswers[seed - 1];
    ASSERT_EQ(rec.seed, seed);
    auto planned = IneqFormulaEvaluate(db, q, phi, {}, options);
    ASSERT_TRUE(planned.ok()) << planned.status();
    ExpectMatchesRecorded(planned.value(), rec, "formula mode");
    EXPECT_EQ(IneqFormulaNonempty(db, q, phi, {}, options).ValueOrDie(),
              rec.nonempty);
    // Cached formula compilation: same bytes again.
    PlanCache cache;
    EvalContext ctx;
    ctx.plan_cache = &cache;
    auto cached = IneqFormulaEvaluate(db, q, phi, ctx, options);
    ASSERT_TRUE(cached.ok()) << cached.status();
    ExpectMatchesRecorded(cached.value(), rec, "formula cached");
  }
}

TEST(IneqTest, LoweredPathReportsPlanStats) {
  Database db = GraphDb(GnpRandom(20, 0.3, 3));
  auto q = ParseConjunctive("ans(a) :- E(a, b), E(b, c), a != c.")
               .ValueOrDie();
  IneqStats stats;
  PlanStats plan;
  auto out = IneqEvaluate(db, q, {}, Certified(), &stats, &plan).ValueOrDie();
  EXPECT_GT(plan.joins + plan.semijoins, 0u);  // went through the executor
  EXPECT_GT(plan.scans, 0u);
  auto naive = NaiveEvaluateCq(db, q).ValueOrDie();
  EXPECT_TRUE(out.EqualsAsSet(naive));
}

TEST(IneqTest, LoweredPathHonorsResourceLimits) {
  // A tight per-operator row cap must abort the plan execution, exactly as
  // the engine-level unified limits promise.
  Database db = GraphDb(CompleteGraph(14));
  auto q = ParseConjunctive(
               "ans(a, d) :- E(a, b), E(b, c), E(c, d), a != d.")
               .ValueOrDie();
  EvalContext ctx;
  ctx.limits.max_rows = 10;
  EXPECT_EQ(IneqEvaluate(db, q, ctx).status().code(),
            StatusCode::kResourceExhausted);
  ctx.limits.max_rows = 0;
  ctx.limits.max_steps = 20;
  EXPECT_EQ(IneqEvaluate(db, q, ctx).status().code(),
            StatusCode::kResourceExhausted);
  ctx.limits.max_steps = 0;
  EXPECT_TRUE(IneqEvaluate(db, q, ctx).ok());
}

TEST(IneqTest, PlanTextRendersLoweredDag) {
  Database db = GraphDb(PathGraph(5));
  auto q = ParseConjunctive("g(e) :- E(e, p), E(e, q), p != q.").ValueOrDie();
  std::string text = IneqPlanText(db, q).ValueOrDie();
  EXPECT_NE(text.find("Theorem 2 color coding"), std::string::npos);
  EXPECT_NE(text.find("HashJoin"), std::string::npos);
  EXPECT_NE(text.find("p'"), std::string::npos);  // primed hash column
  EXPECT_NE(text.find("!="), std::string::npos);  // the I1 select
}

// Deeper trees with several I1 inequalities crossing subtrees.
TEST(IneqTest, DeepTreeCrossSubtreeInequalities) {
  Rng rng(99);
  Database db;
  RelId r = db.AddRelation("R", 2).ValueOrDie();
  for (int i = 0; i < 60; ++i) {
    db.relation(r).Add({rng.Range(0, 9), rng.Range(0, 9)});
  }
  // Star of paths: center v0 with three 2-edge arms; inequalities between
  // the arm tips (never co-occurring).
  auto q = ParseConjunctive(
               "ans(c) :- R(c, a1), R(a1, a2), R(c, b1), R(b1, b2), "
               "R(c, d1), R(d1, d2), a2 != b2, b2 != d2, a2 != d2.")
               .ValueOrDie();
  ASSERT_TRUE(q.IsAcyclic());
  IneqStats stats;
  auto fpt = IneqEvaluate(db, q, {}, Certified(), &stats).ValueOrDie();
  EXPECT_EQ(stats.k, 3);
  auto naive = NaiveEvaluateCq(db, q).ValueOrDie();
  EXPECT_TRUE(fpt.EqualsAsSet(naive));
}

// ---------------------------------------------------------------------------
// Concurrent colorings: every coloring of the family runs as one scheduler
// task. Answers, the IneqStats a run reports, and the max_steps contract
// must not depend on the width.
// ---------------------------------------------------------------------------

// One Theorem 2 query: plain, or formula mode when `phi` is set.
struct WidthCase {
  std::string label;
  const Database* db;
  ConjunctiveQuery q;
  std::optional<IneqFormula> phi;
};

EvalContext AtWidth(TaskScheduler* scheduler) {
  EvalContext ctx;
  ctx.runtime.scheduler = scheduler;
  ctx.runtime.morsel_rows = 16;  // the colorings' operators go parallel too
  return ctx;
}

Result<Relation> EvaluateCase(const WidthCase& c, const EvalContext& ctx,
                              IneqStats* stats = nullptr,
                              PlanStats* plan = nullptr) {
  return c.phi.has_value() ? IneqFormulaEvaluate(*c.db, c.q, *c.phi, ctx,
                                                 Certified(), stats, plan)
                           : IneqEvaluate(*c.db, c.q, ctx, Certified(), stats,
                                          plan);
}

Result<bool> NonemptyCase(const WidthCase& c, const EvalContext& ctx,
                          IneqStats* stats = nullptr) {
  return c.phi.has_value()
             ? IneqFormulaNonempty(*c.db, c.q, *c.phi, ctx, Certified(), stats)
             : IneqNonempty(*c.db, c.q, ctx, Certified(), stats);
}

class IneqWidthTest : public ::testing::Test {
 protected:
  void SetUp() override {
    projects_ = EmployeeProjects(300, 30, 1, 4, /*seed=*/5);
    // 20 projects: the k = 2 bit family has bit_width(19) = 5 members, so
    // the colorings still outnumber the 4 workers.
    single_ = EmployeeProjects(100, 20, 1, 1, /*seed=*/6);
    graph_ = GraphDb(GnpRandom(24, 0.2, 7));
    cases_.push_back({"multi_project", &projects_, MultiProjectQuery(), {}});
    cases_.push_back({"no_witness", &single_, MultiProjectQuery(), {}});
    cases_.push_back(
        {"path3", &graph_,
         ParseConjunctive("ans(a, d) :- E(a, b), E(b, c), E(c, d), a != c, "
                          "b != d, a != d.")
             .ValueOrDie(),
         {}});
    WidthCase formula{
        "formula", &graph_,
        ParseConjunctive("ans(a, c) :- E(a, b), E(b, c).").ValueOrDie(), {}};
    VarId a = formula.q.vars.Find("a"), b = formula.q.vars.Find("b"),
          c = formula.q.vars.Find("c");
    IneqFormula phi;
    int ac = phi.AddAtom({CompareOp::kNeq, Term::Var(a), Term::Var(c)});
    int b3 = phi.AddAtom({CompareOp::kNeq, Term::Var(b), Term::Const(3)});
    int ab = phi.AddAtom({CompareOp::kNeq, Term::Var(a), Term::Var(b)});
    phi.root = phi.AddOr({phi.AddAnd({ac, b3}), ab});
    formula.phi = phi;
    cases_.push_back(std::move(formula));
  }

  Database projects_, single_, graph_;
  std::vector<WidthCase> cases_;
};

TEST_F(IneqWidthTest, AnswersAndStatsMatchAcrossWidths) {
  TaskScheduler wide(4);
  for (const WidthCase& c : cases_) {
    SCOPED_TRACE(c.label);
    IneqStats s1, s4;
    Relation one = EvaluateCase(c, AtWidth(nullptr), &s1).ValueOrDie();
    Relation four = EvaluateCase(c, AtWidth(&wide), &s4).ValueOrDie();
    EXPECT_GT(s1.family_size, wide.threads());
    ASSERT_EQ(one.arity(), four.arity());
    ASSERT_EQ(one.size(), four.size());
    EXPECT_EQ(one.data(), four.data());
    EXPECT_EQ(s1.k, s4.k);
    EXPECT_EQ(s1.family_size, s4.family_size);
    EXPECT_EQ(s1.certified, s4.certified);
    EXPECT_EQ(s1.trials, s1.family_size);
    EXPECT_EQ(s4.trials, s1.trials);

    IneqStats d1, d4;
    bool found1 = NonemptyCase(c, AtWidth(nullptr), &d1).ValueOrDie();
    bool found4 = NonemptyCase(c, AtWidth(&wide), &d4).ValueOrDie();
    EXPECT_EQ(found1, !one.empty());
    EXPECT_EQ(found4, found1);
    EXPECT_EQ(d1.k, d4.k);
    EXPECT_EQ(d1.family_size, d4.family_size);
    EXPECT_EQ(d1.certified, d4.certified);
    EXPECT_GE(d4.trials, 1u);
    EXPECT_LE(d4.trials, d4.family_size);
  }
}

TEST_F(IneqWidthTest, StepBudgetPassingAtOneThreadPassesAtFour) {
  TaskScheduler wide(4);
  const WidthCase& c = cases_[2];  // path3
  IneqStats stats;
  PlanStats plan;
  Relation expected =
      EvaluateCase(c, AtWidth(nullptr), &stats, &plan).ValueOrDie();
  ASSERT_GE(stats.family_size, 8u);
  // max_steps is per coloring: sweep up to a few times a coloring's share.
  const uint64_t top = 4 * plan.rows_produced / stats.family_size;
  size_t passed = 0, failed = 0;
  for (uint64_t budget = 1; budget <= top; budget += budget / 4 + 1) {
    SCOPED_TRACE(budget);
    EvalContext one = AtWidth(nullptr);
    EvalContext four = AtWidth(&wide);
    one.limits.max_steps = four.limits.max_steps = budget;
    auto r1 = EvaluateCase(c, one);
    auto d1 = NonemptyCase(c, one);
    if (r1.ok()) {
      ++passed;
      auto r4 = EvaluateCase(c, four);
      ASSERT_TRUE(r4.ok()) << r4.status();
      EXPECT_EQ(r4.value().data(), expected.data());
    } else {
      ++failed;
      EXPECT_EQ(r1.status().code(), StatusCode::kResourceExhausted);
    }
    if (d1.ok()) {
      auto d4 = NonemptyCase(c, four);
      ASSERT_TRUE(d4.ok()) << d4.status();
      EXPECT_EQ(d4.value(), d1.value());
    }
  }
  // The sweep crosses the per-coloring budget the query needs.
  EXPECT_GT(passed, 0u);
  EXPECT_GT(failed, 0u);
}

// ---------------------------------------------------------------------------
// Algorithm 1 alone: when one atom holds every head variable, the join tree
// is rooted there and the answer is the head projection of Algorithm 1's
// root — no downward semijoins, no upward joins. Answers must match the
// naive evaluation byte for byte at any width.
// ---------------------------------------------------------------------------

Database AlgorithmOneDb() { return GraphDb(GnpRandom(12, 0.3, /*seed=*/21)); }

// The path the tests below project: three atoms, I1 inequalities between
// atoms that share no variable.
std::string PathBody() {
  return "E(a, b), E(b, c), E(c, d), a != c, b != d, a != d.";
}

// Evaluates and decides `q` at widths 1 and 4, checks the answers against
// NaiveEvaluateCq byte for byte, and returns the semijoins one evaluation
// ran.
size_t ExpectMatchesNaive(const Database& db, const ConjunctiveQuery& q) {
  const Relation naive = NaiveEvaluateCq(db, q).ValueOrDie();
  EXPECT_FALSE(naive.empty()) << "the fixture should have answers";
  TaskScheduler wide(4);
  PlanStats plan1, plan4;
  const Relation one = IneqEvaluate(db, q, AtWidth(nullptr), Certified(),
                                    nullptr, &plan1)
                           .ValueOrDie();
  const Relation four =
      IneqEvaluate(db, q, AtWidth(&wide), Certified(), nullptr, &plan4)
          .ValueOrDie();
  EXPECT_EQ(one.arity(), naive.arity());
  EXPECT_EQ(one.size(), naive.size());
  EXPECT_EQ(one.data(), naive.data());
  EXPECT_EQ(four.size(), naive.size());
  EXPECT_EQ(four.data(), naive.data());
  EXPECT_EQ(plan4.semijoins, plan1.semijoins);
  for (TaskScheduler* scheduler : {static_cast<TaskScheduler*>(nullptr),
                                   &wide}) {
    EXPECT_EQ(IneqNonempty(db, q, AtWidth(scheduler), Certified())
                  .ValueOrDie(),
              !naive.empty());
  }
  return plan1.semijoins;
}

TEST(IneqAlgorithmOneTest, HeadInOneAtomRootsTheTreeThere) {
  Database db = AlgorithmOneDb();
  const std::vector<std::string> atoms = {"E(a, b)", "E(b, c)", "E(c, d)"};
  const std::vector<std::string> heads = {"a, b", "b, c", "c, d"};
  const int gyo_root =
      BuildJoinTree(
          ParseConjunctive("ans() :- " + PathBody()).ValueOrDie()
              .BuildHypergraph())
          .ValueOrDie()
          .root;
  int rerooted = 0;
  for (size_t j = 0; j < atoms.size(); ++j) {
    SCOPED_TRACE(heads[j]);
    auto q = ParseConjunctive("ans(" + heads[j] + ") :- " + PathBody())
                 .ValueOrDie();
    // The only atom that covers the head becomes the root: GYO's own root
    // once, a re-rooted tree otherwise.
    if (static_cast<int>(j) != gyo_root) ++rerooted;
    EXPECT_NE(IneqPlanText(db, q).ValueOrDie().find(
                  "Algorithm 1 only (head in root atom " + atoms[j] + ")"),
              std::string::npos);
    EXPECT_EQ(ExpectMatchesNaive(db, q), 0u);
  }
  EXPECT_EQ(rerooted, 2);
  // A head variable that two atoms hold, and a boolean head (every atom
  // covers it): GYO's root is kept.
  for (const char* head : {"b", "c", ""}) {
    SCOPED_TRACE(head);
    auto q = ParseConjunctive(std::string("ans(") + head + ") :- " +
                              PathBody())
                 .ValueOrDie();
    EXPECT_EQ(ExpectMatchesNaive(db, q), 0u);
  }
}

TEST(IneqAlgorithmOneTest, HeadSpreadOverAtomsStillRunsAlgorithmTwo) {
  Database db = AlgorithmOneDb();
  auto q = ParseConjunctive("ans(a, d) :- " + PathBody()).ValueOrDie();
  EXPECT_EQ(IneqPlanText(db, q).ValueOrDie().find("Algorithm 1 only"),
            std::string::npos);
  EXPECT_GT(ExpectMatchesNaive(db, q), 0u);
}

TEST(IneqAlgorithmOneTest, FormulaModeProjectsTheFilteredRoot) {
  Database db = AlgorithmOneDb();
  const auto all = ParseConjunctive("ans(a, b, c) :- E(a, b), E(b, c).")
                       .ValueOrDie();
  const Relation bindings = NaiveEvaluateCq(db, all).ValueOrDie();
  TaskScheduler wide(4);
  for (const char* head : {"a, b", "b, c", "a, c"}) {
    SCOPED_TRACE(head);
    auto q = ParseConjunctive(std::string("ans(") + head +
                              ") :- E(a, b), E(b, c).")
                 .ValueOrDie();
    VarId a = q.vars.Find("a"), b = q.vars.Find("b"), c = q.vars.Find("c");
    IneqFormula phi;
    int ac = phi.AddAtom({CompareOp::kNeq, Term::Var(a), Term::Var(c)});
    int b3 = phi.AddAtom({CompareOp::kNeq, Term::Var(b), Term::Const(3)});
    int ab = phi.AddAtom({CompareOp::kNeq, Term::Var(a), Term::Var(b)});
    phi.root = phi.AddOr({phi.AddAnd({ac, b3}), ab});
    // Oracle: φ on the real values of every body binding, then the head.
    std::vector<int> col_of(q.NumVariables(), -1);
    col_of[a] = 0, col_of[b] = 1, col_of[c] = 2;
    Relation expected(2);
    for (size_t r = 0; r < bindings.size(); ++r) {
      auto row = bindings.Row(r);
      auto value_of = [&](const Term& t) {
        return t.is_var() ? row[col_of[t.var()]] : t.value();
      };
      if (!phi.Evaluate(value_of)) continue;
      std::vector<Value> out;
      for (const Term& t : q.head) out.push_back(row[col_of[t.var()]]);
      expected.Add(out);
    }
    expected.SortAndDedup();
    ASSERT_FALSE(expected.empty());
    const bool in_one_atom = std::string(head) != "a, c";
    for (TaskScheduler* scheduler : {static_cast<TaskScheduler*>(nullptr),
                                     &wide}) {
      PlanStats plan;
      const Relation got =
          IneqFormulaEvaluate(db, q, phi, AtWidth(scheduler), Certified(),
                              nullptr, &plan)
              .ValueOrDie();
      EXPECT_EQ(got.size(), expected.size());
      EXPECT_EQ(got.data(), expected.data());
      EXPECT_EQ(plan.semijoins == 0, in_one_atom);
    }
  }
}

// Every empty relation shares one empty block, whatever its arity: two
// atoms over declared-but-empty relations must not share an extension.
TEST(IneqTest, EmptyRelationsDoNotShareAnExtension) {
  TaskScheduler wide(4);
  for (const char* r_arity : {"2", "3"}) {
    SCOPED_TRACE(r_arity);
    Database db;
    const RelId r = db.AddRelation("R", std::stoul(r_arity)).ValueOrDie();
    const RelId s = db.AddRelation("S", 3).ValueOrDie();
    const RelId t = db.AddRelation("T", 2).ValueOrDie();
    for (Value v = 0; v < 4; ++v) db.relation(t).Add({v, v + 1});
    const std::string r_atom =
        std::string(r_arity) == "2" ? "R(x, p)" : "R(x, p, w)";
    // Filled one at a time: neither, R, then R and S (one answer).
    for (const char* filled : {"none", "R", "R and S"}) {
      SCOPED_TRACE(filled);
      if (std::string(filled) == "R") {
        std::vector<Value> row(db.relation(r).arity(), 1);
        db.relation(r).Add(row);
      } else if (std::string(filled) == "R and S") {
        db.relation(s).Add({2, 5, 0});
      }
      auto q = ParseConjunctive("ans(x) :- " + r_atom +
                                ", T(x, y), S(y, q, z), p != q.")
                   .ValueOrDie();
      const Relation naive = NaiveEvaluateCq(db, q).ValueOrDie();
      for (TaskScheduler* scheduler : {static_cast<TaskScheduler*>(nullptr),
                                       &wide}) {
        const Relation got =
            IneqEvaluate(db, q, AtWidth(scheduler), Certified()).ValueOrDie();
        EXPECT_EQ(got.arity(), naive.arity());
        EXPECT_EQ(got.size(), naive.size());
        EXPECT_EQ(got.data(), naive.data());
        EXPECT_EQ(IneqNonempty(db, q, AtWidth(scheduler), Certified())
                      .ValueOrDie(),
                  !naive.empty());
      }
    }
  }
}

// A Theorem 2 family of 10 colorings (the bit family over 600 project ids)
// over a few thousand employees.
Database CancelDb() { return EmployeeProjects(6000, 600, 1, 4, /*seed=*/11); }

size_t CountOccurrences(const std::string& text, const std::string& what) {
  size_t n = 0;
  for (size_t at = text.find(what); at != std::string::npos;
       at = text.find(what, at + 1)) {
    ++n;
  }
  return n;
}

TEST(IneqEngineWidthTest, CancelMidFamilyThenRerunMatchesFreshEngine) {
  Database db = CancelDb();
  const ConjunctiveQuery q = MultiProjectQuery();
  Relation expected = Engine(db).Run(q).ValueOrDie();
  // Probe hits of one full run, counted with the fault injector recording
  // (no fault is armed): the canceller fires a third of the way in.
  FaultInjector::StartRecording();
  ASSERT_TRUE(Engine(db).Run(q).ok());
  const uint64_t full = FaultInjector::StopRecording().size();
  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE(threads);
    QueryContext ctx;
    EngineOptions options;
    options.threads = threads;
    options.query_ctx = &ctx;
    Engine engine(db, options);
    FaultInjector::StartRecording();
    std::thread canceller([&ctx, full] {
      while (FaultInjector::hits() < full / 3) std::this_thread::yield();
      ctx.Cancel();
    });
    auto result = engine.Run(q);
    canceller.join();
    (void)FaultInjector::StopRecording();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
    ctx.Reset();
    auto rerun = engine.Run(q);
    ASSERT_TRUE(rerun.ok()) << rerun.status();
    EXPECT_EQ(rerun.value().data(), expected.data());
  }
}

TEST(IneqEngineWidthTest, AnalyzeAndTraceCountEveryColoringOnce) {
  Database db = EmployeeProjects(400, 40, 1, 4, /*seed=*/12);
  const std::string text = MultiProjectQuery().ToString();
  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE(threads);
    EngineOptions options;
    options.threads = threads;
    Engine engine(db, options);
    auto report = engine.AnalyzeText(text, &db.dict());
    ASSERT_TRUE(report.ok()) << report.status();
    const size_t family = engine.last_stats().ineq.family_size;
    ASSERT_GT(family, threads);
    // One captured plan: the clones fold into the compiled DAG.
    const std::string& r = report.value();
    EXPECT_EQ(CountOccurrences(r, "-- plan "), 1u) << r;
    EXPECT_NE(
        r.find("-- plan 1 (executions=" + std::to_string(family) + ")\n"),
        std::string::npos)
        << r;
    // Attributes render by name, primed color columns included: the head
    // projection fuses into the root's filtered join.
    EXPECT_NE(r.find("HashJoin(e) project-out(p, p', q, q') $2!=$4"),
              std::string::npos)
        << r;

    options.trace = true;
    Engine traced(db, options);
    ASSERT_TRUE(traced.RunText(text, &db.dict()).ok());
    const std::string json = traced.tracer()->ChromeTraceJson();
    EXPECT_EQ(CountOccurrences(json, "\"name\":\"coloring\""), family);
  }
}

}  // namespace
}  // namespace paraquery
