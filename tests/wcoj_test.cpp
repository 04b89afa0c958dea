// Worst-case-optimal multiway joins: the leapfrog kernel, the sorted-trie
// cache, generalized hypertree decompositions, the planner's WCOJ route
// (differential against the binary plans and the backtracking oracle, at
// several thread counts), fault injection in the multiway operator, and the
// hardened active-domain (FO) evaluator.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/fault_injection.hpp"
#include "core/engine.hpp"
#include "eval/fo.hpp"
#include "eval/naive.hpp"
#include "graph/generators.hpp"
#include "hypergraph/hypertree.hpp"
#include "query/parser.hpp"
#include "relational/leapfrog.hpp"
#include "relational/trie_index.hpp"
#include "workload/generators.hpp"

namespace paraquery {
namespace {

// ---------------------------------------------------------------------------
// Leapfrog kernel.
// ---------------------------------------------------------------------------

TEST(LeapfrogTest, DirectedTriangleCycle) {
  // Regression for the sibling-range bug: input E(y,z) participates only at
  // levels 1-2, so a level-1 frame that exits without restoring its ranges
  // starves the NEXT x-group's intersection. All three rotations of the
  // 3-cycle must surface.
  Relation e(2);
  e.Add({1, 2});
  e.Add({2, 3});
  e.Add({3, 1});
  std::vector<LeapfrogInput> ins(3);
  ins[0].trie = TrieIndex::Build(e, {0, 1});  // E(x, y)
  ins[0].attr_of_level = {0, 1};
  ins[1].trie = TrieIndex::Build(e, {0, 1});  // E(y, z)
  ins[1].attr_of_level = {1, 2};
  ins[2].trie = TrieIndex::Build(e, {1, 0});  // E(z, x) keyed (x, z)
  ins[2].attr_of_level = {0, 2};
  RuntimeOptions rt;
  Relation out = LeapfrogJoin(ins, 3, rt).ValueOrDie();
  ASSERT_EQ(out.size(), 3u);
  Relation expected(3);
  expected.Add({1, 2, 3});
  expected.Add({2, 3, 1});
  expected.Add({3, 1, 2});
  EXPECT_TRUE(out.EqualsAsSet(expected));
}

TEST(LeapfrogTest, OutputRowLimitSurfacesResourceExhausted) {
  Relation e(2);
  for (Value i = 0; i < 20; ++i) {
    for (Value j = 0; j < 20; ++j) {
      if (i != j) e.Add({i, j});
    }
  }
  std::vector<LeapfrogInput> ins(3);
  ins[0].trie = TrieIndex::Build(e, {0, 1});
  ins[0].attr_of_level = {0, 1};
  ins[1].trie = TrieIndex::Build(e, {0, 1});
  ins[1].attr_of_level = {1, 2};
  ins[2].trie = TrieIndex::Build(e, {1, 0});
  ins[2].attr_of_level = {0, 2};
  RuntimeOptions rt;
  auto limited = LeapfrogJoin(ins, 3, rt, /*max_output_rows=*/10);
  ASSERT_FALSE(limited.ok());
  EXPECT_EQ(limited.status().code(), StatusCode::kResourceExhausted);
}

// ---------------------------------------------------------------------------
// Sorted-trie cache on the shared RowBlock.
// ---------------------------------------------------------------------------

TEST(TrieViewTest, CachedPerColumnOrderAndInvalidatedByMutation) {
  Relation r(2);
  r.Add({3, 1});
  r.Add({1, 2});
  r.Add({3, 1});  // duplicate: the trie dedups
  auto t01 = r.TrieView({0, 1});
  EXPECT_EQ(t01->rows(), 2u);
  EXPECT_EQ(r.TrieView({0, 1}).get(), t01.get());  // cache hit
  auto t10 = r.TrieView({1, 0});
  EXPECT_NE(t10.get(), t01.get());  // keyed by column order
  EXPECT_EQ(t10->At(0, 0), 1);      // sorted by column 1 first
  r.Add({0, 0});                    // in-place mutation invalidates
  auto rebuilt = r.TrieView({0, 1});
  EXPECT_NE(rebuilt.get(), t01.get());
  EXPECT_EQ(rebuilt->rows(), 3u);
}

TEST(TrieViewTest, CopyOnWriteClonesDoNotShareInvalidation) {
  Relation r(1);
  r.Add({5});
  auto original = r.TrieView({0});
  Relation copy = r;  // shares storage: same cache
  EXPECT_EQ(copy.TrieView({0}).get(), original.get());
  copy.Add({7});  // copy-on-write: the clone starts with an empty cache
  EXPECT_EQ(copy.TrieView({0})->rows(), 2u);
  // The original's cache survives untouched.
  EXPECT_EQ(r.TrieView({0}).get(), original.get());
  EXPECT_EQ(original->rows(), 1u);
}

TEST(TrieViewTest, BuildChargesTheThreadCurrentAccountant) {
  auto accountant = std::make_shared<MemoryAccountant>();
  {
    ScopedMemoryAccounting scope(accountant);
    Relation r(2);
    for (Value i = 0; i < 64; ++i) r.Add({i, i + 1});
    uint64_t before = accountant->used();
    auto trie = r.TrieView({0, 1});
    EXPECT_GT(accountant->used(), before);
    trie.reset();
    r.Clear();  // drops the cached trie with the storage
  }
  EXPECT_EQ(accountant->used(), 0u);  // everything released on unwind
}

TEST(ColumnBlockTest, ChargesAndReleasesTheThreadAccountant) {
  auto accountant = std::make_shared<MemoryAccountant>();
  ScopedMemoryAccounting scope(accountant);
  uint64_t before = accountant->used();
  {
    std::vector<Value> values(1000, 7);
    ColumnBlock block(std::move(values));
    EXPECT_GE(accountant->used(), before + 1000 * sizeof(Value));
  }
  EXPECT_EQ(accountant->used(), before);
}

TEST(TrieViewTest, EmptyRelationYieldsEmptyUncachedTrie) {
  Relation r(2);
  auto t = r.TrieView({0, 1});
  EXPECT_EQ(t->rows(), 0u);
  EXPECT_EQ(t->arity(), 2u);
}

// ---------------------------------------------------------------------------
// Generalized hypertree decompositions.
// ---------------------------------------------------------------------------

TEST(HypertreeTest, AcyclicChainHasWidthOne) {
  Hypergraph h(4);
  h.AddEdge({0, 1});
  h.AddEdge({1, 2});
  h.AddEdge({2, 3});
  auto d = BuildHypertreeDecomposition(h).ValueOrDie();
  EXPECT_TRUE(VerifyHypertreeDecomposition(h, d));
  EXPECT_EQ(d.width(), 1u);
}

TEST(HypertreeTest, TriangleHasWidthTwo) {
  Hypergraph h(3);
  h.AddEdge({0, 1});
  h.AddEdge({1, 2});
  h.AddEdge({0, 2});
  auto d = BuildHypertreeDecomposition(h).ValueOrDie();
  EXPECT_TRUE(VerifyHypertreeDecomposition(h, d));
  EXPECT_EQ(d.width(), 2u);  // one bag {0,1,2}, two binary edges cover it
}

TEST(HypertreeTest, TriangleWithTailSplitsIntoTwoBags) {
  Hypergraph h(4);
  h.AddEdge({0, 1});
  h.AddEdge({1, 2});
  h.AddEdge({0, 2});
  h.AddEdge({2, 3});
  auto d = BuildHypertreeDecomposition(h).ValueOrDie();
  EXPECT_TRUE(VerifyHypertreeDecomposition(h, d));
  EXPECT_EQ(d.width(), 2u);
  EXPECT_GE(d.size(), 2u);  // the tail does not enter the cyclic core bag
}

TEST(HypertreeTest, EdgelessHypergraphIsRejected) {
  Hypergraph h(3);
  EXPECT_FALSE(BuildHypertreeDecomposition(h).ok());
}

TEST(HypertreeTest, RandomQueryHypergraphsVerify) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Database db = RandomBinaryDatabase(3, 20, 10, seed);
    for (int neq = 0; neq <= 1; ++neq) {
      ConjunctiveQuery q = RandomAcyclicNeqQuery(3, 4, neq, seed * 11 + neq);
      Hypergraph h = q.BuildHypergraph();
      if (h.num_edges() == 0) continue;
      auto d = BuildHypertreeDecomposition(h).ValueOrDie();
      EXPECT_TRUE(VerifyHypertreeDecomposition(h, d)) << "seed=" << seed;
      EXPECT_EQ(d.width(), 1u) << "seed=" << seed;  // acyclic: width 1
    }
  }
  // Cliques: every K_n with binary edges has a 2-edge-coverable single core.
  for (int n = 3; n <= 5; ++n) {
    Hypergraph h(n);
    for (int u = 0; u < n; ++u) {
      for (int v = u + 1; v < n; ++v) h.AddEdge({u, v});
    }
    auto d = BuildHypertreeDecomposition(h).ValueOrDie();
    EXPECT_TRUE(VerifyHypertreeDecomposition(h, d)) << "K_" << n;
  }
}

// ---------------------------------------------------------------------------
// Differential: WCOJ route vs binary plans vs the backtracking oracle.
// ---------------------------------------------------------------------------

Database WcojDifferentialGraphDb(uint64_t seed) {
  return GraphDatabase(GnpRandom(10, 0.35, seed));
}

class WcojDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WcojDifferentialTest, MatchesBinaryAndOracleAtAllWidths) {
  uint64_t seed = GetParam();
  Database db = WcojDifferentialGraphDb(seed);
  const char* queries[] = {
      "ans(x) :- E(x,y), E(y,z), E(z,x).",
      "ans(x, y, z) :- E(x,y), E(y,z), E(z,x).",
      "ans(x, w) :- E(x,y), E(y,z), E(z,w), E(w,x).",
      "ans(w) :- E(w,x), E(w,y), E(x,y), E(w,z), E(x,z), E(y,z).",
      "ans(x, t) :- E(x,y), E(y,z), E(z,x), E(z,t).",
      "ans(a) :- E(a, b), E(b, a), E(a, c), E(c, a), E(b, c).",
      // Inequalities keep the binary route (the WCOJ gate requires a
      // comparison-free core); included to pin the routing down.
      "ans(x) :- E(x,y), E(y,z), E(z,x), x != y.",
      // A UCQ whose cyclic disjunct must follow the engine's wcoj switch.
      "ans(x) := exists y, z . ((E(x,y) and E(y,z) and E(z,x)) or E(x,x)).",
  };
  for (const char* text : queries) {
    SCOPED_TRACE(text);
    const bool positive = std::string(text).find(":=") != std::string::npos;
    Relation oracle =
        positive
            ? EvaluateFirstOrder(db, ParseFirstOrder(text).ValueOrDie())
                  .ValueOrDie()
            : BacktrackEvaluateCq(db, ParseConjunctive(text).ValueOrDie())
                  .ValueOrDie();
    Relation reference(oracle.arity());
    bool first = true;
    for (bool wcoj : {false, true}) {
      for (size_t threads : {size_t{1}, size_t{4}}) {
        EngineOptions options;
        options.wcoj = wcoj;
        options.threads = threads;
        Engine engine(db, options);
        auto got = engine.RunText(text);
        ASSERT_TRUE(got.ok()) << got.status();
        EXPECT_TRUE(got.value().EqualsAsSet(oracle))
            << "wcoj=" << wcoj << " threads=" << threads;
        if (!wcoj) {
          // Off means off on every route, UCQ disjuncts included.
          auto analyzed = engine.AnalyzeText(text);
          ASSERT_TRUE(analyzed.ok()) << analyzed.status();
          EXPECT_EQ(analyzed.value().find("MultiwayJoin"), std::string::npos)
              << "threads=" << threads;
        }
        if (first) {
          reference = std::move(got).value();
          first = false;
        } else {
          // Answers are sorted + deduplicated, so every route must agree
          // byte for byte, at any thread count.
          ASSERT_EQ(got.value().size(), reference.size());
          EXPECT_TRUE(got.value().data() == reference.data())
              << "wcoj=" << wcoj << " threads=" << threads;
        }
      }
    }
  }

  // The triangle must actually exercise the multiway operator.
  EngineOptions options;
  Engine engine(db, options);
  auto q = ParseConjunctive("ans(x) :- E(x,y), E(y,z), E(z,x).").ValueOrDie();
  ASSERT_TRUE(engine.Run(q).ok());
  EXPECT_GT(engine.last_stats().plan.multiway_joins, 0u);
}

INSTANTIATE_TEST_SUITE_P(Sweep, WcojDifferentialTest,
                         ::testing::Range<uint64_t>(1, 7));

// ---------------------------------------------------------------------------
// Work scaling: rows produced when the input doubles.
// ---------------------------------------------------------------------------

// Star with a ring: hub 0 <-> leaves 1..k in both directions plus ring
// edges i -> i+1 and chords i -> i+2, so Theta(k) directed triangles and
// 4-cliques pass through the hub. Every binary plan joins two cyclic atoms
// through the hub first (Theta(k^2) rows); the leapfrog join stays near
// input + output. T fans every leaf into 16 values (the triangle-plus-tail
// query).
Database StarWithRing(size_t k) {
  Database db;
  RelId e = db.AddRelation("E", 2).ValueOrDie();
  RelId t = db.AddRelation("T", 2).ValueOrDie();
  for (size_t i = 1; i <= k; ++i) {
    const Value leaf = static_cast<Value>(i);
    db.relation(e).Add({0, leaf});
    db.relation(e).Add({leaf, 0});
    if (i < k) db.relation(e).Add({leaf, leaf + 1});
    if (i + 1 < k) db.relation(e).Add({leaf, leaf + 2});
    db.relation(t).Add({leaf, static_cast<Value>(k + 1 + i % 16)});
  }
  return db;
}

TEST(WcojWorkTest, DoublingTheInputDoublesLeapfrogRowsAndQuadruplesBinary) {
  const struct {
    const char* text;
    size_t k;
  } cells[] = {
      {"ans(x, y, z) :- E(x, y), E(y, z), E(z, x).", 500},
      // E(x, y) third: the greedy binary order closes the (w, x, y)
      // triangle before touching z, so its intermediates stay Theta(k^2).
      {"ans(w, x, y, z) :- E(w, x), E(w, y), E(x, y), E(w, z), E(x, z), "
       "E(y, z).",
       400},
      {"ans(x, t) :- E(x, y), E(y, z), E(z, x), T(z, t).", 500},
  };
  for (const auto& cell : cells) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      SCOPED_TRACE(testing::Message() << cell.text << " threads=" << threads);
      uint64_t rows[2][2] = {};  // [wcoj][doubling]
      for (int doubling = 0; doubling < 2; ++doubling) {
        Database db = StarWithRing(cell.k << doubling);
        Relation reference(0);
        for (bool wcoj : {false, true}) {
          EngineOptions options;
          options.wcoj = wcoj;
          options.threads = threads;
          Engine engine(db, options);
          Relation out = engine.RunText(cell.text).ValueOrDie();
          const PlanStats& plan = engine.last_stats().plan;
          EXPECT_EQ(plan.multiway_joins > 0, wcoj);
          rows[wcoj][doubling] = plan.rows_produced;
          if (!wcoj) {
            reference = std::move(out);
          } else {
            ASSERT_EQ(out.size(), reference.size());
            EXPECT_TRUE(out.data() == reference.data());
          }
        }
        EXPECT_LT(rows[1][doubling], rows[0][doubling]);
      }
      EXPECT_LE(static_cast<double>(rows[1][1]), 2.2 * rows[1][0]);
      EXPECT_GE(static_cast<double>(rows[0][1]), 3.5 * rows[0][0]);
    }
  }
}

// ---------------------------------------------------------------------------
// Fault injection and plan-cache interaction.
// ---------------------------------------------------------------------------

TEST(WcojFaultTest, MultiwayOperatorFailsCleanlyAndRecovers) {
  Database db = GraphDatabase(GnpRandom(12, 0.3, 47));
  Engine engine(db);
  const char* text = "ans(x) :- E(x, y), E(y, z), E(z, x).";
  auto baseline = engine.RunText(text).ValueOrDie();
  FaultInjector::ArmPoint("executor.multiway", 1);
  auto failed = engine.RunText(text);
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.status().message().find("executor.multiway"),
            std::string::npos);
  EXPECT_TRUE(FaultInjector::fired());
  FaultInjector::Disarm();
  auto recovered = engine.RunText(text);
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(recovered.value().data() == baseline.data());
}

TEST(WcojPlanCacheTest, WcojFlagDiscriminatesCacheEntries) {
  Database db = GraphDatabase(GnpRandom(12, 0.3, 7));
  // The tuple route and the counting route (bag-tree counting vs
  // enumeration) both cache plans that depend on the flag.
  for (const char* text : {"ans(x) :- E(x, y), E(y, z), E(z, x).",
                           "COUNT(*) :- E(x, y), E(y, z), E(z, x)."}) {
    SCOPED_TRACE(text);
    Engine engine(db);
    auto wcoj_answer = engine.RunText(text).ValueOrDie();
    EXPECT_GT(engine.last_stats().plan.multiway_joins, 0u);
    // Flipping the option must not satisfy the request from the wcoj entry.
    engine.options().wcoj = false;
    auto binary_answer = engine.RunText(text).ValueOrDie();
    EXPECT_EQ(engine.last_stats().plan.multiway_joins, 0u);
    EXPECT_TRUE(binary_answer.data() == wcoj_answer.data());
  }
}

// ---------------------------------------------------------------------------
// Hardened active-domain (FO) evaluation: abort and reuse.
// ---------------------------------------------------------------------------

TEST(FoHardeningTest, CancellationAbortsAndEngineIsReusable) {
  Database db = GraphDatabase(GnpRandom(30, 0.2, 11));
  auto q = ParseFirstOrder(
               "ans(x) := forall y . (E(x, y) or (exists z . E(y, z))).")
               .ValueOrDie();
  QueryContext qc;
  EngineOptions options;
  options.query_ctx = &qc;
  Engine engine(db, options);
  auto baseline = engine.Run(q);
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  qc.Cancel();
  auto cancelled = engine.Run(q);
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);
  qc.Reset();
  auto again = engine.Run(q);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again.value().EqualsAsSet(baseline.value()));
}

TEST(FoHardeningTest, DeadlineAbortsActiveDomainEvaluation) {
  // Big enough that the n^O(v) algebra cannot finish in a millisecond: the
  // complement of a 3-variable subformula alone is ~|adom|^3 rows.
  Database db = GraphDatabase(GnpRandom(140, 0.05, 13));
  auto q = ParseFirstOrder(
               "ans(x) := forall y . (E(x, y) or "
               "(exists z . (E(y, z) and not E(z, x)))).")
               .ValueOrDie();
  EngineOptions options;
  options.limits.max_wall_ms = 1;
  Engine engine(db, options);
  auto result = engine.Run(q);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  // Same engine, deadline lifted: the evaluation completes.
  engine.options().limits.max_wall_ms = 0;
  auto ok = engine.Run(q);
  EXPECT_TRUE(ok.ok()) << ok.status();
}

TEST(FoHardeningTest, MemoryBudgetAbortsActiveDomainEvaluation) {
  Database db = GraphDatabase(GnpRandom(120, 0.05, 17));
  auto q = ParseFirstOrder("ans(x) := forall y . not E(x, y).").ValueOrDie();
  EngineOptions options;
  options.limits.max_bytes = 1 << 14;  // 16 KiB: trips on the first power
  Engine engine(db, options);
  auto result = engine.Run(q);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  engine.options().limits.max_bytes = 0;
  auto ok = engine.Run(q);
  EXPECT_TRUE(ok.ok()) << ok.status();
}

}  // namespace
}  // namespace paraquery
