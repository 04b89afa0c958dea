// Tests for the program-wide plan cache: canonicalization, hit/miss/
// invalidation mechanics, cross-query reuse on every route (acyclic CQ,
// cyclic CQ, UCQ disjuncts, Datalog rule variants, Theorem 2 colorings),
// and — the part that matters — identical answers with and without the
// cache, across database mutations.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/engine.hpp"
#include "eval/inequality.hpp"
#include "eval/naive.hpp"
#include "graph/generators.hpp"
#include "plan/plan_cache.hpp"
#include "query/parser.hpp"

namespace paraquery {
namespace {

Database SmallGraphDb(int n, double p, uint64_t seed) {
  Graph g = GnpRandom(n, p, seed);
  Database db;
  RelId e = db.AddRelation("E", 2).ValueOrDie();
  for (int u = 0; u < g.num_vertices(); ++u) {
    for (int v : g.Neighbors(u)) db.relation(e).Add({u, v});
  }
  return db;
}

TEST(CanonicalizeCqTest, RenamingEquivalentQueriesShareSignatureAndAnswers) {
  auto q1 = ParseConjunctive("ans(x, z) :- E(x, y), E(y, z).").ValueOrDie();
  auto q2 = ParseConjunctive("ans(a, c) :- E(a, b), E(b, c).").ValueOrDie();
  auto q3 = ParseConjunctive("ans(z, x) :- E(x, y), E(y, z).").ValueOrDie();
  CanonicalCq c1 = CanonicalizeCq(q1);
  CanonicalCq c2 = CanonicalizeCq(q2);
  EXPECT_EQ(c1.signature, c2.signature);
  EXPECT_NE(c1.signature, CanonicalizeCq(q3).signature);  // head order differs
  EXPECT_EQ(c1.signature, CanonicalCqSignature(q1));
  // The canonical query is the same query modulo variable ids: answers match.
  Database db = SmallGraphDb(12, 0.3, 7);
  Engine engine(db);
  auto a1 = engine.Run(q1).ValueOrDie();
  auto a2 = engine.Run(c1.query).ValueOrDie();
  EXPECT_TRUE(a1.EqualsAsSet(a2));
  // Canonicalizing an already-canonical query is a fixpoint.
  EXPECT_EQ(CanonicalizeCq(c1.query).signature, c1.signature);
}

TEST(PlanCacheTest, LookupInsertAndPerRelationStaleness) {
  Database db;
  RelId e = db.AddRelation("E", 2).ValueOrDie();
  RelId f = db.AddRelation("F", 2).ValueOrDie();
  db.relation(e).Add({1, 2});
  db.relation(f).Add({1, 2});
  auto qe = ParseConjunctive("ans(x, y) :- E(x, y).").ValueOrDie();
  auto qf = ParseConjunctive("ans(x, y) :- F(x, y).").ValueOrDie();
  PlanCache cache;
  EXPECT_EQ(cache.Lookup<int>("ke", db), nullptr);  // miss
  cache.Insert("ke", db, qe, std::make_shared<int>(42));
  cache.Insert("kf", db, qf, std::make_shared<int>(43));
  auto hit = cache.Lookup<int>("ke", db);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, 42);
  PlanCacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.stale_entries, 0u);
  EXPECT_EQ(s.entries, 2u);
  // Mutating E stales exactly the E-reading entry; the F entry survives.
  db.relation(e).Add({2, 3});
  EXPECT_EQ(cache.Lookup<int>("ke", db), nullptr);
  ASSERT_NE(cache.Lookup<int>("kf", db), nullptr);
  s = cache.stats();
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.stale_entries, 1u);
  EXPECT_EQ(s.entries, 1u);
  // NoteReuse credits hits without a lookup.
  cache.NoteReuse(5);
  EXPECT_EQ(cache.stats().hits, 7u);
}

TEST(PlanCacheTest, LruCapacityEvictsColdestEntry) {
  Database db;
  RelId e = db.AddRelation("E", 2).ValueOrDie();
  db.relation(e).Add({1, 2});
  auto q = ParseConjunctive("ans(x, y) :- E(x, y).").ValueOrDie();
  PlanCache cache;
  cache.set_capacity(2);
  EXPECT_EQ(cache.capacity(), 2u);
  cache.Insert("a", db, q, std::make_shared<int>(1));
  cache.Insert("b", db, q, std::make_shared<int>(2));
  // Touch "a" so "b" is the LRU entry when "c" overflows the capacity.
  ASSERT_NE(cache.Lookup<int>("a", db), nullptr);
  cache.Insert("c", db, q, std::make_shared<int>(3));
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.Lookup<int>("b", db), nullptr);  // evicted
  EXPECT_NE(cache.Lookup<int>("a", db), nullptr);
  EXPECT_NE(cache.Lookup<int>("c", db), nullptr);
  // Shrinking the capacity evicts immediately, coldest first.
  cache.set_capacity(1);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().evictions, 2u);
  EXPECT_NE(cache.Lookup<int>("c", db), nullptr);  // the MRU entry survived
  // Capacity 0 = unlimited.
  cache.set_capacity(0);
  cache.Insert("d", db, q, std::make_shared<int>(4));
  cache.Insert("e", db, q, std::make_shared<int>(5));
  EXPECT_EQ(cache.stats().entries, 3u);
  EXPECT_EQ(cache.stats().evictions, 2u);
}

TEST(PlanCacheTest, AcyclicRepeatAndRenamedQueryHit) {
  Database db = SmallGraphDb(15, 0.3, 11);
  Engine engine(db);
  auto q = ParseConjunctive("ans(x, z) :- E(x, y), E(y, z).").ValueOrDie();
  auto first = engine.Run(q).ValueOrDie();
  uint64_t misses = engine.last_stats().plan_cache.misses;
  EXPECT_GT(misses, 0u);
  EXPECT_EQ(engine.last_stats().plan_cache.hits, 0u);
  // Identical repeat: hit, same answers.
  auto second = engine.Run(q).ValueOrDie();
  EXPECT_TRUE(first.EqualsAsSet(second));
  EXPECT_GT(engine.last_stats().plan_cache.hits, 0u);
  EXPECT_EQ(engine.last_stats().plan_cache.misses, misses);
  // Renaming-equivalent query: also a hit (canonical key).
  auto renamed =
      ParseConjunctive("ans(p, r) :- E(p, q), E(q, r).").ValueOrDie();
  uint64_t hits = engine.last_stats().plan_cache.hits;
  auto third = engine.Run(renamed).ValueOrDie();
  EXPECT_TRUE(first.EqualsAsSet(third));
  EXPECT_GT(engine.last_stats().plan_cache.hits, hits);
  EXPECT_EQ(engine.last_stats().plan_cache.misses, misses);
}

TEST(PlanCacheTest, InsertInvalidatesAndAnswersTrackNewData) {
  Database db;
  RelId e = db.AddRelation("E", 2).ValueOrDie();
  db.relation(e).Add({1, 2});
  db.relation(e).Add({2, 3});
  Engine engine(db);
  auto q = ParseConjunctive("ans(x, z) :- E(x, y), E(y, z).").ValueOrDie();
  auto before = engine.Run(q).ValueOrDie();
  EXPECT_EQ(before.size(), 1u);  // (1,3)
  ASSERT_TRUE(engine.Run(q).ok());
  EXPECT_GT(engine.last_stats().plan_cache.hits, 0u);
  // Mutation through the mutable handle bumps E's generation stamp; the
  // next run must drop the stale entry and see the new row — a stale cached
  // plan would keep answering from the old S_j views.
  db.relation(e).Add({3, 4});
  auto after = engine.Run(q).ValueOrDie();
  EXPECT_EQ(after.size(), 2u);  // (1,3), (2,4)
  EXPECT_GT(engine.last_stats().plan_cache.stale_entries, 0u);
}

TEST(PlanCacheTest, RetainedHandleMutationInvalidates) {
  // Mutations through a Relation& grabbed BEFORE the engine ever ran must
  // still invalidate: stored relations carry the database's generation
  // counter, so the bump happens at mutation time, not handle-access time.
  Database db;
  RelId e = db.AddRelation("E", 2).ValueOrDie();
  Relation& handle = db.relation(e);
  handle.Add({1, 2});
  handle.Add({2, 3});
  Engine engine(db);
  auto q = ParseConjunctive("ans(x, z) :- E(x, y), E(y, z).").ValueOrDie();
  EXPECT_EQ(engine.Run(q).ValueOrDie().size(), 1u);
  handle.Add({3, 4});  // the engine never sees this handle
  auto after = engine.Run(q).ValueOrDie();
  EXPECT_EQ(after.size(), 2u) << "cached plan served stale rows";
  EXPECT_GT(engine.last_stats().plan_cache.stale_entries, 0u);
}

TEST(PlanCacheTest, CyclicRouteCachesToo) {
  Database db = SmallGraphDb(12, 0.4, 5);
  Engine engine(db);
  auto q = ParseConjunctive("ans(x) :- E(x, y), E(y, z), E(z, x).")
               .ValueOrDie();
  auto first = engine.Run(q).ValueOrDie();
  uint64_t misses = engine.last_stats().plan_cache.misses;
  auto second = engine.Run(q).ValueOrDie();
  EXPECT_TRUE(first.EqualsAsSet(second));
  EXPECT_GT(engine.last_stats().plan_cache.hits, 0u);
  EXPECT_EQ(engine.last_stats().plan_cache.misses, misses);
}

TEST(PlanCacheTest, EveryPlannerOptionIsPartOfTheKey) {
  // Flipping any planner option after a cached run must compile a new
  // entry, never serve the plan built under the old setting.
  Database db = SmallGraphDb(12, 0.4, 5);
  auto q = ParseConjunctive("ans(x) :- E(x, y), E(y, z), E(z, x), x < y.")
               .ValueOrDie();
  PlanCache cache;
  EvalContext ctx;
  ctx.plan_cache = &cache;
  auto reference = NaiveEvaluateCq(db, q, ctx).ValueOrDie();
  for (bool PlannerOptions::* field :
       {&PlannerOptions::full_reducer, &PlannerOptions::wcoj}) {
    const size_t entries = cache.stats().entries;
    ctx.planner.*field = !(ctx.planner.*field);
    auto out = NaiveEvaluateCq(db, q, ctx).ValueOrDie();
    EXPECT_EQ(cache.stats().entries, entries + 1);
    EXPECT_TRUE(out.data() == reference.data());
  }
}

TEST(PlanCacheTest, UcqDisjunctsReuseAcrossCalls) {
  Database db = SmallGraphDb(12, 0.3, 13);
  Engine engine(db);
  // Re-parsing re-standardizes variables apart, so only the canonical keys
  // can hit across calls.
  const char* text = "ans(x) := exists y . (E(x, y) or E(y, x)).";
  auto first = engine.RunText(text).ValueOrDie();
  uint64_t misses = engine.last_stats().plan_cache.misses;
  EXPECT_GT(misses, 0u);
  auto second = engine.RunText(text).ValueOrDie();
  EXPECT_TRUE(first.EqualsAsSet(second));
  EXPECT_GT(engine.last_stats().plan_cache.hits, 0u);
  EXPECT_EQ(engine.last_stats().plan_cache.misses, misses);
}

TEST(PlanCacheTest, DatalogRuleVariantsReuseAcrossPrograms) {
  Database db = SmallGraphDb(10, 0.3, 17);
  Engine engine(db);
  const char* program =
      "tc(x, y) :- E(x, y).\n"
      "tc(x, y) :- E(x, z), tc(z, y).\n";
  auto first = engine.RunText(program).ValueOrDie();
  uint64_t misses = engine.last_stats().plan_cache.misses;
  size_t built_first = engine.last_stats().datalog.plans_built;
  EXPECT_GT(built_first, 0u);
  // Second run of the same program: every variant's first firing should be
  // served from the cross-query cache (hits grow, misses do not).
  auto second = engine.RunText(program).ValueOrDie();
  EXPECT_TRUE(first.EqualsAsSet(second));
  EXPECT_GT(engine.last_stats().plan_cache.hits, 0u);
  EXPECT_EQ(engine.last_stats().plan_cache.misses, misses);
  // The firing identity still holds on the cached run.
  const DatalogStats& ds = engine.last_stats().datalog;
  EXPECT_EQ(ds.rule_firings, ds.plans_built + ds.plan_reuses + ds.replans);
}

TEST(PlanCacheTest, DatalogRenamedRuleHitsSameEntry) {
  Database db = SmallGraphDb(10, 0.3, 19);
  Engine engine(db);
  auto first = engine.RunText(
      "p(x, y) :- E(x, y).\n"
      "p(x, y) :- E(x, z), p(z, y).\n").ValueOrDie();
  uint64_t misses = engine.last_stats().plan_cache.misses;
  // The same program with every VARIABLE renamed: rule bodies are
  // renaming-equivalent (relation names, including the recursive IDB
  // reference, must match — they are part of the signature), so all
  // variant plans hit.
  auto second = engine.RunText(
      "p(a, b) :- E(a, b).\n"
      "p(a, b) :- E(a, c), p(c, b).\n").ValueOrDie();
  EXPECT_TRUE(first.EqualsAsSet(second));
  EXPECT_GT(engine.last_stats().plan_cache.hits, 0u);
  EXPECT_EQ(engine.last_stats().plan_cache.misses, misses);
}

TEST(PlanCacheTest, Theorem2ColoringsAreCacheHits) {
  // The acceptance headline: one residual plan compiled, k^k colorings
  // executed — EngineStats must show nonzero plan_cache_hits after ONE
  // inequality query whose family has more than one coloring.
  Database db = SmallGraphDb(30, 0.15, 23);
  Engine engine(db);
  auto q = ParseConjunctive(
               "ans(a) :- E(a, b), E(b, c), a != c, a != b, b != c.")
               .ValueOrDie();
  ASSERT_TRUE(engine.Run(q).ok());
  EXPECT_GT(engine.last_stats().ineq.family_size, 1u);
  EXPECT_GT(engine.last_stats().plan_cache.hits, 0u);
  // A repeat reuses the whole compilation (another hit on the entry itself).
  uint64_t hits = engine.last_stats().plan_cache.hits;
  ASSERT_TRUE(engine.Run(q).ok());
  EXPECT_GT(engine.last_stats().plan_cache.hits, hits);
  EXPECT_GT(engine.last_stats().plan.joins, 0u);  // plan-routed for real
}

TEST(PlanCacheTest, CachedAnswersMatchUncachedAcrossRandomQueries) {
  // Differential: an engine with a shared cache vs fresh evaluation, over a
  // mixed pool of repeated acyclic/cyclic/inequality queries.
  Rng rng(29);
  Database db = SmallGraphDb(14, 0.3, 31);
  Engine cached(db);
  const char* pool[] = {
      "ans(x, z) :- E(x, y), E(y, z).",
      "ans(x) :- E(x, y), E(y, z), E(z, x).",
      "ans(a, c) :- E(a, b), E(b, c).",
      "ans(x) :- E(x, y), x != y.",
      "ans(a) :- E(a, b), E(b, c), a != c.",
      "ans(x, w) :- E(x, y), E(y, z), E(z, w).",
  };
  for (int round = 0; round < 30; ++round) {
    const char* text = pool[rng.Below(6)];
    auto q = ParseConjunctive(text).ValueOrDie();
    auto with_cache = cached.Run(q).ValueOrDie();
    Engine fresh(db);  // new engine: empty cache
    auto without = fresh.Run(q).ValueOrDie();
    EXPECT_TRUE(with_cache.EqualsAsSet(without)) << text;
  }
  EXPECT_GT(cached.last_stats().plan_cache.hits, 0u);
}

TEST(PlanCacheTest, CountingAndTupleModesNeverCrossServe) {
  // Same body text, alternating answer shapes: the cache must key on the
  // AnswerSpec (a cached tuple plan must never answer a COUNT and vice
  // versa), and repeated counting runs must hit their own entry.
  Database db = SmallGraphDb(14, 0.3, 41);
  Engine engine(db);
  auto tuples = ParseConjunctive("ans(x, z) :- E(x, y), E(y, z).").ValueOrDie();
  auto scalar = ParseConjunctive("COUNT(*) :- E(x, y), E(y, z).").ValueOrDie();
  auto grouped = ParseConjunctive("COUNT(x) :- E(x, y), E(y, z).").ValueOrDie();
  EXPECT_NE(CanonicalCqSignature(tuples), CanonicalCqSignature(scalar));
  EXPECT_NE(CanonicalCqSignature(scalar), CanonicalCqSignature(grouped));
  Relation base_tuples = engine.Run(tuples).ValueOrDie();
  Relation base_scalar = engine.Run(scalar).ValueOrDie();
  Relation base_grouped = engine.Run(grouped).ValueOrDie();
  // COUNT(*) counts assignments to ALL body variables — the full-head
  // enumeration, not the projected tuple answer.
  auto full =
      ParseConjunctive("ans(x, y, z) :- E(x, y), E(y, z).").ValueOrDie();
  Relation full_rows = engine.Run(full).ValueOrDie();
  ASSERT_EQ(base_scalar.size(), 1u);
  EXPECT_EQ(base_scalar.At(0, 0), static_cast<Value>(full_rows.size()));
  size_t misses_after_warmup = engine.last_stats().plan_cache.misses;
  for (int round = 0; round < 4; ++round) {
    EXPECT_TRUE(engine.Run(tuples).ValueOrDie().EqualsAsSet(base_tuples));
    EXPECT_TRUE(engine.Run(scalar).ValueOrDie().EqualsAsSet(base_scalar));
    EXPECT_TRUE(engine.Run(grouped).ValueOrDie().EqualsAsSet(base_grouped));
  }
  // Alternation after warm-up is pure hits: three distinct entries, no
  // cross-shape stomping.
  EXPECT_EQ(engine.last_stats().plan_cache.misses, misses_after_warmup);
  EXPECT_GT(engine.last_stats().plan_cache.hits, 0u);
}

TEST(PlanCacheTest, ParallelUcqSharesCacheSafely) {
  // Concurrent disjunct evaluation all consults one cache (mutex-guarded);
  // results must stay byte-identical to sequential, warm or cold.
  Database db = SmallGraphDb(40, 0.2, 37);
  auto q = ParseFirstOrder(
               "ans(x) := exists y . (E(x, y) or E(y, x) or "
               "(exists z . (E(x, z) and E(z, y)))).")
               .ValueOrDie();
  EngineOptions seq_options;
  Engine sequential(db, seq_options);
  auto expected = sequential.Run(q).ValueOrDie();
  EngineOptions par_options;
  par_options.threads = 4;
  Engine parallel(db, par_options);
  for (int round = 0; round < 3; ++round) {
    auto got = parallel.Run(q).ValueOrDie();
    EXPECT_TRUE(expected.EqualsAsSet(got)) << "round " << round;
  }
  EXPECT_GT(parallel.last_stats().plan_cache.hits, 0u);
}

}  // namespace
}  // namespace paraquery
