// The set form cached on storage (Relation::HashDedup): the first dedup of a
// RowBlock records that it is duplicate-free or keeps its deduplicated
// block, later dedups of any view of that block reuse it in O(1), and every
// write invalidates it. Planner and engine inputs over one stored bag share
// that one set form across plans and queries.
#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "plan/planner.hpp"
#include "query/parser.hpp"
#include "relational/database.hpp"
#include "relational/relation.hpp"
#include "relational/row_index.hpp"
#include "relational/storage_cache_stats.hpp"
#include "runtime/scheduler.hpp"

namespace paraquery {
namespace {

struct SetFormCounts {
  uint64_t hits = 0;
  uint64_t builds = 0;
};

SetFormCounts ReadCounts() {
  const StorageCacheStats& s = GlobalStorageCacheStats();
  return {s.set_hits.load(), s.set_builds.load()};
}

// The first occurrence of each row, in row order: HashDedup's contract.
std::vector<Value> FirstOccurrences(const Relation& r) {
  std::set<std::vector<Value>> seen;
  std::vector<Value> out;
  for (size_t i = 0; i < r.size(); ++i) {
    std::vector<Value> row(r.Row(i).begin(), r.Row(i).end());
    if (seen.insert(row).second) out.insert(out.end(), row.begin(), row.end());
  }
  return out;
}

// `rows` rows over a small domain, so most values repeat and the relation
// holds duplicate rows.
Relation Bag(size_t rows, Value domain, uint64_t seed) {
  Relation r(2);
  uint64_t x = seed * 0x9E3779B97F4A7C15ull + 1;
  for (size_t i = 0; i < rows; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    r.Add({static_cast<Value>(x % domain),
           static_cast<Value>((x >> 20) % domain)});
  }
  return r;
}

TEST(SetFormTest, SecondViewOfABagSharesTheFirstResult) {
  Relation bag(2);
  bag.Add({1, 2});
  bag.Add({3, 4});
  bag.Add({1, 2});
  const SetFormCounts before = ReadCounts();
  Relation a = bag;
  a.HashDedup();
  Relation b = bag;
  b.HashDedup();
  const SetFormCounts after = ReadCounts();
  EXPECT_EQ(after.builds - before.builds, 1u);
  EXPECT_EQ(after.hits - before.hits, 1u);
  EXPECT_TRUE(b.SharesStorageWith(a));
  EXPECT_FALSE(a.SharesStorageWith(bag));
  EXPECT_TRUE(a.SharesStorageOrSetFormWith(bag));
  EXPECT_FALSE(bag.SharesStorageOrSetFormWith(a));
  EXPECT_EQ(a.data(), (std::vector<Value>{1, 2, 3, 4}));
  EXPECT_EQ(bag.size(), 3u);  // the stored bag is untouched
  // The adopted block is itself known duplicate-free.
  Relation c = a;
  c.HashDedup();
  EXPECT_TRUE(c.SharesStorageWith(a));
  EXPECT_EQ(ReadCounts().builds, after.builds);
}

TEST(SetFormTest, DuplicateFreeRelationKeepsItsStorage) {
  Relation set(2);
  set.Add({1, 2});
  set.Add({3, 4});
  const SetFormCounts before = ReadCounts();
  for (int i = 0; i < 3; ++i) {
    Relation view = set;
    view.HashDedup();
    EXPECT_TRUE(view.SharesStorageWith(set));
  }
  const SetFormCounts after = ReadCounts();
  EXPECT_EQ(after.builds - before.builds, 1u);
  EXPECT_EQ(after.hits - before.hits, 2u);
}

TEST(SetFormTest, OutputIsFirstOccurrenceAtAnyWidth) {
  // Above the parallel dedup's threshold, so width 4 takes the partitioned
  // pass; each width dedups a fresh copy of the rows (no shared cache).
  const Relation bag = Bag(20000, 90, 3);
  const std::vector<Value> expected = FirstOccurrences(bag);
  ASSERT_LT(expected.size(), bag.data().size());
  TaskScheduler scheduler(4);
  for (const ParallelForFn& pfor :
       {ParallelForFn{}, MakeParallelFor(&scheduler)}) {
    Relation copy(2, bag.data());
    copy.HashDedup(pfor);
    EXPECT_EQ(copy.data(), expected);
    Relation again(2, bag.data());
    Relation view = again;
    view.HashDedup(pfor);
    Relation second = again;
    second.HashDedup();
    EXPECT_TRUE(second.SharesStorageWith(view));
    EXPECT_EQ(second.data(), expected);
  }
}

TEST(SetFormTest, InPlaceAddInvalidates) {
  Relation bag(2);
  bag.Add({1, 2});
  bag.Add({1, 2});
  {
    Relation view = bag;
    view.HashDedup();
    EXPECT_EQ(view.size(), 1u);
  }
  bag.Add({5, 6});  // exclusive again: mutates in place
  const SetFormCounts before = ReadCounts();
  Relation view = bag;
  view.HashDedup();
  EXPECT_EQ(ReadCounts().builds - before.builds, 1u);
  EXPECT_EQ(view.data(), (std::vector<Value>{1, 2, 5, 6}));
}

TEST(SetFormTest, CopyOnWriteAddStartsWithoutTheSetForm) {
  Relation bag(2);
  bag.Add({1, 2});
  bag.Add({1, 2});
  Relation old_view = bag;  // keeps the old block shared
  Relation first = bag;
  first.HashDedup();
  bag.Add({7, 8});  // copy-on-write clone
  const SetFormCounts before = ReadCounts();
  Relation view = bag;
  view.HashDedup();
  EXPECT_EQ(ReadCounts().builds - before.builds, 1u);
  EXPECT_EQ(view.data(), (std::vector<Value>{1, 2, 7, 8}));
  // The old block's set form still serves views of the old rows.
  old_view.HashDedup();
  EXPECT_TRUE(old_view.SharesStorageWith(first));
  EXPECT_EQ(old_view.data(), (std::vector<Value>{1, 2}));
}

TEST(SetFormTest, RowHashSetAndMarkedRelationsAreKnownDuplicateFree) {
  RowHashSet set(2);
  set.Insert(std::vector<Value>{1, 2});
  set.Insert(std::vector<Value>{1, 2});
  set.Insert(std::vector<Value>{3, 4});
  Relation delta(2);
  delta.Add({5, 6});
  delta.Add({7, 8});
  delta.MarkDuplicateFree();
  const SetFormCounts before = ReadCounts();
  Relation a = set.rel();
  a.HashDedup();
  Relation b = delta;
  b.HashDedup();
  const SetFormCounts after = ReadCounts();
  EXPECT_EQ(after.builds, before.builds);
  EXPECT_EQ(after.hits - before.hits, 2u);
  EXPECT_TRUE(a.SharesStorageWith(set.rel()));
  EXPECT_TRUE(b.SharesStorageWith(delta));
  // A write after the mark clears it.
  delta.Add({5, 6});
  Relation c = delta;
  c.HashDedup();
  EXPECT_EQ(ReadCounts().builds - after.builds, 1u);
  EXPECT_EQ(c.size(), 2u);
}

TEST(SetFormTest, ConcurrentViewsAdoptOneSetForm) {
  const Relation bag = Bag(30000, 120, 5);
  const std::vector<Value> expected = FirstOccurrences(bag);
  std::vector<Relation> views(4, Relation(2));
  std::vector<std::thread> threads;
  for (size_t t = 0; t < views.size(); ++t) {
    threads.emplace_back([&bag, &views, t] {
      Relation view = bag;
      view.HashDedup();
      views[t] = view;
    });
  }
  for (std::thread& t : threads) t.join();
  for (const Relation& v : views) {
    EXPECT_EQ(v.data(), expected);
    EXPECT_TRUE(v.SharesStorageWith(views[0]));
    EXPECT_TRUE(v.SharesStorageOrSetFormWith(bag));
  }
}

Database BagDatabase() {
  Database db;
  RelId r = db.AddRelation("R", 2).ValueOrDie();
  // The chain 1 -> 2 -> 3 -> 4 -> 5 with (1, 2) stored twice: R is a bag.
  for (Value v : {1, 2, 3, 4, 1}) db.relation(r).Add({v, v + 1});
  return db;
}

TEST(SetFormTest, PlansOfDifferentQueriesShareOneSetForm) {
  Database db = BagDatabase();
  auto q1 = ParseConjunctive("ans(x, z) :- R(x, y), R(y, z).").ValueOrDie();
  auto q2 = ParseConjunctive("ans(x) :- R(x, y).").ValueOrDie();
  const SetFormCounts before = ReadCounts();
  PhysicalPlan p1 = PlanConjunctive(db, q1).ValueOrDie();
  PhysicalPlan p2 = PlanConjunctive(db, q2).ValueOrDie();
  EXPECT_EQ(ReadCounts().builds - before.builds, 1u);
  ASSERT_EQ(p1.inputs.size(), 2u);
  ASSERT_EQ(p2.inputs.size(), 1u);
  EXPECT_TRUE(p1.inputs[0].rel().SharesStorageWith(p2.inputs[0].rel()));
  EXPECT_TRUE(p1.inputs[1].rel().SharesStorageWith(p2.inputs[0].rel()));
  EXPECT_EQ(p1.shared_atom_storage, 2u);
  EXPECT_EQ(p2.shared_atom_storage, 1u);
  EXPECT_EQ(p2.inputs[0].size(), 4u);

  // Through the engine, for two different queries.
  Engine engine(db);
  auto a1 = engine.RunText("ans(x, z) :- R(x, y), R(y, z).");
  ASSERT_TRUE(a1.ok());
  EXPECT_EQ(engine.last_stats().plan.shared_atom_storage, 2u);
  auto a2 = engine.RunText("ans(y) :- R(x, y).");
  ASSERT_TRUE(a2.ok());
  EXPECT_EQ(engine.last_stats().plan.shared_atom_storage, 1u);
  EXPECT_EQ(a2.value().data(), (std::vector<Value>{2, 3, 4, 5}));
}

TEST(SetFormTest, FreshPlansWithThePlanCacheOffBuildOneSetForm) {
  Database db = BagDatabase();
  EngineOptions options;
  options.use_plan_cache = false;
  Engine engine(db, options);
  Counter& builds = engine.metrics().counter("pq_set_form_cache_builds_total");
  Counter& hits = engine.metrics().counter("pq_set_form_cache_hits_total");
  ASSERT_TRUE(engine.RunText("ans(x) :- R(x, x).").ok());  // a first scrape
  const uint64_t builds_before = builds.value();
  const uint64_t hits_before = hits.value();
  constexpr int kPlans = 5;
  for (int i = 0; i < kPlans; ++i) {
    auto answer = engine.RunText("ans(x, y) :- R(x, y).");
    ASSERT_TRUE(answer.ok());
    EXPECT_EQ(answer.value().size(), 4u);
    EXPECT_EQ(engine.last_stats().plan.shared_atom_storage, 1u);
  }
  EXPECT_EQ(builds.value() - builds_before, 1u);
  EXPECT_EQ(hits.value() - hits_before, kPlans - 1u);
}

TEST(SetFormTest, WritesAndRestoresOfADatabaseRecomputeTheSetForm) {
  Database db = BagDatabase();
  const Database pristine = db;
  auto q = ParseConjunctive("ans(x, y) :- R(x, y).").ValueOrDie();
  PhysicalPlan before_write = PlanConjunctive(db, q).ValueOrDie();
  EXPECT_EQ(before_write.inputs[0].size(), 4u);

  // A write copies the stored rows away from `pristine` (copy-on-write):
  // the next plan recomputes the set form and sees the new row.
  RelId r = db.FindRelation("R").ValueOrDie();
  db.relation(r).Add({9, 9});
  db.relation(r).Add({9, 9});
  SetFormCounts counts = ReadCounts();
  PhysicalPlan after_write = PlanConjunctive(db, q).ValueOrDie();
  EXPECT_EQ(ReadCounts().builds - counts.builds, 1u);
  EXPECT_EQ(after_write.inputs[0].size(), 5u);  // four rows and (9, 9)
  EXPECT_FALSE(after_write.inputs[0].rel().SharesStorageWith(
      before_write.inputs[0].rel()));
  EXPECT_EQ(after_write.shared_atom_storage, 1u);

  // Restoring the database (Database assignment) brings back the original
  // storage and with it the set form cached on it.
  db = pristine;
  counts = ReadCounts();
  PhysicalPlan restored = PlanConjunctive(db, q).ValueOrDie();
  EXPECT_EQ(ReadCounts().builds, counts.builds);
  EXPECT_TRUE(restored.inputs[0].rel().SharesStorageWith(
      before_write.inputs[0].rel()));
  Engine engine(db);
  auto answer = engine.RunText("ans(x, y) :- R(x, y).");
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer.value().data(),
            (std::vector<Value>{1, 2, 2, 3, 3, 4, 4, 5}));
}

TEST(SetFormTest, DatalogOverABagMatchesTheSetAnswer) {
  Database db = BagDatabase();
  Database set = db;
  RelId r = set.FindRelation("R").ValueOrDie();
  set.relation(r).HashDedup();
  const std::string tc =
      "tc(x, y) :- R(x, y).\n"
      "tc(x, y) :- R(x, z), tc(z, y).\n";
  for (size_t threads : {1, 4}) {
    EngineOptions options;
    options.threads = threads;
    auto bag_answer = Engine(db, options).RunText(tc);
    auto set_answer = Engine(set, options).RunText(tc);
    ASSERT_TRUE(bag_answer.ok());
    ASSERT_TRUE(set_answer.ok());
    EXPECT_EQ(bag_answer.value().data(), set_answer.value().data());
    EXPECT_EQ(bag_answer.value().size(), 10u);  // 1..5 chain: 4+3+2+1
  }
}

}  // namespace
}  // namespace paraquery
