#include <gtest/gtest.h>

#include "relational/database.hpp"
#include "relational/dictionary.hpp"
#include "relational/named_relation.hpp"
#include "relational/predicate.hpp"
#include "relational/relation.hpp"
#include "relational/row_index.hpp"

namespace paraquery {
namespace {

TEST(DictionaryTest, InternIsIdempotent) {
  Dictionary d;
  Value a = d.Intern("alice");
  Value b = d.Intern("bob");
  EXPECT_NE(a, b);
  EXPECT_EQ(d.Intern("alice"), a);
  EXPECT_EQ(d.Lookup(a), "alice");
  EXPECT_EQ(d.Lookup(b), "bob");
  EXPECT_EQ(d.size(), 2u);
}

TEST(DictionaryTest, FindMissing) {
  Dictionary d;
  EXPECT_EQ(d.Find("ghost"), Dictionary::kNotFound);
  d.Intern("x");
  EXPECT_EQ(d.Find("x"), Dictionary::kCodeBase);
  EXPECT_FALSE(d.Contains(5));
  EXPECT_FALSE(d.Contains(Dictionary::kCodeBase + 1));
}

TEST(DictionaryTest, CodesAreDisjointFromSmallIntegers) {
  // Codes live in the reserved range [kCodeBase, ...): a genuine integer
  // value can never be mistaken for an interned string (the WriteCsv
  // use_dict round-trip bug).
  Dictionary d;
  Value a = d.Intern("alice");
  EXPECT_TRUE(Dictionary::InCodeRange(a));
  EXPECT_TRUE(d.Contains(a));
  EXPECT_FALSE(d.Contains(0));
  EXPECT_FALSE(Dictionary::InCodeRange(0));
  EXPECT_FALSE(Dictionary::InCodeRange(-1));
  EXPECT_FALSE(Dictionary::InCodeRange((Value{1} << 62) - 1));
}

TEST(RelationTest, CopySharesStorageUntilMutation) {
  Relation a(2);
  a.Add({1, 2});
  a.Add({3, 4});
  Relation b = a;  // whole-relation alias: no row copy
  EXPECT_TRUE(b.SharesStorageWith(a));
  EXPECT_TRUE(a.SharesStorageWith(b));
  // Copy-on-write: mutating one side detaches it and leaves the other alone.
  b.Add({5, 6});
  EXPECT_FALSE(b.SharesStorageWith(a));
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(b.size(), 3u);
  EXPECT_EQ(a.At(1, 1), 4);
  EXPECT_EQ(b.At(2, 0), 5);
}

TEST(RelationTest, ClearDetachesSharedStorage) {
  Relation a(1);
  a.Add({7});
  Relation b = a;
  b.Clear();
  EXPECT_EQ(b.size(), 0u);
  EXPECT_EQ(a.size(), 1u);
  EXPECT_EQ(a.At(0, 0), 7);
}

TEST(RelationTest, HashDedupOnDuplicateFreeAliasKeepsSharing) {
  Relation a(2);
  a.Add({1, 2});
  a.Add({3, 4});
  Relation b = a;
  b.HashDedup();  // nothing to remove: must not copy
  EXPECT_TRUE(b.SharesStorageWith(a));
  a.Add({1, 2});
  Relation c = a;
  c.HashDedup();  // removes the duplicate: detaches, a keeps all 3 rows
  EXPECT_FALSE(c.SharesStorageWith(a));
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(a.size(), 3u);
}

TEST(NamedRelationTest, WithAttrsAndRenameAreZeroCopy) {
  NamedRelation r({0, 1});
  r.rel().Add({1, 2});
  NamedRelation view = r.WithAttrs({7, 9});
  EXPECT_TRUE(view.rel().SharesStorageWith(r.rel()));
  EXPECT_EQ(view.ColumnOf(7), 0);
  EXPECT_EQ(view.ColumnOf(9), 1);
  EXPECT_EQ(view.rel().At(0, 1), 2);
  view.RenameAttr(7, 3);
  EXPECT_TRUE(view.rel().SharesStorageWith(r.rel()));
  // The original's labels are untouched.
  EXPECT_EQ(r.ColumnOf(0), 0);
  // Writing through the view detaches it.
  view.rel().Add({3, 4});
  EXPECT_FALSE(view.rel().SharesStorageWith(r.rel()));
  EXPECT_EQ(r.size(), 1u);
}

TEST(RelationTest, AddAndAccess) {
  Relation r(2);
  r.Add({1, 2});
  r.Add({3, 4});
  EXPECT_EQ(r.arity(), 2u);
  EXPECT_EQ(r.size(), 2u);
  EXPECT_EQ(r.At(0, 0), 1);
  EXPECT_EQ(r.At(1, 1), 4);
}

TEST(RelationTest, SortAndDedup) {
  Relation r(2);
  r.Add({3, 4});
  r.Add({1, 2});
  r.Add({3, 4});
  r.Add({1, 1});
  r.SortAndDedup();
  EXPECT_EQ(r.size(), 3u);
  EXPECT_TRUE(r.sorted());
  EXPECT_EQ(r.At(0, 0), 1);
  EXPECT_EQ(r.At(0, 1), 1);
  EXPECT_EQ(r.At(2, 0), 3);
}

// SortAndDedup returns early on a relation flagged sorted, so every content
// mutator must clear the flag: a stale one would hand back unsorted answers.
TEST(RelationTest, MutatorsClearSortedFlag) {
  auto sorted_pair = [] {
    Relation r(2);
    r.Add({3, 4});
    r.Add({1, 2});
    r.SortAndDedup();
    return r;
  };
  auto unsorted_pair = [] {
    Relation r(2);
    r.Add({5, 5});
    r.Add({1, 1});
    return r;
  };
  {
    Relation r = sorted_pair();
    ASSERT_TRUE(r.sorted());
    r.Add({0, 0});  // MutableValues path
    EXPECT_FALSE(r.sorted());
    r.SortAndDedup();
    EXPECT_EQ(r.At(0, 0), 0);
  }
  {
    Relation r(0);
    r.SortAndDedup();
    ASSERT_TRUE(r.sorted());
    r.AddEmptyRow();
    EXPECT_FALSE(r.sorted());
  }
  {
    Relation r = sorted_pair();
    r.Clear();
    EXPECT_FALSE(r.sorted());
  }
  {
    Relation r = sorted_pair();
    Relation src = unsorted_pair();
    r = src;  // copy-assign replaces the content
    EXPECT_FALSE(r.sorted());
    Relation t = sorted_pair();
    t = unsorted_pair();  // move-assign
    EXPECT_FALSE(t.sorted());
  }
  {
    // HashDedup that removes rows replaces the storage (ReplaceValues path)
    // in first-occurrence order, which is not sorted.
    Relation r = unsorted_pair();
    r.Add({5, 5});
    r.HashDedup();
    EXPECT_EQ(r.size(), 2u);
    EXPECT_FALSE(r.sorted());
  }
  {
    // A RowHashSet's backing relation appends without the copy-on-write
    // check; its rows come out in insertion order.
    RowHashSet set(2);
    set.Insert(std::vector<Value>{5, 5});
    set.Insert(std::vector<Value>{1, 1});
    EXPECT_FALSE(set.TakeRelation().sorted());
  }
  {
    // Capacity-only changes keep the content, so the flag stays valid.
    Relation r = sorted_pair();
    r.Reserve(100);
    r.ShrinkToFit();
    EXPECT_TRUE(r.sorted());
  }
}

TEST(RelationTest, ContainsSortedAndUnsorted) {
  Relation r(2);
  r.Add({5, 6});
  r.Add({1, 2});
  EXPECT_TRUE(r.Contains(std::vector<Value>{5, 6}));
  EXPECT_FALSE(r.Contains(std::vector<Value>{6, 5}));
  r.SortAndDedup();
  EXPECT_TRUE(r.Contains(std::vector<Value>{5, 6}));
  EXPECT_TRUE(r.Contains(std::vector<Value>{1, 2}));
  EXPECT_FALSE(r.Contains(std::vector<Value>{0, 0}));
}

TEST(RelationTest, ZeroAryBooleanSemantics) {
  Relation r(0);
  EXPECT_TRUE(r.empty());
  r.AddEmptyRow();
  EXPECT_EQ(r.size(), 1u);
  r.AddEmptyRow();
  EXPECT_EQ(r.size(), 2u);
  r.SortAndDedup();
  EXPECT_EQ(r.size(), 1u);
  EXPECT_TRUE(r.Contains(std::vector<Value>{}));
}

TEST(RelationTest, EqualsAsSetIgnoresOrderAndDuplicates) {
  Relation a(1), b(1);
  a.Add({1});
  a.Add({2});
  a.Add({1});
  b.Add({2});
  b.Add({1});
  EXPECT_TRUE(a.EqualsAsSet(b));
  b.Add({3});
  EXPECT_FALSE(a.EqualsAsSet(b));
}

TEST(RelationTest, ClearResets) {
  Relation r(3);
  r.Add({1, 2, 3});
  r.Clear();
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.arity(), 3u);
}

TEST(NamedRelationTest, ColumnLookup) {
  NamedRelation r({10, 20, 30});
  EXPECT_EQ(r.ColumnOf(20), 1);
  EXPECT_EQ(r.ColumnOf(99), -1);
  EXPECT_TRUE(r.HasAttr(30));
}

TEST(NamedRelationTest, RenameAttr) {
  NamedRelation r({1, 2});
  r.RenameAttr(2, 7);
  EXPECT_EQ(r.ColumnOf(7), 1);
  EXPECT_EQ(r.ColumnOf(2), -1);
}

TEST(NamedRelationTest, EquivalentToHandlesColumnOrder) {
  NamedRelation a({1, 2});
  a.rel().Add({10, 20});
  NamedRelation b({2, 1});
  b.rel().Add({20, 10});
  EXPECT_TRUE(a.EquivalentTo(b));
  b.rel().Add({1, 1});
  EXPECT_FALSE(a.EquivalentTo(b));
}

TEST(NamedRelationTest, BooleanConstructors) {
  EXPECT_FALSE(BooleanTrue().empty());
  EXPECT_TRUE(BooleanFalse().empty());
  EXPECT_EQ(BooleanTrue().arity(), 0u);
}

TEST(PredicateTest, ConstraintKinds) {
  ValueVec row = {5, 5, 7};
  EXPECT_TRUE(Constraint::EqConst(0, 5).Eval(row));
  EXPECT_FALSE(Constraint::EqConst(2, 5).Eval(row));
  EXPECT_TRUE(Constraint::NeqConst(2, 5).Eval(row));
  EXPECT_TRUE(Constraint::LtConst(0, 6).Eval(row));
  EXPECT_FALSE(Constraint::LtConst(2, 7).Eval(row));
  EXPECT_TRUE(Constraint::LeConst(2, 7).Eval(row));
  EXPECT_TRUE(Constraint::GtConst(2, 6).Eval(row));
  EXPECT_TRUE(Constraint::GeConst(2, 7).Eval(row));
  EXPECT_TRUE(Constraint::EqCols(0, 1).Eval(row));
  EXPECT_FALSE(Constraint::EqCols(0, 2).Eval(row));
  EXPECT_TRUE(Constraint::NeqCols(1, 2).Eval(row));
  EXPECT_TRUE(Constraint::LtCols(1, 2).Eval(row));
  EXPECT_FALSE(Constraint::LtCols(0, 1).Eval(row));
  EXPECT_TRUE(Constraint::LeCols(0, 1).Eval(row));
}

TEST(PredicateTest, ConjunctionSemantics) {
  Predicate p;
  EXPECT_TRUE(p.Eval(ValueVec{1}));  // empty predicate accepts
  p.Add(Constraint::EqConst(0, 1));
  p.Add(Constraint::NeqConst(0, 2));
  EXPECT_TRUE(p.Eval(ValueVec{1}));
  p.Add(Constraint::EqConst(0, 3));
  EXPECT_FALSE(p.Eval(ValueVec{1}));
}

TEST(DatabaseTest, AddAndFindRelations) {
  Database db;
  auto r1 = db.AddRelation("E", 2);
  ASSERT_TRUE(r1.ok());
  auto dup = db.AddRelation("E", 3);
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
  auto found = db.FindRelation("E");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found.value(), r1.value());
  EXPECT_EQ(db.FindRelation("F").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(db.relation_arity(r1.value()), 2u);
  EXPECT_EQ(db.relation_name(r1.value()), "E");
}

TEST(DatabaseTest, ActiveDomainAndSizes) {
  Database db;
  RelId e = db.AddRelation("E", 2).ValueOrDie();
  RelId u = db.AddRelation("U", 1).ValueOrDie();
  db.relation(e).Add({1, 2});
  db.relation(e).Add({2, 3});
  db.relation(u).Add({9});
  auto dom = db.ActiveDomain();
  EXPECT_EQ(dom, (std::vector<Value>{1, 2, 3, 9}));
  EXPECT_EQ(db.TotalTuples(), 3u);
  EXPECT_EQ(db.SizeMeasure(), 2u + 2 * 2 + 1 * 1);
}

TEST(DatabaseTest, SchemaReflectsRelations) {
  Database db;
  db.AddRelation("R", 3).ValueOrDie();
  db.AddRelation("S", 1).ValueOrDie();
  DatabaseSchema schema = db.GetSchema();
  ASSERT_EQ(schema.relations.size(), 2u);
  EXPECT_EQ(schema.relations[0].name, "R");
  EXPECT_EQ(schema.relations[0].arity, 3u);
  EXPECT_EQ(schema.MaxArity(), 3u);
}

TEST(DatabaseTest, GenerationBumpsOnMutationAndAddRelation) {
  Database db;
  uint64_t g0 = db.generation();
  RelId r = db.AddRelation("R", 2).ValueOrDie();
  EXPECT_GT(db.generation(), g0);
  uint64_t g1 = db.generation();
  db.relation(r).Add({1, 2});
  EXPECT_GT(db.generation(), g1);
  uint64_t g2 = db.generation();
  // Reads never bump — not even through a mutable handle: cached plans
  // stay valid across pure queries.
  (void)db.relation(r).size();
  const Database& cdb = db;
  (void)cdb.FindRelation("R");
  EXPECT_EQ(db.generation(), g2);
  // The load-bearing case: a RETAINED mutable handle still reports its
  // mutations (the stored relation carries the database's counter), so a
  // cached plan can never serve stale rows.
  Relation& handle = db.relation(r);
  handle.Add({3, 4});
  EXPECT_GT(db.generation(), g2);
  uint64_t g3 = db.generation();
  handle.Clear();
  EXPECT_GT(db.generation(), g3);
  uint64_t g4 = db.generation();
  // Views copied out of the database are NOT bound: their copy-on-write
  // mutations do not change the stored relation and must not invalidate.
  Relation view = db.relation(r);
  EXPECT_EQ(db.generation(), g4);
  view.Add({7, 8});
  EXPECT_EQ(db.generation(), g4);
  // A moved Database keeps valid bindings (the counter box travels), and
  // the moved-from object is a usable empty database, not a nulled husk.
  Database moved = std::move(db);
  uint64_t g5 = moved.generation();
  moved.relation(r).Add({5, 6});
  EXPECT_GT(moved.generation(), g5);
  EXPECT_EQ(db.relation_count(), 0u);
  EXPECT_EQ(db.generation(), 1u);
  RelId r2 = db.AddRelation("S", 1).ValueOrDie();
  db.relation(r2).Add({1});
  EXPECT_GT(db.generation(), 1u);
  Database copy_of_moved_from = db;  // must not dereference a null counter
  EXPECT_EQ(copy_of_moved_from.relation_count(), 1u);
}

TEST(DatabaseTest, CopyAssignmentRebindsAndAdvancesGeneration) {
  // Copy-assignment onto a database with bound relations must not write
  // through the replaced counter (historically a use-after-free), and the
  // new stamp must move past BOTH histories so plan caches keyed by the
  // target's old generation can never serve the old content.
  Database a;
  RelId ar = a.AddRelation("R", 1).ValueOrDie();
  a.relation(ar).Add({1});
  a.relation(ar).Add({2});  // a's generation runs ahead
  uint64_t a_gen = a.generation();
  Database b;
  RelId br = b.AddRelation("R", 1).ValueOrDie();
  b.relation(br).Add({9});
  a = b;
  EXPECT_GT(a.generation(), a_gen);
  EXPECT_EQ(a.relation(ar).size(), 1u);
  // The copy's relations are rebound to ITS counter: mutations through the
  // copy bump the copy, not the source.
  uint64_t b_gen = b.generation();
  uint64_t a_gen2 = a.generation();
  a.relation(ar).Add({7});
  EXPECT_GT(a.generation(), a_gen2);
  EXPECT_EQ(b.generation(), b_gen);
}

TEST(DatabaseTest, MoveAssignmentAdvancesPastBothHistories) {
  // Like copy-assignment: adopting a source whose generation happens to
  // coincide with the target's would let caches stamped with the target's
  // old generation serve plans over the replaced contents.
  Database a;
  RelId ar = a.AddRelation("R", 1).ValueOrDie();
  for (Value v = 0; v < 5; ++v) a.relation(ar).Add({v});
  uint64_t a_gen = a.generation();
  Database b;
  RelId br = b.AddRelation("R", 1).ValueOrDie();
  b.relation(br).Add({42});
  a = std::move(b);
  EXPECT_GT(a.generation(), a_gen);
  EXPECT_EQ(a.relation(ar).size(), 1u);
  uint64_t g = a.generation();
  a.relation(ar).Add({7});  // adopted relations stay bound
  EXPECT_GT(a.generation(), g);
}

TEST(DatabaseTest, MovedOutRelationLeavesSlotBoundAndEscapesCleanly) {
  // Stealing a stored relation empties the slot (a content change: bumped);
  // the slot stays bound, while the STOLEN relation escapes UNBOUND — it
  // must be safe to mutate even after the database is gone (a carried
  // binding would dangle into the dead database's counter).
  Relation stolen(1);
  {
    Database db;
    RelId r = db.AddRelation("R", 1).ValueOrDie();
    db.relation(r).Add({1});
    uint64_t g0 = db.generation();
    stolen = std::move(db.relation(r));
    EXPECT_GT(db.generation(), g0);  // the slot was emptied
    EXPECT_EQ(db.relation(r).size(), 0u);
    uint64_t g1 = db.generation();
    db.relation(r).Add({2});  // the emptied slot still reports
    EXPECT_GT(db.generation(), g1);
    uint64_t g2 = db.generation();
    stolen.Add({3});  // escaped: its mutations are its own
    EXPECT_EQ(db.generation(), g2);
  }
  stolen.Add({4});  // database destroyed: must not touch freed memory
  EXPECT_EQ(stolen.size(), 3u);
}

// --- Relation::DistinctCount invalidation audit -------------------------
// The counts cache on the shared RowBlock; every mutation path must either
// clear them (in-place mutation of exclusive storage) or land on a block
// without them (copy-on-write clone, storage replacement), so zero-copy
// views can never read counts computed for different rows.

TEST(RelationTest, DistinctCountComputesAndCaches) {
  Relation r(2);
  r.Add({1, 10});
  r.Add({1, 20});
  r.Add({2, 10});
  EXPECT_EQ(r.DistinctCount(0), 2u);
  EXPECT_EQ(r.DistinctCount(1), 2u);
  r.Add({3, 30});  // in-place mutation must invalidate the cached counts
  EXPECT_EQ(r.DistinctCount(0), 3u);
  EXPECT_EQ(r.DistinctCount(1), 3u);
}

TEST(RelationTest, DistinctCountSurvivesCowSplit) {
  // View and original share one block; counts computed through the view
  // must stay correct for the view after the ORIGINAL is COW-mutated, and
  // the original must recompute fresh counts — never serve the view's.
  NamedRelation orig({0, 1});
  orig.rel().Add({1, 10});
  orig.rel().Add({2, 10});
  NamedRelation view = orig.WithAttrs({7, 9});
  ASSERT_TRUE(view.rel().SharesStorageWith(orig.rel()));
  EXPECT_EQ(view.rel().DistinctCount(1), 1u);  // cached on the shared block
  orig.rel().Add({3, 30});                     // COW: orig detaches
  EXPECT_FALSE(view.rel().SharesStorageWith(orig.rel()));
  EXPECT_EQ(orig.rel().DistinctCount(1), 2u);  // fresh counts, not stale 1
  EXPECT_EQ(view.rel().DistinctCount(1), 1u);  // view's rows are unchanged
  EXPECT_EQ(view.rel().DistinctCount(0), 2u);
}

TEST(RelationTest, DistinctCountViewMutationDetachesFromSharedCache) {
  // The mirror case: the VIEW mutates after counts were cached by the
  // original; the original must keep serving correct values.
  Relation a(1);
  a.Add({1});
  a.Add({2});
  Relation b = a;
  EXPECT_EQ(a.DistinctCount(0), 2u);
  b.Add({2});  // b detaches; its clone starts without cached stats
  EXPECT_EQ(b.DistinctCount(0), 2u);  // {1,2,2}
  b.Add({5});
  EXPECT_EQ(b.DistinctCount(0), 3u);
  EXPECT_EQ(a.DistinctCount(0), 2u);
}

TEST(RelationTest, DistinctCountAfterDedupAndClear) {
  Relation r(1);
  r.Add({4});
  r.Add({4});
  r.Add({9});
  EXPECT_EQ(r.DistinctCount(0), 2u);
  r.SortAndDedup();  // replaces storage; counts must not go stale
  EXPECT_EQ(r.size(), 2u);
  EXPECT_EQ(r.DistinctCount(0), 2u);
  r.Clear();
  EXPECT_EQ(r.DistinctCount(0), 0u);
  r.Add({7});
  EXPECT_EQ(r.DistinctCount(0), 1u);
  // HashDedup on an already-duplicate-free relation keeps storage AND the
  // (still valid) counts.
  Relation s(1);
  s.Add({1});
  s.Add({2});
  EXPECT_EQ(s.DistinctCount(0), 2u);
  s.HashDedup();
  EXPECT_EQ(s.DistinctCount(0), 2u);
}

TEST(RelationTest, DistinctCountStaleAliasCannotPoisonLaterReaders) {
  // A chain of relabeled views over one materialization: counts cached by
  // any of them serve all of them, and dropping the original leaves the
  // survivors with a consistent cache.
  NamedRelation base({0, 1});
  for (Value v = 0; v < 10; ++v) base.rel().Add({v % 2, v});
  NamedRelation v1 = base.WithAttrs({3, 4});
  NamedRelation v2 = v1.WithAttrs({5, 6});
  EXPECT_EQ(v2.rel().DistinctCount(0), 2u);
  EXPECT_EQ(base.rel().DistinctCount(0), 2u);  // served from the same cache
  v1.rel().Add({42, 42});  // v1 detaches with fresh stats
  EXPECT_EQ(v1.rel().DistinctCount(0), 3u);
  EXPECT_EQ(v2.rel().DistinctCount(0), 2u);
  EXPECT_EQ(base.rel().DistinctCount(0), 2u);
}

}  // namespace
}  // namespace paraquery
