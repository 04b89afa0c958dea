// Unit tests for the RowIndex/RowHashSet kernel plus randomized differential
// tests checking the hash-based operators against nested-loop oracles.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "relational/ops.hpp"
#include "relational/row_index.hpp"
#include "runtime/scheduler.hpp"

namespace paraquery {
namespace {

NamedRelation Make(std::vector<AttrId> attrs,
                   std::vector<std::vector<Value>> rows) {
  NamedRelation r(std::move(attrs));
  for (const auto& row : rows) r.rel().Add(row);
  return r;
}

// Rows of `rel` sorted lexicographically, duplicates preserved — a canonical
// multiset representation for comparing operator outputs exactly.
std::vector<ValueVec> CanonicalRows(const Relation& rel) {
  std::vector<ValueVec> rows;
  for (size_t r = 0; r < rel.size(); ++r) {
    rows.emplace_back(rel.Row(r).begin(), rel.Row(r).end());
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(RowIndexTest, ChainsEnumerateEqualKeysInRowOrder) {
  Relation rel(2);
  rel.Add({1, 10});
  rel.Add({2, 20});
  rel.Add({1, 30});
  rel.Add({1, 40});
  RowIndex index(rel, {0});
  EXPECT_EQ(index.distinct_keys(), 2u);

  std::vector<Value> key{1};
  uint32_t r = index.Find(key);
  ASSERT_NE(r, RowIndex::kNone);
  EXPECT_EQ(index.MatchCount(r), 3u);
  std::vector<uint32_t> chain;
  for (; r != RowIndex::kNone; r = index.Next(r)) chain.push_back(r);
  EXPECT_EQ(chain, (std::vector<uint32_t>{0, 2, 3}));

  std::vector<Value> missing{7};
  EXPECT_EQ(index.Find(missing), RowIndex::kNone);
}

TEST(RowIndexTest, EmptyKeyChainsAllRows) {
  Relation rel(1);
  rel.Add({5});
  rel.Add({6});
  rel.Add({7});
  RowIndex index(rel, {});
  EXPECT_EQ(index.distinct_keys(), 1u);
  size_t count = 0;
  for (uint32_t r = index.Find(std::span<const Value>{});
       r != RowIndex::kNone; r = index.Next(r)) {
    ++count;
  }
  EXPECT_EQ(count, 3u);
}

TEST(RowIndexTest, EmptyRelation) {
  Relation rel(2);
  RowIndex index(rel, {0});
  std::vector<Value> key{1};
  EXPECT_EQ(index.Find(key), RowIndex::kNone);
  EXPECT_EQ(index.distinct_keys(), 0u);
}

TEST(RowIndexTest, ProbeFromAnotherRelation) {
  Relation build(2);
  build.Add({3, 30});
  build.Add({4, 40});
  Relation probe(3);
  probe.Add({0, 4, 0});
  RowIndex index(build, {0});
  std::vector<int> probe_cols{1};
  uint32_t r = index.Find(probe, 0, probe_cols);
  ASSERT_NE(r, RowIndex::kNone);
  EXPECT_EQ(build.At(r, 1), 40);
}

Relation RandomRelation(Rng& rng, size_t arity, size_t rows, Value domain) {
  Relation rel(arity);
  std::vector<Value> row(arity);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < arity; ++c) row[c] = rng.Range(0, domain);
    rel.Add(row);
  }
  return rel;
}

// RowIndex and HashDedup are pure functions of the input rows, never of the
// execution width.
TEST(ParallelEquivalenceTest, RowIndexIdenticalAtAnyWidth) {
  Rng rng(15);
  Relation build = RandomRelation(rng, 2, 40'000, 500);
  Relation probe = RandomRelation(rng, 2, 1'000, 500);
  RowIndex seq(build, {0});
  TaskScheduler scheduler(4);
  RowIndex par(build, {0}, MakeParallelFor(&scheduler));
  ASSERT_EQ(par.distinct_keys(), seq.distinct_keys());
  for (size_t r = 0; r < probe.size(); ++r) {
    uint32_t a = seq.Find(probe, r, std::vector<int>{0});
    uint32_t b = par.Find(probe, r, std::vector<int>{0});
    ASSERT_EQ(a, b) << "probe row " << r;
    for (; a != RowIndex::kNone; a = seq.Next(a), b = par.Next(b)) {
      ASSERT_EQ(a, b);
      ASSERT_EQ(seq.MatchCount(a), par.MatchCount(b));
    }
    ASSERT_EQ(b, RowIndex::kNone);
  }
}

TEST(ParallelEquivalenceTest, HashDedupIdenticalAtAnyWidth) {
  Rng rng(16);
  // Heavy duplication so the dedup actually removes rows.
  Relation rel = RandomRelation(rng, 2, 50'000, 60);
  Relation seq = rel;
  Relation par = rel;
  seq.HashDedup();
  TaskScheduler scheduler(4);
  par.HashDedup(MakeParallelFor(&scheduler));
  ASSERT_EQ(par.size(), seq.size());
  EXPECT_TRUE(par.data() == seq.data());
}

TEST(RowHashSetTest, InsertDeduplicatesAndGrows) {
  RowHashSet set(2);
  Rng rng(3);
  size_t inserted = 0;
  // Enough rows to force several growth rehashes.
  for (int i = 0; i < 20000; ++i) {
    ValueVec row{rng.Range(0, 999), rng.Range(0, 999)};
    if (set.Insert(row)) ++inserted;
    EXPECT_TRUE(set.Contains(row));
  }
  EXPECT_EQ(set.size(), inserted);
  EXPECT_LT(inserted, 20000u);  // collisions must have occurred
  Relation rel = set.TakeRelation();
  rel.SortAndDedup();
  EXPECT_EQ(rel.size(), inserted);  // stored rows were already distinct
}

TEST(RowHashSetTest, ZeroArity) {
  RowHashSet set(0);
  EXPECT_FALSE(set.Contains(std::span<const Value>{}));
  EXPECT_TRUE(set.Insert(std::span<const Value>{}));
  EXPECT_FALSE(set.Insert(std::span<const Value>{}));
  EXPECT_TRUE(set.Contains(std::span<const Value>{}));
  EXPECT_EQ(set.size(), 1u);
}

TEST(HashDedupTest, MatchesSortAndDedupAndKeepsFirstOccurrenceOrder) {
  Relation rel(2);
  rel.Add({3, 1});
  rel.Add({1, 2});
  rel.Add({3, 1});
  rel.Add({2, 9});
  rel.Add({1, 2});
  Relation sorted = rel;
  rel.HashDedup();
  sorted.SortAndDedup();
  EXPECT_TRUE(rel.EqualsAsSet(sorted));
  ASSERT_EQ(rel.size(), 3u);
  EXPECT_EQ(rel.At(0, 0), 3);  // first occurrences, original order
  EXPECT_EQ(rel.At(1, 0), 1);
  EXPECT_EQ(rel.At(2, 0), 2);
}

// ---------------------------------------------------------------------------
// Differential tests: hash-based operators vs nested-loop oracles.
// ---------------------------------------------------------------------------

NamedRelation OracleJoin(const NamedRelation& left, const NamedRelation& right) {
  std::vector<std::pair<int, int>> common;
  for (size_t i = 0; i < left.attrs().size(); ++i) {
    int rc = right.ColumnOf(left.attrs()[i]);
    if (rc >= 0) common.emplace_back(static_cast<int>(i), rc);
  }
  std::vector<AttrId> out_attrs = left.attrs();
  std::vector<int> right_extra;
  for (size_t i = 0; i < right.attrs().size(); ++i) {
    if (!left.HasAttr(right.attrs()[i])) {
      out_attrs.push_back(right.attrs()[i]);
      right_extra.push_back(static_cast<int>(i));
    }
  }
  NamedRelation out{out_attrs};
  ValueVec row(out_attrs.size());
  for (size_t lr = 0; lr < left.size(); ++lr) {
    for (size_t rr = 0; rr < right.size(); ++rr) {
      bool match = true;
      for (auto [lc, rc] : common) {
        if (left.rel().At(lr, lc) != right.rel().At(rr, rc)) {
          match = false;
          break;
        }
      }
      if (!match) continue;
      for (size_t i = 0; i < left.arity(); ++i) row[i] = left.rel().At(lr, i);
      for (size_t i = 0; i < right_extra.size(); ++i) {
        row[left.arity() + i] = right.rel().At(rr, right_extra[i]);
      }
      out.rel().Add(row);
    }
  }
  return out;
}

NamedRelation OracleSemijoin(const NamedRelation& left,
                             const NamedRelation& right) {
  std::vector<std::pair<int, int>> common;
  for (size_t i = 0; i < left.attrs().size(); ++i) {
    int rc = right.ColumnOf(left.attrs()[i]);
    if (rc >= 0) common.emplace_back(static_cast<int>(i), rc);
  }
  NamedRelation out{left.attrs()};
  if (common.empty()) {
    if (!right.empty()) out = left;
    return out;
  }
  for (size_t lr = 0; lr < left.size(); ++lr) {
    bool any = false;
    for (size_t rr = 0; rr < right.size() && !any; ++rr) {
      any = true;
      for (auto [lc, rc] : common) {
        if (left.rel().At(lr, lc) != right.rel().At(rr, rc)) {
          any = false;
          break;
        }
      }
    }
    if (any) out.rel().Add(left.rel().Row(lr));
  }
  return out;
}

// Oracle set ops on identical attribute sets (columns may be permuted).
NamedRelation OracleDifference(const NamedRelation& left,
                               const NamedRelation& right) {
  std::vector<int> perm(left.arity());
  for (size_t i = 0; i < left.attrs().size(); ++i) {
    perm[i] = right.ColumnOf(left.attrs()[i]);
  }
  NamedRelation out{left.attrs()};
  for (size_t lr = 0; lr < left.size(); ++lr) {
    bool found = false;
    for (size_t rr = 0; rr < right.size() && !found; ++rr) {
      found = true;
      for (size_t i = 0; i < perm.size(); ++i) {
        if (left.rel().At(lr, i) != right.rel().At(rr, perm[i])) {
          found = false;
          break;
        }
      }
    }
    if (!found) out.rel().Add(left.rel().Row(lr));
  }
  out.rel().SortAndDedup();
  return out;
}

NamedRelation OracleIntersect(const NamedRelation& left,
                              const NamedRelation& right) {
  std::vector<int> perm(left.arity());
  for (size_t i = 0; i < left.attrs().size(); ++i) {
    perm[i] = right.ColumnOf(left.attrs()[i]);
  }
  NamedRelation out{left.attrs()};
  for (size_t lr = 0; lr < left.size(); ++lr) {
    bool found = false;
    for (size_t rr = 0; rr < right.size() && !found; ++rr) {
      found = true;
      for (size_t i = 0; i < perm.size(); ++i) {
        if (left.rel().At(lr, i) != right.rel().At(rr, perm[i])) {
          found = false;
          break;
        }
      }
    }
    if (found) out.rel().Add(left.rel().Row(lr));
  }
  out.rel().SortAndDedup();
  return out;
}

// Value pools stressing different hash behaviors: a dense small domain (long
// chains, frequent slot collisions), values whose low bits coincide (slot
// congestion after masking), and extreme magnitudes.
ValueVec CollisionPool(int which) {
  switch (which % 3) {
    case 0: {
      ValueVec pool;
      for (Value v = 0; v < 4; ++v) pool.push_back(v);
      return pool;
    }
    case 1: {
      ValueVec pool;
      for (int i = 0; i < 6; ++i) {
        pool.push_back(static_cast<Value>(i) << 32);  // identical low words
      }
      return pool;
    }
    default:
      return {std::numeric_limits<Value>::min(),
              std::numeric_limits<Value>::max(), -1, 0, 1};
  }
}

NamedRelation RandomRel(Rng& rng, std::vector<AttrId> attrs, int max_rows,
                        const ValueVec& pool) {
  NamedRelation rel(std::move(attrs));
  int rows = static_cast<int>(rng.Below(max_rows + 1));
  ValueVec row(rel.attrs().size());
  for (int i = 0; i < rows; ++i) {
    for (auto& v : row) v = pool[rng.Below(pool.size())];
    rel.rel().Add(row);
  }
  return rel;
}

class DifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DifferentialTest, JoinAndSemijoinMatchNestedLoopOracle) {
  Rng rng(GetParam());
  for (int round = 0; round < 20; ++round) {
    ValueVec pool = CollisionPool(round);
    // Attribute overlap varies: {0,1}x{1,2} shares one attr, {0,1}x{2,3} is
    // a cross product (empty key), {0,1}x{1,0} shares both.
    std::vector<std::vector<AttrId>> rights = {{1, 2}, {2, 3}, {1, 0}};
    NamedRelation left = RandomRel(rng, {0, 1}, 40, pool);
    NamedRelation right = RandomRel(rng, rights[round % 3], 40, pool);

    auto join = NaturalJoin(left, right).ValueOrDie();
    auto oracle = OracleJoin(left, right);
    EXPECT_EQ(join.attrs(), oracle.attrs());
    EXPECT_EQ(CanonicalRows(join.rel()), CanonicalRows(oracle.rel()))
        << "join mismatch: left=" << left.ToString()
        << " right=" << right.ToString();

    auto semi = Semijoin(left, right);
    auto semi_oracle = OracleSemijoin(left, right);
    EXPECT_EQ(CanonicalRows(semi.rel()), CanonicalRows(semi_oracle.rel()))
        << "semijoin mismatch: left=" << left.ToString()
        << " right=" << right.ToString();
  }
}

TEST_P(DifferentialTest, SetOpsMatchNestedLoopOracle) {
  Rng rng(GetParam() ^ 0xabcdef);
  for (int round = 0; round < 20; ++round) {
    ValueVec pool = CollisionPool(round);
    // Same attribute set, possibly permuted columns.
    NamedRelation left = RandomRel(rng, {0, 1}, 40, pool);
    NamedRelation right = RandomRel(
        rng, round % 2 == 0 ? std::vector<AttrId>{0, 1}
                            : std::vector<AttrId>{1, 0},
        40, pool);

    auto diff = Difference(left, right);
    auto diff_oracle = OracleDifference(left, right);
    EXPECT_TRUE(diff.rel().EqualsAsSet(diff_oracle.rel()))
        << "difference mismatch: left=" << left.ToString()
        << " right=" << right.ToString();

    auto inter = Intersect(left, right);
    auto inter_oracle = OracleIntersect(left, right);
    EXPECT_TRUE(inter.rel().EqualsAsSet(inter_oracle.rel()))
        << "intersect mismatch: left=" << left.ToString()
        << " right=" << right.ToString();

    // Union/difference/intersection partition identity.
    auto uni = UnionSet(Difference(left, right), Intersect(left, right));
    NamedRelation dl = left;
    dl.rel().SortAndDedup();
    EXPECT_TRUE(uni.EquivalentTo(dl));
  }
}

TEST(DifferentialTest, AllDuplicateInputs) {
  NamedRelation left = Make({0, 1}, {{7, 7}, {7, 7}, {7, 7}, {7, 7}});
  NamedRelation right = Make({1, 2}, {{7, 9}, {7, 9}, {7, 9}});
  auto join = NaturalJoin(left, right).ValueOrDie();
  EXPECT_EQ(join.size(), 12u);  // multiset semantics: 4 x 3 matches
  EXPECT_EQ(CanonicalRows(join.rel()), CanonicalRows(OracleJoin(left, right).rel()));
  EXPECT_EQ(Semijoin(left, right).size(), 4u);
  EXPECT_EQ(Intersect(left, Make({0, 1}, {{7, 7}})).size(), 1u);
  EXPECT_TRUE(Difference(left, Make({0, 1}, {{7, 7}})).empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace paraquery
