#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "hypergraph/gyo.hpp"
#include "hypergraph/hypergraph.hpp"
#include "hypergraph/join_tree.hpp"

namespace paraquery {
namespace {

TEST(HypergraphTest, EdgesAreSortedAndDeduped) {
  Hypergraph h(5);
  int e = h.AddEdge({3, 1, 3, 2});
  EXPECT_EQ(h.edge(e), (std::vector<int>{1, 2, 3}));
}

TEST(HypergraphTest, CoOccurAndIntersect) {
  Hypergraph h(5);
  h.AddEdge({0, 1});
  h.AddEdge({1, 2});
  h.AddEdge({3, 4});
  EXPECT_TRUE(h.CoOccur(0, 1));
  EXPECT_FALSE(h.CoOccur(0, 2));
  EXPECT_TRUE(h.EdgesIntersect(0, 1));
  EXPECT_FALSE(h.EdgesIntersect(0, 2));
}

TEST(GyoTest, PathIsAcyclic) {
  Hypergraph h(4);
  h.AddEdge({0, 1});
  h.AddEdge({1, 2});
  h.AddEdge({2, 3});
  EXPECT_TRUE(IsAcyclic(h));
}

TEST(GyoTest, TriangleIsCyclic) {
  Hypergraph h(3);
  h.AddEdge({0, 1});
  h.AddEdge({1, 2});
  h.AddEdge({0, 2});
  EXPECT_FALSE(IsAcyclic(h));
}

TEST(GyoTest, TriangleCoveredByBigEdgeIsAcyclic) {
  // Adding a hyperedge covering the triangle restores acyclicity (the
  // standard alpha-acyclicity non-monotonicity example).
  Hypergraph h(3);
  h.AddEdge({0, 1});
  h.AddEdge({1, 2});
  h.AddEdge({0, 2});
  h.AddEdge({0, 1, 2});
  EXPECT_TRUE(IsAcyclic(h));
}

TEST(GyoTest, CycleIsCyclic) {
  Hypergraph h(5);
  for (int i = 0; i < 5; ++i) h.AddEdge({i, (i + 1) % 5});
  EXPECT_FALSE(IsAcyclic(h));
}

TEST(GyoTest, StarIsAcyclic) {
  Hypergraph h(6);
  for (int i = 1; i < 6; ++i) h.AddEdge({0, i});
  EXPECT_TRUE(IsAcyclic(h));
}

TEST(GyoTest, DuplicateEdgesAcyclic) {
  Hypergraph h(2);
  h.AddEdge({0, 1});
  h.AddEdge({0, 1});
  h.AddEdge({0, 1});
  EXPECT_TRUE(IsAcyclic(h));
}

TEST(GyoTest, DisconnectedAcyclic) {
  Hypergraph h(6);
  h.AddEdge({0, 1});
  h.AddEdge({2, 3});
  h.AddEdge({4, 5});
  EXPECT_TRUE(IsAcyclic(h));
}

TEST(GyoTest, PaperEmployeeProjectExample) {
  // G(e) :- EP(e,p), EP(e,p'), p != p'. The *relational* hypergraph
  // {e,p},{e,p'} is acyclic; adding the inequality edge {p,p'} (the naive
  // treatment the paper warns about) makes it cyclic.
  Hypergraph relational(3);  // e=0, p=1, p'=2
  relational.AddEdge({0, 1});
  relational.AddEdge({0, 2});
  EXPECT_TRUE(IsAcyclic(relational));

  Hypergraph with_ineq(3);
  with_ineq.AddEdge({0, 1});
  with_ineq.AddEdge({0, 2});
  with_ineq.AddEdge({1, 2});
  EXPECT_FALSE(IsAcyclic(with_ineq));
}

TEST(GyoTest, PaperStudentCourseExample) {
  // G(s) :- SD(s,d), SC(s,c), CD(c,d'), d != d'. Relational part acyclic;
  // inequality edge {d,d'} breaks it.
  Hypergraph relational(4);  // s=0, d=1, c=2, d'=3
  relational.AddEdge({0, 1});
  relational.AddEdge({0, 2});
  relational.AddEdge({2, 3});
  EXPECT_TRUE(IsAcyclic(relational));

  Hypergraph with_ineq(4);
  with_ineq.AddEdge({0, 1});
  with_ineq.AddEdge({0, 2});
  with_ineq.AddEdge({2, 3});
  with_ineq.AddEdge({1, 3});
  EXPECT_FALSE(IsAcyclic(with_ineq));
}

TEST(JoinTreeTest, PathJoinTree) {
  Hypergraph h(4);
  h.AddEdge({0, 1});
  h.AddEdge({1, 2});
  h.AddEdge({2, 3});
  auto tree = BuildJoinTree(h).ValueOrDie();
  EXPECT_EQ(tree.size(), 3u);
  EXPECT_TRUE(VerifyJoinTree(h, tree));
  EXPECT_EQ(tree.bottom_up.size(), 3u);
  EXPECT_EQ(tree.bottom_up.back(), tree.root);
  EXPECT_EQ(tree.top_down.front(), tree.root);
}

TEST(JoinTreeTest, CyclicFails) {
  Hypergraph h(3);
  h.AddEdge({0, 1});
  h.AddEdge({1, 2});
  h.AddEdge({0, 2});
  auto tree = BuildJoinTree(h);
  EXPECT_EQ(tree.status().code(), StatusCode::kInvalidArgument);
}

TEST(JoinTreeTest, EmptyHypergraphFails) {
  Hypergraph h(3);
  EXPECT_FALSE(BuildJoinTree(h).ok());
}

TEST(JoinTreeTest, SingleEdge) {
  Hypergraph h(3);
  h.AddEdge({0, 1, 2});
  auto tree = BuildJoinTree(h).ValueOrDie();
  EXPECT_EQ(tree.root, 0);
  EXPECT_EQ(tree.parent[0], -1);
}

TEST(JoinTreeTest, DisconnectedComponentsAreLinked) {
  Hypergraph h(4);
  h.AddEdge({0, 1});
  h.AddEdge({2, 3});
  auto tree = BuildJoinTree(h).ValueOrDie();
  EXPECT_EQ(tree.size(), 2u);
  EXPECT_TRUE(VerifyJoinTree(h, tree));
  // One of the two must be the root and the other its child.
  int non_root = 1 - tree.root;
  EXPECT_EQ(tree.parent[non_root], tree.root);
}

TEST(JoinTreeTest, BottomUpOrderRespectsParents) {
  Hypergraph h(7);
  h.AddEdge({0, 1});
  h.AddEdge({1, 2});
  h.AddEdge({1, 3});
  h.AddEdge({3, 4});
  h.AddEdge({3, 5, 6});
  auto tree = BuildJoinTree(h).ValueOrDie();
  EXPECT_TRUE(VerifyJoinTree(h, tree));
  std::vector<int> position(tree.size());
  for (size_t i = 0; i < tree.bottom_up.size(); ++i) {
    position[tree.bottom_up[i]] = static_cast<int>(i);
  }
  for (size_t e = 0; e < tree.size(); ++e) {
    if (tree.parent[e] >= 0) {
      EXPECT_LT(position[e], position[tree.parent[e]])
          << "child must precede parent bottom-up";
    }
  }
}

// `tree` is a rooted tree at `root`: parent, children and both traversal
// orders agree, and every node is reached from the root.
void ExpectRootedAt(const JoinTree& tree, int root) {
  ASSERT_EQ(tree.root, root);
  EXPECT_EQ(tree.parent[root], -1);
  ASSERT_EQ(tree.top_down.size(), tree.size());
  ASSERT_EQ(tree.bottom_up.size(), tree.size());
  EXPECT_EQ(tree.top_down.front(), root);
  EXPECT_EQ(tree.bottom_up.back(), root);
  std::vector<int> position(tree.size(), -1);
  for (size_t i = 0; i < tree.top_down.size(); ++i) {
    position[tree.top_down[i]] = static_cast<int>(i);
  }
  for (size_t e = 0; e < tree.size(); ++e) {
    ASSERT_GE(position[e], 0) << "node " << e << " not reached";
    if (static_cast<int>(e) == root) continue;
    const int u = tree.parent[e];
    ASSERT_GE(u, 0) << "node " << e << " has no parent";
    EXPECT_LT(position[u], position[e]) << "parent must precede child";
    const auto& siblings = tree.children[u];
    EXPECT_NE(std::find(siblings.begin(), siblings.end(), static_cast<int>(e)),
              siblings.end());
  }
}

// Every choice of root keeps the running-intersection property.
void ExpectRerootsVerify(const Hypergraph& h) {
  const JoinTree tree = BuildJoinTree(h).ValueOrDie();
  for (int root = 0; root < static_cast<int>(tree.size()); ++root) {
    SCOPED_TRACE(root);
    const JoinTree rerooted = RerootJoinTree(tree, root);
    ExpectRootedAt(rerooted, root);
    EXPECT_TRUE(VerifyJoinTree(h, rerooted));
    // Rooting back at the original root restores the original tree.
    const JoinTree back = RerootJoinTree(rerooted, tree.root);
    EXPECT_EQ(back.parent, tree.parent);
    EXPECT_EQ(back.children, tree.children);
    EXPECT_EQ(back.top_down, tree.top_down);
  }
}

TEST(JoinTreeTest, RerootKeepsRunningIntersectionAtEveryRoot) {
  Hypergraph star(7);  // the tree of BottomUpOrderRespectsParents
  star.AddEdge({0, 1});
  star.AddEdge({1, 2});
  star.AddEdge({1, 3});
  star.AddEdge({3, 4});
  star.AddEdge({3, 5, 6});
  ExpectRerootsVerify(star);
  Hypergraph split(4);  // two components linked by an arc
  split.AddEdge({0, 1});
  split.AddEdge({2, 3});
  ExpectRerootsVerify(split);
  Hypergraph single(2);
  single.AddEdge({0, 1});
  ExpectRerootsVerify(single);
}

// Random acyclic hypergraphs: a random tree of atoms that share variables
// along tree edges.
Hypergraph RandomAcyclic(uint64_t seed) {
  Rng rng(seed);
  int num_atoms = 3 + static_cast<int>(rng.Below(10));
  // Variable budget: each atom gets a private variable plus the connector
  // shared with its tree parent.
  int num_vars = num_atoms * 3;
  Hypergraph h(num_vars);
  std::vector<std::vector<int>> atom_vars(num_atoms);
  int next_var = 0;
  for (int i = 0; i < num_atoms; ++i) {
    std::vector<int> vars;
    vars.push_back(next_var++);  // private variable
    if (i > 0) {
      int parent = static_cast<int>(rng.Below(static_cast<uint64_t>(i)));
      // Share a random variable of the parent.
      const auto& pv = atom_vars[parent];
      vars.push_back(pv[rng.Below(pv.size())]);
    }
    if (rng.Chance(0.5)) vars.push_back(next_var++);  // second private var
    atom_vars[i] = vars;
    h.AddEdge(vars);
  }
  return h;
}

// GYO must accept and the join tree must verify, at every root.
class RandomAcyclicTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomAcyclicTest, GyoAcceptsAndJoinTreeVerifies) {
  Hypergraph h = RandomAcyclic(GetParam());
  EXPECT_TRUE(IsAcyclic(h));
  auto tree = BuildJoinTree(h).ValueOrDie();
  EXPECT_TRUE(VerifyJoinTree(h, tree));
}

TEST_P(RandomAcyclicTest, RerootedJoinTreesVerify) {
  ExpectRerootsVerify(RandomAcyclic(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomAcyclicTest,
                         ::testing::Range<uint64_t>(1, 21));

}  // namespace
}  // namespace paraquery
