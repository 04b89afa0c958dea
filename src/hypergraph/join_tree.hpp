// Join trees (join forests linked into a single rooted tree), built from GYO
// containment witnesses. A join tree has the hyperedges as nodes and, for
// every vertex, the nodes containing that vertex form a connected subtree
// (the running-intersection property). This is the structure T that
// Theorem 2's Algorithms 1 and 2 walk bottom-up / top-down.
#ifndef PARAQUERY_HYPERGRAPH_JOIN_TREE_H_
#define PARAQUERY_HYPERGRAPH_JOIN_TREE_H_

#include <vector>

#include "common/status.hpp"
#include "hypergraph/hypergraph.hpp"

namespace paraquery {

/// Rooted join tree over the hyperedges of an acyclic hypergraph.
///
/// Arcs between nodes whose hyperedges share no vertex are permitted (they
/// arise when the hypergraph is disconnected and components are linked into
/// one tree, as the paper allows: "we can add additional edges to form a
/// tree").
struct JoinTree {
  int root = -1;
  /// parent[e] = parent node id, or -1 for the root.
  std::vector<int> parent;
  std::vector<std::vector<int>> children;
  /// All node ids, children strictly before parents (bottom-up order).
  std::vector<int> bottom_up;
  /// All node ids, parents strictly before children (top-down order).
  std::vector<int> top_down;

  size_t size() const { return parent.size(); }
};

/// Builds a join tree for `h`. Fails with InvalidArgument if `h` is cyclic
/// or has no edges.
Result<JoinTree> BuildJoinTree(const Hypergraph& h);

/// The same tree rooted at node `root`: the arcs on the path from `root` to
/// the old root turn around, every other arc stays. The running-intersection
/// property holds for any root, since it does not depend on orientation.
/// Children keep ascending node order, as BuildJoinTree gives them.
JoinTree RerootJoinTree(const JoinTree& tree, int root);

/// Verifies the running-intersection property of `tree` against `h`
/// (for every vertex, nodes containing it induce a connected subtree).
/// Used by tests and debug checks.
bool VerifyJoinTree(const Hypergraph& h, const JoinTree& tree);

}  // namespace paraquery

#endif  // PARAQUERY_HYPERGRAPH_JOIN_TREE_H_
