#include "hypergraph/join_tree.hpp"

#include <algorithm>

#include "hypergraph/gyo.hpp"

namespace paraquery {

namespace {

// Fills `tree`'s children and traversal orders from its root and parent
// arrays. Children are listed in ascending node order.
void LinkJoinTree(JoinTree& tree) {
  const size_t m = tree.parent.size();
  tree.children.assign(m, {});
  for (size_t e = 0; e < m; ++e) {
    if (tree.parent[e] >= 0) {
      tree.children[tree.parent[e]].push_back(static_cast<int>(e));
    }
  }
  // Top-down order by BFS from the root; bottom-up is its reverse.
  tree.top_down.clear();
  tree.top_down.reserve(m);
  tree.top_down.push_back(tree.root);
  for (size_t i = 0; i < tree.top_down.size(); ++i) {
    for (int c : tree.children[tree.top_down[i]]) tree.top_down.push_back(c);
  }
  PQ_CHECK(tree.top_down.size() == m, "join tree does not span all edges");
  tree.bottom_up.assign(tree.top_down.rbegin(), tree.top_down.rend());
}

}  // namespace

Result<JoinTree> BuildJoinTree(const Hypergraph& h) {
  if (h.num_edges() == 0) {
    return Status::InvalidArgument("BuildJoinTree: hypergraph has no edges");
  }
  GyoResult gyo = GyoReduce(h);
  if (!gyo.acyclic) {
    return Status::InvalidArgument(
        "BuildJoinTree: hypergraph is cyclic (GYO reduction left " +
        internal::StrCat(gyo.alive.size(), " incomparable edges)"));
  }
  JoinTree tree;
  size_t m = h.num_edges();
  tree.parent.assign(m, -1);
  tree.root = gyo.alive.empty() ? 0 : gyo.alive[0];
  // GYO witnesses always point to an edge removed later (or the survivor),
  // so the parent structure is a tree rooted at `root`.
  for (size_t e = 0; e < m; ++e) {
    if (static_cast<int>(e) == tree.root) continue;
    tree.parent[e] = gyo.witness[e];
    PQ_CHECK(tree.parent[e] >= 0, "GYO witness missing for removed edge");
  }
  LinkJoinTree(tree);
  return tree;
}

JoinTree RerootJoinTree(const JoinTree& tree, int root) {
  PQ_CHECK(root >= 0 && static_cast<size_t>(root) < tree.size(),
           "RerootJoinTree: root is not a node of the tree");
  if (root == tree.root) return tree;
  JoinTree out;
  out.root = root;
  out.parent = tree.parent;
  // Walk up from the new root, pointing each arc of the path downward.
  int below = -1;
  for (int node = root; node >= 0;) {
    const int up = tree.parent[node];
    out.parent[node] = below;
    below = node;
    node = up;
  }
  LinkJoinTree(out);
  return out;
}

bool VerifyJoinTree(const Hypergraph& h, const JoinTree& tree) {
  if (tree.size() != h.num_edges()) return false;
  // Adjacency of the tree.
  std::vector<std::vector<int>> adj(tree.size());
  for (size_t e = 0; e < tree.size(); ++e) {
    if (tree.parent[e] >= 0) {
      adj[e].push_back(tree.parent[e]);
      adj[tree.parent[e]].push_back(static_cast<int>(e));
    }
  }
  for (int v = 0; v < h.num_vertices(); ++v) {
    // Nodes whose hyperedge contains v.
    std::vector<char> in_set(tree.size(), 0);
    int first = -1, count = 0;
    for (size_t e = 0; e < tree.size(); ++e) {
      const auto& edge = h.edge(static_cast<int>(e));
      if (std::binary_search(edge.begin(), edge.end(), v)) {
        in_set[e] = 1;
        if (first < 0) first = static_cast<int>(e);
        ++count;
      }
    }
    if (count <= 1) continue;
    // BFS within the set.
    std::vector<int> queue = {first};
    std::vector<char> seen(tree.size(), 0);
    seen[first] = 1;
    int reached = 1;
    for (size_t i = 0; i < queue.size(); ++i) {
      for (int w : adj[queue[i]]) {
        if (in_set[w] && !seen[w]) {
          seen[w] = 1;
          ++reached;
          queue.push_back(w);
        }
      }
    }
    if (reached != count) return false;
  }
  return true;
}

}  // namespace paraquery
