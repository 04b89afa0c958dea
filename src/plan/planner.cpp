#include "plan/planner.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "eval/common.hpp"
#include "hypergraph/hypertree.hpp"
#include "hypergraph/join_tree.hpp"
#include "plan/executor.hpp"

namespace paraquery {

namespace {

bool Contains(const std::vector<AttrId>& attrs, AttrId a) {
  return std::find(attrs.begin(), attrs.end(), a) != attrs.end();
}

// The left-atom rule for a two-atom join-project. The fused kernel groups
// by its left input's head columns, so its rows come out sorted when the
// left atom holds the head's first variable. True when `left` lacks that
// variable and `right` holds it: the caller then swaps the two sides.
bool SwapForSortedHead(const std::vector<AttrId>& left,
                       const std::vector<AttrId>& right,
                       const std::vector<AttrId>& head_vars) {
  return !head_vars.empty() && !Contains(left, head_vars[0]) &&
         Contains(right, head_vars[0]);
}

// A constant that `dict` (nullable) holds as a code renders as its string.
std::string TermText(const Term& t, const VarTable& vars,
                     const Dictionary* dict) {
  if (t.is_const()) {
    if (dict != nullptr && dict->Contains(t.value())) {
      return internal::StrCat("'", dict->Lookup(t.value()), "'");
    }
    return internal::StrCat(t.value());
  }
  if (t.var() >= 0 && t.var() < vars.size()) return vars.name(t.var());
  return internal::StrCat("$", t.var());
}

std::string AtomText(const Atom& a, const VarTable& vars,
                     const Dictionary* dict) {
  std::string out = a.relation + "(";
  for (size_t i = 0; i < a.terms.size(); ++i) {
    if (i > 0) out += ", ";
    out += TermText(a.terms[i], vars, dict);
  }
  return out + ")";
}

// Builds a Constraint for `cmp` against a relation whose columns carry the
// attribute ids `attrs` (every variable of `cmp` must be present).
Result<Constraint> CompareToConstraint(const std::vector<AttrId>& attrs,
                                       const CompareAtom& cmp) {
  auto col_of = [&attrs](const Term& t) -> int {
    if (!t.is_var()) return -1;
    auto it = std::find(attrs.begin(), attrs.end(), t.var());
    return it == attrs.end() ? -1 : static_cast<int>(it - attrs.begin());
  };
  bool lv = cmp.lhs.is_var(), rv = cmp.rhs.is_var();
  if (lv && rv) {
    int a = col_of(cmp.lhs), b = col_of(cmp.rhs);
    if (a < 0 || b < 0) {
      return Status::InvalidArgument("comparison variable is not bound");
    }
    switch (cmp.op) {
      case CompareOp::kNeq:
        return Constraint::NeqCols(a, b);
      case CompareOp::kLt:
        return Constraint::LtCols(a, b);
      case CompareOp::kLe:
        return Constraint::LeCols(a, b);
      case CompareOp::kEq:
        return Constraint::EqCols(a, b);
    }
  }
  // var OP const (normalized; const OP var mirrors the operator).
  Term var = lv ? cmp.lhs : cmp.rhs;
  Value c = lv ? cmp.rhs.value() : cmp.lhs.value();
  int col = col_of(var);
  if (col < 0) {
    return Status::InvalidArgument("comparison variable is not bound");
  }
  if (!lv) {
    if (cmp.op == CompareOp::kLt) return Constraint::GtConst(col, c);
    if (cmp.op == CompareOp::kLe) return Constraint::GeConst(col, c);
  }
  switch (cmp.op) {
    case CompareOp::kNeq:
      return Constraint::NeqConst(col, c);
    case CompareOp::kLt:
      return Constraint::LtConst(col, c);
    case CompareOp::kLe:
      return Constraint::LeConst(col, c);
    case CompareOp::kEq:
      return Constraint::EqConst(col, c);
  }
  return Status::Internal("unknown comparison operator");
}

// True when every variable of `cmp` occurs in `attrs`.
bool CompareBound(const std::vector<AttrId>& attrs, const CompareAtom& cmp) {
  auto ok = [&attrs](const Term& t) {
    return t.is_const() || std::find(attrs.begin(), attrs.end(), t.var()) !=
                               attrs.end();
  };
  return ok(cmp.lhs) && ok(cmp.rhs);
}

// Per-column distinct counts of `rel` (real statistics, computed lazily and
// cached on the shared RowBlock — see Relation::DistinctCount), seeding the
// planner's join selectivities. A constant-free atom's input is the stored
// relation's storage or its cached set form, so this hits across plans and
// queries; a selection S_j (constants, repeated variables) pays one O(rows)
// pass per column at plan time (estimates feed EXPLAIN and the
// est-vs-actual drift surface — join ORDER still comes from input sizes).
std::vector<double> ScanDistinctCounts(const NamedRelation& rel) {
  std::vector<double> distinct;
  distinct.reserve(rel.arity());
  for (size_t c = 0; c < rel.arity(); ++c) {
    distinct.push_back(static_cast<double>(rel.rel().DistinctCount(c)));
  }
  return distinct;
}

// Builds the slot-bound S_j scan for each body atom. Counts the inputs that
// share the stored relation's storage or its cached set form.
Status BuildAtomScans(const Database& db, const ConjunctiveQuery& q,
                      PhysicalPlan* plan, std::vector<PlanNodePtr>* scans) {
  for (const Atom& a : q.body) {
    PQ_ASSIGN_OR_RETURN(RelId id, db.FindRelation(a.relation));
    PQ_ASSIGN_OR_RETURN(NamedRelation rel, AtomToRelation(db.relation(id), a));
    if (rel.rel().SharesStorageOrSetFormWith(db.relation(id))) {
      ++plan->shared_atom_storage;
    }
    int slot = static_cast<int>(plan->inputs.size());
    scans->push_back(MakeScan(slot, rel.attrs(), AtomText(a, q.vars, &db.dict()),
                              static_cast<double>(rel.size()),
                              /*cache=*/nullptr, ScanDistinctCounts(rel)));
    plan->inputs.push_back(std::move(rel));
  }
  return Status::OK();
}

Status CheckAcyclicSupported(const ConjunctiveQuery& q) {
  PQ_RETURN_NOT_OK(q.Validate());
  if (q.HasComparisons()) {
    return Status::InvalidArgument(
        "acyclic plan does not accept comparison atoms (use the inequality "
        "evaluator or the cyclic planner)");
  }
  if (q.body.empty()) {
    return Status::InvalidArgument("query has no relational atoms");
  }
  return Status::OK();
}

// The semijoin passes PrepareAcyclic plans.
enum class Reducer {
  kNone,    // the raw scans
  kUpward,  // the upward pass: the decision plan's root is empty iff the
            // join is
  kFull,    // upward and downward: every relation globally consistent
};

// Shared skeleton of the acyclic entry points: scans, the join tree, and
// the semijoin passes. `cur[j]` ends as node j's reduced relation. The full
// reducer only pays where a join below the root would otherwise carry
// dangling tuples: on a single-edge tree the root join drops them itself,
// so kFull plans no semijoin there, and the fused root reads the stored
// scans (and the sorted tries cached on them) directly. The counting pass
// asks for kNone: its SemijoinCount folds drop dangling tuples too.
Status PrepareAcyclic(const Database& db, const ConjunctiveQuery& q,
                      Reducer reducer, PhysicalPlan* plan,
                      std::vector<PlanNodePtr>* cur, JoinTree* tree) {
  PQ_RETURN_NOT_OK(CheckAcyclicSupported(q));
  PQ_RETURN_NOT_OK(BuildAtomScans(db, q, plan, cur));
  Hypergraph h = q.BuildHypergraph();
  auto built = BuildJoinTree(h);
  if (!built.ok()) {
    return Status::InvalidArgument(internal::StrCat(
        "query is not acyclic: ", built.status().message()));
  }
  *tree = std::move(built).value();
  if (reducer == Reducer::kFull && tree->size() <= 2) reducer = Reducer::kNone;
  if (reducer == Reducer::kNone) return Status::OK();
  // Upward semijoin pass (Yannakakis Algorithm 1): after it the root is
  // empty iff the join is empty.
  for (int j : tree->bottom_up) {
    int u = tree->parent[j];
    if (u < 0) continue;
    (*cur)[u] = MakeSemijoin((*cur)[u], (*cur)[j]);
  }
  if (reducer == Reducer::kFull) {
    // Downward pass: the relations become globally consistent.
    for (int j : tree->top_down) {
      int u = tree->parent[j];
      if (u < 0) continue;
      (*cur)[j] = MakeSemijoin((*cur)[j], (*cur)[u]);
    }
  }
  return Status::OK();
}

// Yannakakis' upward join-and-project pass over a tree `t` of
// duplicate-free nodes `cur` (the atoms of a join tree, or the bags of a
// hypertree decomposition): bottom-up, P_u := P_u ⋈ π_{Z_j}(P_j) with
// Z_j = (U_j ∩ U_u) ∪ (Z ∩ at(T[j])), then the root's head projection
// (ProjectHead). A projection onto exactly a node's attributes, in any
// order, is the node itself, since every node of these schedules is a set
// and joins match columns by attribute. The root's last
// child joins as it is when it is a scan whose Z_j keeps no head variable
// the root lacks: the root then fuses into a join-project that stops at
// each left row's first match, so π_{Z_j} would only copy the scan, and
// the kernel reads the scan's storage-cached index instead.
template <typename Tree>
PlanNodePtr UpwardJoinProject(const Tree& t, std::vector<PlanNodePtr> cur,
                              const std::vector<AttrId>& head_vars) {
  std::vector<std::vector<AttrId>> subtree_head(cur.size());
  for (int j : t.bottom_up) {
    std::vector<AttrId> acc;
    for (AttrId a : cur[j]->attrs) {
      if (Contains(head_vars, a)) acc.push_back(a);
    }
    for (int c : t.children[j]) {
      for (AttrId a : subtree_head[c]) acc.push_back(a);
    }
    std::sort(acc.begin(), acc.end());
    acc.erase(std::unique(acc.begin(), acc.end()), acc.end());
    subtree_head[j] = std::move(acc);
  }
  int last_root_child = -1;
  for (int j : t.bottom_up) {
    if (t.parent[j] == t.root) last_root_child = j;
  }
  for (int j : t.bottom_up) {
    const int u = t.parent[j];
    if (u < 0) continue;
    std::vector<AttrId> zj;
    for (AttrId a : cur[j]->attrs) {
      if (Contains(cur[u]->attrs, a)) zj.push_back(a);
    }
    bool keeps_head = false;
    for (AttrId a : subtree_head[j]) {
      if (Contains(zj, a)) continue;
      zj.push_back(a);
      keeps_head = true;
    }
    const bool fused_right = j == last_root_child &&
                             cur[j]->op == PlanOp::kScan &&
                             !head_vars.empty() && !keeps_head;
    const bool whole = zj.size() == cur[j]->attrs.size();  // zj ⊆ attrs
    cur[u] = MakeHashJoin(cur[u], fused_right || whole
                                      ? cur[j]
                                      : MakeProject(cur[j], zj,
                                                    /*dedup=*/true));
  }
  return ProjectHead(cur[t.root], head_vars);
}

// --- Worst-case-optimal route for comparison-free cyclic CQs -------------
//
// The query hypergraph is covered by a generalized hypertree decomposition
// (hypergraph/hypertree.hpp). Each bag joins its covered atoms — homed atoms
// with all their attributes, others projected to the bag — with a leapfrog
// multiway join when the bag's core is cyclic, a binary chain otherwise.
// Because every atom is homed (unprojected) at exactly one bag, the join of
// the bag relations over the tree equals the query, and the tree has the
// running-intersection property, so the acyclic Yannakakis schedule runs
// unchanged on top: upward reduction (fused into the multiway intersections
// as sideways information passing), the downward semijoin pass, and the
// upward join-and-project pass.

// Sorted-vector intersection of the two bags' attribute sets.
std::vector<AttrId> SharedAttrs(const std::vector<int>& a,
                                const std::vector<int>& b) {
  std::vector<AttrId> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

// The wcoj tuple route's bag tree: the decomposition, per-bag join nodes
// (BagJoin below), the upward reduction, and the optional downward pass.
// `cur[b]` ends as bag b's reduced relation. (The counting route sums each
// bag out instead: BagCountingPass.)
struct BagTreePlan {
  HypertreeDecomposition d;
  std::vector<PlanNodePtr> cur;
};

// Bag b's join over its cover: one contribution per cover edge — the homed
// atoms keep every attribute (all inside chi by construction), the rest
// project down to the bag. A leapfrog multiway join when the bag's core is
// cyclic, with the children's outputs `cur[c]` joining the intersection
// projected to the shared attributes (SIP); a greedy binary chain
// otherwise.
PlanNodePtr BagJoin(const ConjunctiveQuery& q,
                    const std::vector<PlanNodePtr>& scans,
                    const HypertreeDecomposition& d, int b,
                    const std::vector<PlanNodePtr>& cur) {
  const HypertreeBag& bag = d.bags[b];
  std::vector<PlanNodePtr> contrib;
  Hypergraph core(q.NumVariables());
  for (int e : bag.cover) {
    PlanNodePtr s = scans[e];
    bool homed = std::find(bag.home_edges.begin(), bag.home_edges.end(), e) !=
                 bag.home_edges.end();
    if (!homed) {
      std::vector<AttrId> keep;
      for (AttrId a : s->attrs) {
        if (std::binary_search(bag.vertices.begin(), bag.vertices.end(), a)) {
          keep.push_back(a);
        }
      }
      if (keep.size() != s->attrs.size()) {
        s = MakeProject(std::move(s), keep, /*dedup=*/true);
      }
    }
    core.AddEdge(std::vector<int>(s->attrs.begin(), s->attrs.end()));
    contrib.push_back(std::move(s));
  }
  // Cost model: the leapfrog kernel wins exactly when the bag's core is
  // genuinely cyclic (>= 3 atoms whose cover hypergraph has no join tree);
  // an acyclic core keeps the cheaper binary chain.
  const bool cyclic_core = contrib.size() >= 3 && !BuildJoinTree(core).ok();
  if (cyclic_core) {
    // SIP: each child bag's output joins the intersection directly
    // (projected to the shared attributes), fusing the upward semijoin of
    // the Yannakakis reduction into the multiway operator.
    for (int c : d.children[b]) {
      std::vector<AttrId> shared = SharedAttrs(d.bags[c].vertices, bag.vertices);
      if (shared.empty()) continue;  // the upward join pass still links it
      contrib.push_back(MakeProject(cur[c], std::move(shared),
                                    /*dedup=*/true));
    }
    return MakeMultiwayJoin(
        std::move(contrib),
        std::vector<AttrId>(bag.vertices.begin(), bag.vertices.end()));
  }
  std::vector<const std::vector<AttrId>*> attr_ptrs;
  std::vector<size_t> sizes;
  attr_ptrs.reserve(contrib.size());
  sizes.reserve(contrib.size());
  for (const PlanNodePtr& cn : contrib) {
    attr_ptrs.push_back(&cn->attrs);
    sizes.push_back(cn->est_rows >= 0 ? static_cast<size_t>(cn->est_rows)
                                      : std::numeric_limits<size_t>::max());
  }
  std::vector<size_t> order = GreedyAtomOrder(attr_ptrs, sizes, q.NumVariables());
  PlanNodePtr node = contrib[order[0]];
  for (size_t k = 1; k < order.size(); ++k) {
    node = MakeHashJoin(std::move(node), contrib[order[k]]);
  }
  return node;
}

Result<BagTreePlan> BuildBagTreePlan(const ConjunctiveQuery& q,
                                     const std::vector<PlanNodePtr>& scans,
                                     bool full_reducer) {
  Hypergraph h = q.BuildHypergraph();
  PQ_ASSIGN_OR_RETURN(HypertreeDecomposition d,
                      BuildHypertreeDecomposition(h));
  std::vector<PlanNodePtr> cur(d.size());
  for (int b : d.bottom_up) {
    PlanNodePtr node = BagJoin(q, scans, d, b, cur);
    if (node->op != PlanOp::kMultiwayJoin) {
      // Upward Yannakakis reduction by the already-reduced children (the
      // multiway join took them in through SIP).
      for (int c : d.children[b]) {
        node = MakeSemijoin(std::move(node), cur[c]);
      }
    }
    cur[b] = std::move(node);
  }
  if (full_reducer) {
    // Downward pass: bag relations become globally consistent.
    for (int b : d.top_down) {
      int u = d.parent[b];
      if (u < 0) continue;
      cur[b] = MakeSemijoin(cur[b], cur[u]);
    }
  }
  return BagTreePlan{std::move(d), std::move(cur)};
}

Result<PlanNodePtr> PlanWcojRoot(const ConjunctiveQuery& q,
                                 const std::vector<PlanNodePtr>& scans,
                                 const std::vector<AttrId>& head_vars,
                                 bool full_reducer) {
  PQ_ASSIGN_OR_RETURN(BagTreePlan bags,
                      BuildBagTreePlan(q, scans, full_reducer));
  // Upward join-and-project pass over the bag tree (the PlanAcyclicCq
  // schedule, with bags in place of atoms).
  return UpwardJoinProject(bags.d, std::move(bags.cur), head_vars);
}

// The counts child `j` hands its parent in a counting pass: j aggregated to
// the attributes it shares with the parent (`parent_attrs`) plus the group
// variables it carries (by induction, a node's attribute set already
// contains every group variable of its subtree — SemijoinCount unions the
// right side's extra regular attributes in). A child that already counts
// exactly those attributes is its own fold.
PlanNodePtr FoldChild(const PlanNodePtr& child,
                      const std::vector<AttrId>& parent_attrs,
                      const std::vector<AttrId>& group_vars) {
  std::vector<AttrId> keys, regular;
  for (AttrId a : child->attrs) {
    if (a == kCountAttr) continue;
    regular.push_back(a);
    if (Contains(parent_attrs, a) || Contains(group_vars, a)) {
      keys.push_back(a);
    }
  }
  if (keys == regular && HasCountAttr(child->attrs)) return child;
  return MakeAggregate(child, std::move(keys));
}

// Counting-Yannakakis upward pass over the GYO atom tree's raw scans.
// Bottom-up, each node j folds into its parent u as per-key multiplicities
// (FoldChild), and the parent picks the counts up with a
// multiplicity-weighted semijoin. The invariant is that after its children
// are folded in, node j's multiplicity column counts the distinct
// assignments to its subtree's remaining (projected-away) variables;
// running intersection makes the per-child counts independent, so the
// products are exact. The root aggregates to the group keys in head order.
// No semijoin reducer runs first (Chen–Mengel): a dangling child row folds
// into a key its parent lacks, and the SemijoinCount drops it and every
// dangling parent row, exactly as BagCountingPass relies on. The full join
// is never materialized: every intermediate is bounded by an input size
// plus the group-key fan-out.
PlanNodePtr CountingUpwardPass(std::vector<PlanNodePtr> cur,
                               const std::vector<int>& bottom_up,
                               const std::vector<int>& parent, int root,
                               const std::vector<AttrId>& group_vars) {
  for (int j : bottom_up) {
    int u = parent[j];
    if (u < 0) continue;
    cur[u] = MakeSemijoinCount(cur[u],
                               FoldChild(cur[j], cur[u]->attrs, group_vars));
  }
  return MakeAggregate(cur[root], group_vars);
}

// The counting pass over a hypertree bag tree. Each bag joins its cover
// (BagJoin) and is counted down to its interface: the attributes it shares
// with its parent or a child, plus the group variables it holds. When the
// bag's join is a binary chain, its last join becomes a fused join-count
// (MakeJoinCount), so a variable private to the bag is summed out inside
// that join and the bag is never materialized; a multiway join stays whole.
// Children fold in as in CountingUpwardPass (FoldChild, then a
// SemijoinCount), except that a child join-count whose groups are exactly
// the bag's interface becomes the bag's weight: one kernel computes both
// bags' counts group by group, materializing neither. Both join-counts are
// oriented to group by the same left attributes, preferring stored scans
// on the left (their sorted tries are cached on storage). No semijoin
// reduction runs first: the SemijoinCount folds and the weight filter the
// bags themselves. The root aggregates to the group keys in head order.
Result<PlanNodePtr> BagCountingPass(const ConjunctiveQuery& q,
                                    const std::vector<PlanNodePtr>& scans,
                                    const std::vector<AttrId>& group_vars) {
  Hypergraph h = q.BuildHypergraph();
  PQ_ASSIGN_OR_RETURN(HypertreeDecomposition d,
                      BuildHypertreeDecomposition(h));
  auto in_bag = [&d](int b, AttrId a) {
    return std::binary_search(d.bags[b].vertices.begin(),
                              d.bags[b].vertices.end(), a);
  };
  std::vector<PlanNodePtr> cur(d.size());
  for (int b : d.bottom_up) {
    const std::vector<AttrId> bag_attrs(d.bags[b].vertices.begin(),
                                        d.bags[b].vertices.end());
    std::vector<AttrId> iface;
    for (AttrId a : bag_attrs) {
      bool keep = Contains(group_vars, a) ||
                  (d.parent[b] >= 0 && in_bag(d.parent[b], a));
      for (int c : d.children[b]) keep = keep || in_bag(c, a);
      if (keep) iface.push_back(a);
    }
    std::vector<PlanNodePtr> folds;
    for (int c : d.children[b]) {
      folds.push_back(FoldChild(cur[c], bag_attrs, group_vars));
    }
    PlanNodePtr node = BagJoin(q, scans, d, b, cur);
    if (node->op == PlanOp::kHashJoin) {
      // The weight: a child join-count over exactly this interface.
      PlanNodePtr weight;
      for (PlanNodePtr& f : folds) {
        if (!IsJoinCount(*f) || f->children.size() != 2) continue;
        std::vector<AttrId> keys(f->attrs.begin(), f->attrs.end() - 1);
        std::sort(keys.begin(), keys.end());
        if (keys == iface) {
          weight = std::move(f);
          break;
        }
      }
      if (weight != nullptr || iface.size() < node->attrs.size()) {
        // Orientation: (swap this join, swap the weight's) with equal
        // grouping keys, most stored scans on the left first.
        const PlanNodePtr& l = node->children[0];
        const PlanNodePtr& r = node->children[1];
        int best = -1, best_scans = -1;
        for (int o = 0; o < (weight != nullptr ? 4 : 2); ++o) {
          const PlanNode& left = (o & 1) ? *r : *l;
          int scans_left = left.op == PlanOp::kScan;
          if (weight != nullptr) {
            const PlanNode& wleft = *weight->children[(o & 2) ? 1 : 0];
            if (JoinCountKey(wleft.attrs, iface) !=
                JoinCountKey(left.attrs, iface)) {
              continue;
            }
            scans_left += wleft.op == PlanOp::kScan;
          }
          if (scans_left > best_scans) {
            best = o;
            best_scans = scans_left;
          }
        }
        if (best >= 0) {
          if (weight != nullptr && (best & 2)) {
            weight = MakeJoinCount(weight->children[1], weight->children[0],
                                   iface);
          }
          node = (best & 1) ? MakeJoinCount(r, l, iface, std::move(weight))
                            : MakeJoinCount(l, r, iface, std::move(weight));
        } else {
          // No orientation groups both alike: fold the child below instead.
          folds.push_back(std::move(weight));
          node = MakeJoinCount(l, r, iface);
        }
      }
    }
    for (PlanNodePtr& f : folds) {
      if (f != nullptr) node = MakeSemijoinCount(std::move(node), std::move(f));
    }
    cur[b] = std::move(node);
  }
  PlanNodePtr root = std::move(cur[d.root]);
  std::vector<AttrId> regular = root->attrs;
  if (HasCountAttr(regular)) {
    regular.pop_back();
    if (regular == group_vars) return root;
  }
  return MakeAggregate(std::move(root), group_vars);
}

}  // namespace

std::vector<size_t> GreedyAtomOrder(
    const std::vector<const std::vector<AttrId>*>& attrs,
    const std::vector<size_t>& sizes, int num_vars, int pinned_first) {
  size_t n = attrs.size();
  std::vector<bool> used(n, false);
  std::vector<bool> bound(std::max(1, num_vars), false);
  std::vector<size_t> order;
  order.reserve(n);
  if (pinned_first >= 0 && static_cast<size_t>(pinned_first) < n) {
    used[pinned_first] = true;
    for (AttrId a : *attrs[pinned_first]) bound[a] = true;
    order.push_back(static_cast<size_t>(pinned_first));
  }
  while (order.size() < n) {
    int best = -1;
    bool best_connected = false;
    for (size_t i = 0; i < n; ++i) {
      if (used[i]) continue;
      bool connected = false;
      for (AttrId a : *attrs[i]) {
        if (bound[a]) {
          connected = true;
          break;
        }
      }
      if (best < 0 || (connected && !best_connected) ||
          (connected == best_connected && sizes[i] < sizes[best])) {
        best = static_cast<int>(i);
        best_connected = connected;
      }
    }
    used[best] = true;
    for (AttrId a : *attrs[best]) bound[a] = true;
    order.push_back(static_cast<size_t>(best));
  }
  return order;
}

std::vector<size_t> GreedyAtomOrder(const std::vector<NamedRelation>& rels,
                                    int num_vars, int pinned_first) {
  std::vector<const std::vector<AttrId>*> attrs;
  std::vector<size_t> sizes;
  attrs.reserve(rels.size());
  sizes.reserve(rels.size());
  int max_var = num_vars;
  for (const NamedRelation& r : rels) {
    attrs.push_back(&r.attrs());
    sizes.push_back(r.size());
    for (AttrId a : r.attrs()) max_var = std::max(max_var, a + 1);
  }
  return GreedyAtomOrder(attrs, sizes, max_var, pinned_first);
}

Result<PhysicalPlan> PlanAcyclicCq(const Database& db,
                                   const ConjunctiveQuery& q,
                                   const PlannerOptions& options) {
  PhysicalPlan plan;
  plan.head = q.head;
  plan.vars = q.vars;
  std::vector<PlanNodePtr> cur;
  JoinTree tree;
  PQ_RETURN_NOT_OK(PrepareAcyclic(
      db, q, options.full_reducer ? Reducer::kFull : Reducer::kNone, &plan,
      &cur, &tree));
  const std::vector<VarId> head_vars = q.HeadVariables();
  // A single-edge tree is one fused join-project with the root on the left.
  if (tree.size() == 2) {
    const int child = tree.children[tree.root][0];
    if (SwapForSortedHead(cur[tree.root]->attrs, cur[child]->attrs,
                          head_vars)) {
      tree = RerootJoinTree(tree, child);
    }
  }
  plan.root = UpwardJoinProject(tree, std::move(cur), head_vars);
  return plan;
}

Result<PhysicalPlan> PlanAcyclicDecision(const Database& db,
                                         const ConjunctiveQuery& q,
                                         const PlannerOptions& /*options*/) {
  PhysicalPlan plan;
  plan.head = q.head;
  plan.vars = q.vars;
  std::vector<PlanNodePtr> cur;
  JoinTree tree;
  PQ_RETURN_NOT_OK(
      PrepareAcyclic(db, q, Reducer::kUpward, &plan, &cur, &tree));
  plan.root = cur[tree.root];
  return plan;
}

Result<PhysicalPlan> PlanCyclicCq(const Database& db,
                                  const ConjunctiveQuery& q,
                                  const PlannerOptions& options) {
  PQ_RETURN_NOT_OK(q.Validate());
  PhysicalPlan plan;
  plan.head = q.head;
  plan.vars = q.vars;
  std::vector<VarId> head_vars = q.HeadVariables();

  // Constant/constant comparisons are decided now; one false comparison
  // refutes the query on every database.
  std::vector<const CompareAtom*> pending;
  for (const CompareAtom& c : q.comparisons) {
    if (c.lhs.is_const() && c.rhs.is_const()) {
      if (!CompareAtom::Apply(c.op, c.lhs.value(), c.rhs.value())) {
        plan.inputs.emplace_back(head_vars);
        plan.root = MakeScan(0, head_vars, "inconsistent comparison", 0.0);
        return plan;
      }
      continue;  // tautology
    }
    pending.push_back(&c);
  }

  if (q.body.empty()) {
    // Constant-only head (safety): one empty binding row.
    plan.inputs.push_back(BooleanTrue());
    plan.root = MakeScan(0, {}, "true", 1.0);
    return plan;
  }

  std::vector<PlanNodePtr> scans;
  PQ_RETURN_NOT_OK(BuildAtomScans(db, q, &plan, &scans));

  // The WCOJ gate: queries with comparisons or constant-only atoms keep the
  // binary chain (pushed Selects, boolean gates).
  if (DecideRoute(q, options, /*closure=*/false).wcoj) {
    PQ_ASSIGN_OR_RETURN(
        plan.root, PlanWcojRoot(q, scans, head_vars, options.full_reducer));
    return plan;
  }

  std::vector<size_t> order = GreedyAtomOrder(plan.inputs, q.NumVariables());

  // Left-deep chain; each comparison becomes a Select at the first point
  // where all of its variables are bound. Two atoms whose head drops a
  // variable join in one fused join-project instead, which applies the
  // comparisons the join binds inside the kernel, with its left atom chosen
  // by SwapForSortedHead. A longer chain keeps the Selects and the hash
  // dedup: fusing its last join makes the
  // kernel sort the materialized join of the earlier atoms into a trie,
  // which costs more than the chain and hash dedup it would replace (a
  // triangle with x != z over 90k/60k/90k rows: 163 → 487 ms at 1 thread,
  // 92 → 350 ms at 4; higher_paid over 20k employees: 1.36 → 2.09 ms at 4).
  const bool fuse = order.size() == 2 && !head_vars.empty() &&
                    head_vars.size() < q.BodyVariables().size();
  if (fuse && SwapForSortedHead(scans[order[0]]->attrs,
                                scans[order[1]]->attrs, head_vars)) {
    std::swap(order[0], order[1]);
  }
  std::vector<bool> applied(pending.size(), false);
  auto bound_predicate =
      [&](const std::vector<AttrId>& attrs) -> Result<Predicate> {
    Predicate pred;
    for (size_t c = 0; c < pending.size(); ++c) {
      if (applied[c] || !CompareBound(attrs, *pending[c])) continue;
      PQ_ASSIGN_OR_RETURN(Constraint cons,
                          CompareToConstraint(attrs, *pending[c]));
      pred.Add(cons);
      applied[c] = true;
    }
    return pred;
  };
  PlanNodePtr node;
  for (size_t k = 0; k < order.size(); ++k) {
    node = (k == 0) ? scans[order[0]] : MakeHashJoin(node, scans[order[k]]);
    PQ_ASSIGN_OR_RETURN(Predicate pred, bound_predicate(node->attrs));
    if (k > 0 && fuse) {
      plan.root = ProjectHead(
          MakeHashJoin(node->children[0], node->children[1], std::move(pred)),
          head_vars);
      return plan;
    }
    if (!pred.empty()) node = MakeSelect(std::move(node), std::move(pred));
  }
  // Head projection + dedup.
  plan.root =
      MakeDedup(MakeProject(std::move(node), head_vars, /*dedup=*/false));
  return plan;
}

Result<PhysicalPlan> PlanCountingCq(const Database& db,
                                    const ConjunctiveQuery& q,
                                    const PlannerOptions& options) {
  PQ_RETURN_NOT_OK(q.Validate());
  if (!q.answer.counting()) {
    return Status::InvalidArgument("PlanCountingCq: query is not a counting "
                                   "query");
  }
  if (q.body.empty()) {
    return Status::InvalidArgument(
        "PlanCountingCq: empty body (the caller answers it directly)");
  }
  std::vector<AttrId> group_vars = q.HeadVariables();
  const RouteDecision route = DecideRoute(q, options, /*closure=*/false);

  if (route.acyclic && route.comparison_free) {
    // Counting Yannakakis over the GYO join tree, with no reducer.
    PhysicalPlan plan;
    plan.head = q.head;
    plan.vars = q.vars;
    std::vector<PlanNodePtr> cur;
    JoinTree tree;
    PQ_RETURN_NOT_OK(
        PrepareAcyclic(db, q, Reducer::kNone, &plan, &cur, &tree));
    plan.root = CountingUpwardPass(std::move(cur), tree.bottom_up,
                                   tree.parent, tree.root, group_vars);
    return plan;
  }

  // Comparison-free cyclic core (the WCOJ gate): the counting pass over the
  // hypertree bag tree, with fused join-counts summing out each bag's
  // private variables and leapfrog multiway joins inside cyclic bags.
  if (route.wcoj) {
    PhysicalPlan plan;
    plan.head = q.head;
    plan.vars = q.vars;
    std::vector<PlanNodePtr> scans;
    PQ_RETURN_NOT_OK(BuildAtomScans(db, q, &plan, &scans));
    PQ_ASSIGN_OR_RETURN(plan.root, BagCountingPass(q, scans, group_vars));
    return plan;
  }

  // Fallback: enumerate the distinct assignments to all body variables
  // through the general planner (comparisons become Selects there), then
  // aggregate at the root. Runs under the same ResourceLimits as any plan.
  ConjunctiveQuery enum_q = q;
  enum_q.answer = AnswerSpec::Tuples();
  enum_q.head.clear();
  for (VarId v : q.BodyVariables()) enum_q.head.push_back(Term::Var(v));
  PQ_ASSIGN_OR_RETURN(PhysicalPlan plan, PlanCyclicCq(db, enum_q, options));
  plan.head = q.head;
  plan.vars = q.vars;
  plan.root = MakeAggregate(std::move(plan.root), std::move(group_vars));
  return plan;
}

std::string PlannerCacheTag(const PlannerOptions& options) {
  auto digit = [](bool on) { return on ? '1' : '0'; };
  return {'p', digit(options.full_reducer), digit(options.wcoj), ':'};
}

Result<PhysicalPlan> PlanConjunctive(const Database& db,
                                     const ConjunctiveQuery& q,
                                     const PlannerOptions& options) {
  const RouteDecision route = DecideRoute(q, options);
  const ConjunctiveQuery& e = route.query(q);
  if (route.empty_body) return PlanCyclicCq(db, e, options);
  if (route.counting) return PlanCountingCq(db, e, options);
  if (route.engine == EngineChoice::kAcyclic) {
    return PlanAcyclicCq(db, e, options);
  }
  return PlanCyclicCq(db, e, options);
}

Result<NamedRelation> ExecutePhysicalPlan(PhysicalPlan& plan,
                                          const ResourceLimits& limits,
                                          PlanStats* stats,
                                          const RuntimeOptions& runtime) {
  if (stats != nullptr) stats->shared_atom_storage += plan.shared_atom_storage;
  std::vector<const NamedRelation*> ptrs;
  ptrs.reserve(plan.inputs.size());
  for (const NamedRelation& r : plan.inputs) ptrs.push_back(&r);
  ExecContext ctx{ptrs, limits, stats, runtime, &plan.vars};
  return ExecutePlan(*plan.root, ctx);
}

Result<PlanNodePtr> PlanRuleBody(
    const DatalogRule& rule, const std::vector<std::vector<AttrId>>& attrs,
    const std::vector<size_t>& sizes,
    const std::vector<JoinIndexCache*>& caches, int delta_pos,
    const std::vector<std::vector<double>>& distinct, const Dictionary* dict) {
  if (rule.body.empty()) {
    return Status::InvalidArgument("cannot plan an empty rule body");
  }
  std::vector<PlanNodePtr> scans;
  int num_vars = rule.vars.size();
  std::vector<const std::vector<AttrId>*> attr_ptrs;
  for (size_t i = 0; i < rule.body.size(); ++i) {
    std::string label = AtomText(rule.body[i], rule.vars, dict);
    if (static_cast<int>(i) == delta_pos) label += " [delta]";
    scans.push_back(MakeScan(
        static_cast<int>(i), attrs[i], std::move(label),
        static_cast<double>(sizes[i]), caches[i],
        i < distinct.size() ? distinct[i] : std::vector<double>{}));
    attr_ptrs.push_back(&attrs[i]);
  }
  std::vector<size_t> order =
      GreedyAtomOrder(attr_ptrs, sizes, num_vars, delta_pos);
  PlanNodePtr node = scans[order[0]];
  for (size_t k = 1; k < order.size(); ++k) {
    node = MakeHashJoin(std::move(node), scans[order[k]]);
  }
  std::vector<AttrId> head_vars;
  for (const Term& t : rule.head.terms) {
    if (t.is_var() && std::find(head_vars.begin(), head_vars.end(),
                                t.var()) == head_vars.end()) {
      head_vars.push_back(t.var());
    }
  }
  return MakeProject(std::move(node), head_vars, /*dedup=*/true);
}

}  // namespace paraquery
