#include "plan/plan.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "common/status.hpp"

namespace paraquery {

namespace {

// Distinct-value estimate of attribute `a` at node `n` (< 0 = unknown).
double DistinctOf(const PlanNode& n, AttrId a) {
  if (n.attr_distinct.size() != n.attrs.size()) return -1.0;
  for (size_t i = 0; i < n.attrs.size(); ++i) {
    if (n.attrs[i] == a) return n.attr_distinct[i];
  }
  return -1.0;
}

// Caps a distinct-value count at the node's row estimate (a column cannot
// have more distinct values than the relation has rows).
double CapDistinct(double v, double est) {
  if (v < 0) return v;
  return est >= 0 ? std::min(v, est) : v;
}

// Upper bound on a deduplicated output: the product of the kept columns'
// distinct counts. Falls back to `est` when a count is unknown or the
// product already exceeds it.
double DedupCardinalityCap(const std::vector<double>& attr_distinct,
                           double est) {
  if (est < 0) return est;
  double cap = 1.0;
  for (double v : attr_distinct) {
    if (v < 0 || cap > est) return est;
    cap *= std::max(1.0, v);
  }
  return std::min(est, cap);
}

double EstimateSelect(double in, const Predicate& pred) {
  if (in < 0) return -1.0;
  double est = in;
  for (const Constraint& c : pred.constraints()) {
    switch (c.kind) {
      case Constraint::Kind::kEqConst:
      case Constraint::Kind::kEqCols:
        est *= 0.1;
        break;
      case Constraint::Kind::kNeqConst:
      case Constraint::Kind::kNeqCols:
        est *= 0.9;
        break;
      default:
        est *= 0.5;
        break;
    }
  }
  return est;
}

}  // namespace

const char* PlanOpName(PlanOp op) {
  switch (op) {
    case PlanOp::kScan:
      return "Scan";
    case PlanOp::kSelect:
      return "Select";
    case PlanOp::kProject:
      return "Project";
    case PlanOp::kHashJoin:
      return "HashJoin";
    case PlanOp::kSemijoin:
      return "Semijoin";
    case PlanOp::kDedup:
      return "Dedup";
    case PlanOp::kMaterialize:
      return "Materialize";
    case PlanOp::kMultiwayJoin:
      return "MultiwayJoin";
    case PlanOp::kAggregate:
      return "Aggregate";
    case PlanOp::kSemijoinCount:
      return "SemijoinCount";
  }
  return "?";
}

void PlanStats::Merge(const PlanStats& o) {
  scans += o.scans;
  selects += o.selects;
  projections += o.projections;
  semijoins += o.semijoins;
  joins += o.joins;
  dedups += o.dedups;
  multiway_joins += o.multiway_joins;
  aggregates += o.aggregates;
  semijoin_counts += o.semijoin_counts;
  dense_keys += o.dense_keys;
  peak_intermediate_rows =
      std::max(peak_intermediate_rows, o.peak_intermediate_rows);
  rows_produced += o.rows_produced;
  shared_atom_storage += o.shared_atom_storage;
  zero_copy_projections += o.zero_copy_projections;
  index_builds += o.index_builds;
  index_hits += o.index_hits;
  parallel_tasks += o.parallel_tasks;
  morsels += o.morsels;
  wall_seconds += o.wall_seconds;
  vec_batches += o.vec_batches;
}

std::string PlanStats::ToString() const {
  std::ostringstream oss;
  oss << "scans=" << scans << " selects=" << selects
      << " projections=" << projections << " semijoins=" << semijoins
      << " joins=" << joins << " multiway_joins=" << multiway_joins
      << " dedups=" << dedups
      << " aggregates=" << aggregates << " semijoin_counts=" << semijoin_counts
      << " dense_keys=" << dense_keys
      << "\nrows_produced=" << rows_produced
      << " peak_intermediate_rows=" << peak_intermediate_rows
      << "\nshared_atom_storage=" << shared_atom_storage
      << " zero_copy_projections=" << zero_copy_projections
      << " index_builds=" << index_builds << " index_hits=" << index_hits
      << "\nparallel_tasks=" << parallel_tasks << " morsels=" << morsels
      << " vec_batches=" << vec_batches << " wall_ms=" << wall_seconds * 1e3;
  return oss.str();
}

const RowIndex& JoinIndexCache::GetOrBuild(const Relation& rel,
                                           const std::vector<int>& cols,
                                           PlanStats* stats,
                                           const ParallelForFn& pfor) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [key, idx] : indexes_) {
    if (key == cols) {
      if (stats != nullptr) ++stats->index_hits;
      return idx;
    }
  }
  if (stats != nullptr) ++stats->index_builds;
  indexes_.emplace_back(cols, RowIndex(rel, cols, pfor));
  return indexes_.back().second;
}

void PlanNode::ResetActuals() {
  actual_rows = kNotExecuted;
  actual_morsels = 0;
  actual_batches = 0;
  actual_key = KeyKind::kNone;
  actual_ns = 0;
  for (const PlanNodePtr& c : children) c->ResetActuals();
}

PlanNodePtr MakeScan(int slot, std::vector<AttrId> attrs, std::string label,
                     double est_rows, JoinIndexCache* cache,
                     std::vector<double> attr_distinct) {
  auto n = std::make_shared<PlanNode>();
  n->op = PlanOp::kScan;
  n->attrs = std::move(attrs);
  n->label = std::move(label);
  n->est_rows = est_rows;
  n->input_slot = slot;
  n->index_cache = cache;
  if (attr_distinct.size() == n->attrs.size()) {
    n->attr_distinct = std::move(attr_distinct);
  }
  return n;
}

PlanNodePtr MakeSelect(PlanNodePtr child, Predicate predicate) {
  auto n = std::make_shared<PlanNode>();
  n->op = PlanOp::kSelect;
  n->attrs = child->attrs;
  n->label = predicate.ToString();
  n->est_rows = EstimateSelect(child->est_rows, predicate);
  if (!child->attr_distinct.empty()) {
    n->attr_distinct = child->attr_distinct;
    for (double& v : n->attr_distinct) v = CapDistinct(v, n->est_rows);
  }
  n->predicate = std::move(predicate);
  n->children.push_back(std::move(child));
  return n;
}

PlanNodePtr MakeProject(PlanNodePtr child, std::vector<AttrId> attrs,
                        bool dedup) {
  auto n = std::make_shared<PlanNode>();
  n->op = PlanOp::kProject;
  n->attrs = std::move(attrs);
  n->est_rows = child->est_rows;
  if (!child->attr_distinct.empty()) {
    n->attr_distinct.reserve(n->attrs.size());
    for (AttrId a : n->attrs) n->attr_distinct.push_back(DistinctOf(*child, a));
    if (dedup) {
      n->est_rows = DedupCardinalityCap(n->attr_distinct, n->est_rows);
    }
    for (double& v : n->attr_distinct) v = CapDistinct(v, n->est_rows);
  }
  n->dedup = dedup;
  n->children.push_back(std::move(child));
  return n;
}

PlanNodePtr MakeHashJoin(PlanNodePtr left, PlanNodePtr right,
                         Predicate post_filter, std::vector<AttrId> project) {
  auto n = std::make_shared<PlanNode>();
  n->op = PlanOp::kHashJoin;
  n->attrs = left->attrs;
  std::vector<AttrId> common;
  for (AttrId a : right->attrs) {
    if (std::find(n->attrs.begin(), n->attrs.end(), a) != n->attrs.end()) {
      common.push_back(a);
    } else {
      n->attrs.push_back(a);
    }
  }
  double l = left->est_rows, r = right->est_rows;
  if (l < 0 || r < 0) {
    n->est_rows = -1.0;
  } else {
    // System R: |L ⋈ R| ≈ |L|·|R| / Π_a max(V_L(a), V_R(a)) over the shared
    // attributes, using the real per-column distinct counts seeded at the
    // scans. Where a count is unknown, fall back to the historical
    // containment guess (divide by max(|L|, |R|) once, then by 10 per extra
    // shared attribute).
    double est = l * r;
    for (size_t i = 0; i < common.size(); ++i) {
      double vl = DistinctOf(*left, common[i]);
      double vr = DistinctOf(*right, common[i]);
      double divisor = (vl > 0 && vr > 0)
                           ? std::max(vl, vr)
                           : (i == 0 ? std::max({l, r, 1.0}) : 10.0);
      est /= std::max(divisor, 1.0);
    }
    n->est_rows = est;
  }
  if (!post_filter.empty()) {
    n->label = post_filter.ToString();
    n->est_rows = EstimateSelect(n->est_rows, post_filter);
    n->predicate = std::move(post_filter);
  }
  // Propagated distinct counts: shared attributes keep the smaller side's
  // count, exclusive attributes their source's, all capped at the estimate.
  if (!left->attr_distinct.empty() || !right->attr_distinct.empty()) {
    n->attr_distinct.reserve(n->attrs.size());
    for (AttrId a : n->attrs) {
      double vl = DistinctOf(*left, a), vr = DistinctOf(*right, a);
      double v = vl < 0 ? vr : (vr < 0 ? vl : std::min(vl, vr));
      n->attr_distinct.push_back(CapDistinct(v, n->est_rows));
    }
  }
  if (!project.empty()) {
    // The fused projection deduplicates, exactly like MakeProject's.
    std::vector<double> distinct;
    for (AttrId a : project) {
      PQ_CHECK(std::find(n->attrs.begin(), n->attrs.end(), a) !=
                   n->attrs.end(),
               "MakeHashJoin: projected attribute not in the join");
      if (!n->attr_distinct.empty()) distinct.push_back(DistinctOf(*n, a));
    }
    PQ_CHECK(project.size() < n->attrs.size(),
             "MakeHashJoin: a projection must drop an attribute");
    if (!distinct.empty()) {
      n->est_rows = DedupCardinalityCap(distinct, n->est_rows);
      for (double& v : distinct) v = CapDistinct(v, n->est_rows);
    }
    n->attrs = std::move(project);
    n->attr_distinct = std::move(distinct);
  }
  n->children.push_back(std::move(left));
  n->children.push_back(std::move(right));
  return n;
}

PlanNodePtr ProjectHead(const PlanNodePtr& root,
                        const std::vector<AttrId>& head) {
  if (head == root->attrs) return root;
  if (root->op == PlanOp::kHashJoin && !IsJoinCount(*root) &&
      JoinProjectedOut(*root).empty() && !head.empty() &&
      head.size() < root->attrs.size()) {
    return MakeHashJoin(root->children[0], root->children[1], root->predicate,
                        head);
  }
  return MakeProject(root, head, /*dedup=*/true);
}

std::vector<AttrId> JoinProjectedOut(const PlanNode& n) {
  std::vector<AttrId> out;
  if (n.op != PlanOp::kHashJoin) return out;
  for (const PlanNodePtr& c : n.children) {
    for (AttrId a : c->attrs) {
      if (std::find(n.attrs.begin(), n.attrs.end(), a) == n.attrs.end() &&
          std::find(out.begin(), out.end(), a) == out.end()) {
        out.push_back(a);
      }
    }
  }
  return out;
}

PlanNodePtr MakeJoinCount(PlanNodePtr left, PlanNodePtr right,
                          std::vector<AttrId> group_attrs,
                          PlanNodePtr weight) {
  PQ_CHECK(!HasCountAttr(left->attrs) && !HasCountAttr(right->attrs),
           "MakeJoinCount: the joined inputs carry no count column");
  PlanNodePtr n = MakeHashJoin(std::move(left), std::move(right));
  // Output cardinality = # distinct groups, as for MakeAggregate.
  std::vector<double> distinct;
  for (AttrId a : group_attrs) {
    PQ_CHECK(std::find(n->attrs.begin(), n->attrs.end(), a) != n->attrs.end(),
             "MakeJoinCount: group attribute not in the join");
    if (!n->attr_distinct.empty()) distinct.push_back(DistinctOf(*n, a));
  }
  if (group_attrs.empty()) {
    n->est_rows = 1.0;
  } else if (!distinct.empty()) {
    n->est_rows = DedupCardinalityCap(distinct, n->est_rows);
    for (double& v : distinct) v = CapDistinct(v, n->est_rows);
    distinct.push_back(-1.0);
  }
  n->attrs = std::move(group_attrs);
  n->attrs.push_back(kCountAttr);
  n->attr_distinct = std::move(distinct);
  if (weight != nullptr) {
    std::vector<AttrId> keys(n->attrs.begin(), n->attrs.end() - 1);
    std::vector<AttrId> wkeys(weight->attrs.begin(), weight->attrs.end() - 1);
    PQ_CHECK(IsJoinCount(*weight) && weight->children.size() == 2 &&
                 JoinCountKey(weight->children[0]->attrs, wkeys) ==
                     JoinCountKey(n->children[0]->attrs, keys),
             "MakeJoinCount: the weight must be a join-count with the same "
             "grouping key");
    std::sort(keys.begin(), keys.end());
    std::sort(wkeys.begin(), wkeys.end());
    PQ_CHECK(keys == wkeys,
             "MakeJoinCount: the weight must count exactly the groups");
    if (n->est_rows >= 0) n->est_rows *= 0.5;  // as a SemijoinCount filter
    n->children.push_back(std::move(weight));
  }
  return n;
}

bool IsJoinCount(const PlanNode& n) {
  return n.op == PlanOp::kHashJoin && HasCountAttr(n.attrs);
}

std::vector<AttrId> JoinCountKey(const std::vector<AttrId>& left,
                                 const std::vector<AttrId>& group_attrs) {
  std::vector<AttrId> out;
  for (AttrId a : group_attrs) {
    if (std::find(left.begin(), left.end(), a) != left.end()) out.push_back(a);
  }
  std::sort(out.begin(), out.end());
  return out;
}

PlanNodePtr MakeSemijoin(PlanNodePtr left, PlanNodePtr right) {
  auto n = std::make_shared<PlanNode>();
  n->op = PlanOp::kSemijoin;
  n->attrs = left->attrs;
  n->est_rows = left->est_rows < 0 ? -1.0 : left->est_rows * 0.5;
  if (!left->attr_distinct.empty()) {
    n->attr_distinct = left->attr_distinct;
    for (double& v : n->attr_distinct) v = CapDistinct(v, n->est_rows);
  }
  n->children.push_back(std::move(left));
  n->children.push_back(std::move(right));
  return n;
}

PlanNodePtr MakeDedup(PlanNodePtr child) {
  auto n = std::make_shared<PlanNode>();
  n->op = PlanOp::kDedup;
  n->attrs = child->attrs;
  n->est_rows = child->est_rows;
  if (!child->attr_distinct.empty()) {
    n->attr_distinct = child->attr_distinct;
    n->est_rows = DedupCardinalityCap(n->attr_distinct, n->est_rows);
    for (double& v : n->attr_distinct) v = CapDistinct(v, n->est_rows);
  }
  n->children.push_back(std::move(child));
  return n;
}

PlanNodePtr MakeMultiwayJoin(std::vector<PlanNodePtr> children,
                             std::vector<AttrId> attrs) {
  auto n = std::make_shared<PlanNode>();
  n->op = PlanOp::kMultiwayJoin;
  n->attrs = std::move(attrs);
  // AGM-flavored estimate: (Π|R_i|)^x with x = v/2m clamped to [·, 1]. For
  // the triangle (v=3, m=3) this is (N^3)^{1/2} = N^{3/2}; for the 4-clique
  // (v=4, m=6) it is (N^6)^{1/3} = N^2 — the worst-case output bounds.
  double product = 1.0;
  bool known = !children.empty();
  for (const PlanNodePtr& c : children) {
    if (c->est_rows < 0) {
      known = false;
      break;
    }
    product *= std::max(1.0, c->est_rows);
  }
  if (known) {
    double x = std::min(
        1.0, static_cast<double>(n->attrs.size()) / (2.0 * children.size()));
    n->est_rows = std::pow(product, x);
  }
  // Shared attributes keep the smallest participating distinct count.
  bool any_distinct = false;
  for (const PlanNodePtr& c : children) {
    if (!c->attr_distinct.empty()) any_distinct = true;
  }
  if (any_distinct) {
    n->attr_distinct.reserve(n->attrs.size());
    for (AttrId a : n->attrs) {
      double v = -1.0;
      for (const PlanNodePtr& c : children) {
        double vc = DistinctOf(*c, a);
        if (vc >= 0 && (v < 0 || vc < v)) v = vc;
      }
      n->attr_distinct.push_back(CapDistinct(v, n->est_rows));
    }
  }
  n->children = std::move(children);
  return n;
}

PlanNodePtr MakeAggregate(PlanNodePtr child, std::vector<AttrId> group_attrs) {
  auto n = std::make_shared<PlanNode>();
  n->op = PlanOp::kAggregate;
  n->attrs = std::move(group_attrs);
  // Output cardinality = # distinct group keys (1 for the scalar count).
  if (n->attrs.empty()) {
    n->est_rows = 1.0;
  } else if (!child->attr_distinct.empty()) {
    std::vector<double> dd;
    dd.reserve(n->attrs.size());
    for (AttrId a : n->attrs) dd.push_back(DistinctOf(*child, a));
    n->est_rows = DedupCardinalityCap(dd, child->est_rows);
    n->attr_distinct = std::move(dd);
    for (double& v : n->attr_distinct) v = CapDistinct(v, n->est_rows);
  } else {
    n->est_rows = child->est_rows;
  }
  n->attrs.push_back(kCountAttr);
  if (!n->attr_distinct.empty()) n->attr_distinct.push_back(-1.0);
  n->children.push_back(std::move(child));
  return n;
}

PlanNodePtr MakeSemijoinCount(PlanNodePtr left, PlanNodePtr right) {
  auto n = std::make_shared<PlanNode>();
  n->op = PlanOp::kSemijoinCount;
  for (AttrId a : left->attrs) {
    if (a != kCountAttr) n->attrs.push_back(a);
  }
  size_t left_regular = n->attrs.size();
  for (AttrId a : right->attrs) {
    if (a != kCountAttr &&
        std::find(n->attrs.begin(), n->attrs.end(), a) == n->attrs.end()) {
      n->attrs.push_back(a);
    }
  }
  bool extends = n->attrs.size() > left_regular;
  // Like a semijoin when the right adds no attrs; otherwise a (filtered)
  // join on the distinct right extensions.
  if (left->est_rows >= 0) {
    n->est_rows = extends ? left->est_rows : left->est_rows * 0.5;
  }
  if (!left->attr_distinct.empty() || !right->attr_distinct.empty()) {
    n->attr_distinct.reserve(n->attrs.size() + 1);
    for (AttrId a : n->attrs) {
      double vl = DistinctOf(*left, a), vr = DistinctOf(*right, a);
      double v = vl < 0 ? vr : (vr < 0 ? vl : std::min(vl, vr));
      n->attr_distinct.push_back(CapDistinct(v, n->est_rows));
    }
    n->attr_distinct.push_back(-1.0);
  }
  n->attrs.push_back(kCountAttr);
  n->children.push_back(std::move(left));
  n->children.push_back(std::move(right));
  return n;
}

PlanNodePtr MakeMaterialize(PlanNodePtr child) {
  auto n = std::make_shared<PlanNode>();
  n->op = PlanOp::kMaterialize;
  n->attrs = child->attrs;
  n->est_rows = child->est_rows;
  n->attr_distinct = child->attr_distinct;
  n->children.push_back(std::move(child));
  return n;
}

namespace {

PlanNodePtr CloneRec(
    const PlanNode& n, const std::vector<JoinIndexCache*>* slot_caches,
    std::unordered_map<const PlanNode*, PlanNodePtr>* memo) {
  auto it = memo->find(&n);
  if (it != memo->end()) return it->second;
  auto out = std::make_shared<PlanNode>();
  out->op = n.op;
  out->attrs = n.attrs;
  out->label = n.label;
  out->est_rows = n.est_rows;
  out->attr_distinct = n.attr_distinct;
  out->input_slot = n.input_slot;
  out->index_cache = n.index_cache;
  out->predicate = n.predicate;
  out->dedup = n.dedup;
  out->repr = n.repr;
  if (slot_caches != nullptr && n.op == PlanOp::kScan) {
    out->index_cache =
        (n.input_slot >= 0 &&
         static_cast<size_t>(n.input_slot) < slot_caches->size())
            ? (*slot_caches)[n.input_slot]
            : nullptr;
  }
  out->children.reserve(n.children.size());
  for (const PlanNodePtr& c : n.children) {
    out->children.push_back(CloneRec(*c, slot_caches, memo));
  }
  memo->emplace(&n, out);
  return out;
}

void CountRefs(const PlanNode& node,
               std::unordered_map<const PlanNode*, int>* refs) {
  if (++(*refs)[&node] > 1) return;  // children already counted once
  for (const PlanNodePtr& c : node.children) CountRefs(*c, refs);
}

struct Renderer {
  const VarTable* vars;
  const std::unordered_map<const PlanNode*, int>* refs;
  bool analyzed = false;  // append time=/self= from actual_ns
  std::unordered_map<const PlanNode*, int> shown;  // node -> shared id
  int next_id = 1;
  std::ostringstream out;

  std::string AttrName(AttrId a) const {
    if (a == kCountAttr) return "#count";
    if (vars != nullptr && a >= 0 && a < vars->size()) return vars->name(a);
    return internal::StrCat("$", a);
  }

  void Line(const PlanNode& n, int depth, bool reference) {
    for (int i = 0; i < depth; ++i) out << "  ";
    out << PlanOpName(n.op) << "(";
    for (size_t i = 0; i < n.attrs.size(); ++i) {
      if (i > 0) out << ", ";
      out << AttrName(n.attrs[i]);
    }
    out << ")";
    const std::vector<AttrId> dropped = JoinProjectedOut(n);
    const char* fused = IsJoinCount(n) ? " count-out(" : " project-out(";
    for (size_t i = 0; i < dropped.size(); ++i) {
      out << (i == 0 ? fused : ", ") << AttrName(dropped[i]);
      if (i + 1 == dropped.size()) out << ")";
    }
    if (n.repr == PlanRepr::kColumnar) out << " [vec]";
    if (!n.label.empty()) out << " " << n.label;
    if (reference) {
      out << " see #" << shown.at(&n) << "\n";
      return;
    }
    if (n.op == PlanOp::kScan) {
      if (n.est_rows >= 0) {
        out << " rows=" << static_cast<uint64_t>(n.est_rows);
      } else {
        out << " rows=?";
      }
    } else {
      if (n.est_rows >= 0) {
        out << " est=" << static_cast<uint64_t>(std::llround(n.est_rows));
      } else {
        out << " est=?";
      }
      if (n.actual_rows != PlanNode::kNotExecuted) {
        out << " actual=" << n.actual_rows;
        if (n.actual_morsels > 0) out << " morsels=" << n.actual_morsels;
        if (n.actual_batches > 0) out << " vec=" << n.actual_batches;
        if (n.actual_key != KeyKind::kNone) {
          out << (n.actual_key == KeyKind::kDense ? " key=dense" : " key=hash");
        }
      }
    }
    if (analyzed && n.actual_ns > 0) {
      uint64_t children_ns = 0;
      for (const PlanNodePtr& c : n.children) children_ns += c->actual_ns;
      uint64_t self_ns =
          children_ns >= n.actual_ns ? 0 : n.actual_ns - children_ns;
      char buf[64];
      std::snprintf(buf, sizeof(buf), " time=%.3fms self=%.3fms",
                    static_cast<double>(n.actual_ns) / 1e6,
                    static_cast<double>(self_ns) / 1e6);
      out << buf;
    }
    auto it = refs->find(&n);
    if (it != refs->end() && it->second > 1) {
      shown[&n] = next_id;
      out << " as #" << next_id++;
    }
    out << "\n";
  }

  void Walk(const PlanNode& n, int depth) {
    bool reference = shown.count(&n) > 0;
    Line(n, depth, reference);
    if (reference) return;
    for (const PlanNodePtr& c : n.children) Walk(*c, depth + 1);
  }
};

}  // namespace

PlanNodePtr ClonePlan(const PlanNode& root,
                      const std::vector<JoinIndexCache*>* slot_caches) {
  std::unordered_map<const PlanNode*, PlanNodePtr> memo;
  return CloneRec(root, slot_caches, &memo);
}

std::vector<PlanNodePtr> ClonePlan(const std::vector<const PlanNode*>& roots) {
  std::unordered_map<const PlanNode*, PlanNodePtr> memo;
  std::vector<PlanNodePtr> out;
  out.reserve(roots.size());
  for (const PlanNode* root : roots) {
    out.push_back(CloneRec(*root, nullptr, &memo));
  }
  return out;
}

std::string RenderPlan(const PlanNode& root, const VarTable* vars) {
  std::unordered_map<const PlanNode*, int> refs;
  CountRefs(root, &refs);
  Renderer r{vars, &refs, false, {}, 1, {}};
  r.Walk(root, 0);
  return r.out.str();
}

std::string RenderAnalyzedPlan(const PlanNode& root, const VarTable* vars) {
  std::unordered_map<const PlanNode*, int> refs;
  CountRefs(root, &refs);
  Renderer r{vars, &refs, true, {}, 1, {}};
  r.Walk(root, 0);
  return r.out.str();
}

}  // namespace paraquery
