#include "eval/inequality.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <memory>
#include <optional>
#include <sstream>

#include "common/fault_injection.hpp"
#include "eval/common.hpp"
#include "hashing/coloring.hpp"
#include "obs/analyze.hpp"
#include "obs/trace.hpp"
#include "hypergraph/join_tree.hpp"
#include "plan/executor.hpp"
#include "query/ineq_formula.hpp"
#include "relational/ops.hpp"
#include "relational/row_sort.hpp"

namespace paraquery {

namespace {

// Primed attribute id for variable x (hash column): ids above the variable
// range are free.
AttrId Prime(const ConjunctiveQuery& q, VarId x) { return q.NumVariables() + x; }

struct Plan {
  const ConjunctiveQuery* q = nullptr;
  bool always_false = false;            // refuted during normalization
  std::vector<CompareAtom> i1;          // var != var, no co-occurrence
  std::vector<VarId> v1;                // sorted distinct vars of I1
  int k = 0;                            // |V1|
  int hash_range = 0;                   // colors: k, or #vars+#consts of φ
  std::vector<NamedRelation> base;      // S_j (I2 pushed into selections)
  JoinTree tree;
  // The root atom holds every head variable: π_head of Algorithm 1's root
  // is the answer, and Algorithm 2's passes are not needed.
  bool head_in_root = false;
  std::vector<std::vector<AttrId>> y;   // Y_j per node (sorted)
  // partners[x] = I1 partners of x (VarIds).
  std::vector<std::vector<VarId>> partners;
  size_t i2_count = 0;
  // Formula mode (the Section 5 parameter-q extension): the ∧/∨ formula
  // over ≠ atoms, applied as a selection at the root; every φ-variable's
  // primed attribute is propagated all the way up.
  const IneqFormula* formula = nullptr;
  std::vector<Value> formula_constants;
};

bool IsV1(const Plan& p, VarId x) {
  return std::binary_search(p.v1.begin(), p.v1.end(), x);
}

void BuildYSets(Plan& p, const Hypergraph& h);

// Builds the join tree and roots it at an atom that covers the head
// variables, when one exists: GYO's root if it does, else the first such
// atom in body order (the free-connex device of Durand-Grandjean).
Status BuildRootedTree(Plan& p, const Hypergraph& h) {
  auto tree = BuildJoinTree(h);
  if (!tree.ok()) {
    return Status::InvalidArgument(internal::StrCat(
        "query is not acyclic: ", tree.status().message()));
  }
  p.tree = std::move(tree).value();
  std::vector<VarId> head = p.q->HeadVariables();
  std::sort(head.begin(), head.end());
  auto covers = [&h, &head](int j) {
    const auto& edge = h.edge(j);
    return std::includes(edge.begin(), edge.end(), head.begin(), head.end());
  };
  int root = covers(p.tree.root) ? p.tree.root : -1;
  for (int j = 0; root < 0 && j < static_cast<int>(p.tree.size()); ++j) {
    if (covers(j)) root = j;
  }
  if (root >= 0) {
    p.tree = RerootJoinTree(p.tree, root);
    p.head_in_root = true;
  }
  return Status::OK();
}

Result<Plan> BuildPlan(const Database& db, const ConjunctiveQuery& q) {
  PQ_RETURN_NOT_OK(q.Validate());
  if (q.body.empty()) {
    return Status::InvalidArgument("query has no relational atoms");
  }
  Plan p;
  p.q = &q;

  // Normalize comparisons; reject anything but ≠.
  std::vector<CompareAtom> var_var;     // both sides variables, distinct
  std::vector<CompareAtom> var_const;   // x != c
  for (const CompareAtom& c : q.comparisons) {
    if (c.op != CompareOp::kNeq) {
      return Status::InvalidArgument(
          "inequality evaluator accepts only != atoms; run the comparison "
          "closure / use another engine for <, <=, =");
    }
    if (c.lhs.is_const() && c.rhs.is_const()) {
      if (c.lhs.value() == c.rhs.value()) p.always_false = true;
      continue;  // trivially true otherwise
    }
    if (c.lhs.is_var() && c.rhs.is_var()) {
      if (c.lhs.var() == c.rhs.var()) {
        p.always_false = true;
        continue;
      }
      var_var.push_back(c);
    } else if (c.lhs.is_var()) {
      var_const.push_back(c);
    } else {
      var_const.push_back({CompareOp::kNeq, c.rhs, c.lhs});
    }
  }
  if (p.always_false) return p;

  // Split var/var inequalities by co-occurrence.
  Hypergraph h = q.BuildHypergraph();
  std::vector<CompareAtom> i2_var_var;
  for (const CompareAtom& c : var_var) {
    if (h.CoOccur(c.lhs.var(), c.rhs.var())) {
      i2_var_var.push_back(c);
    } else {
      p.i1.push_back(c);
    }
  }
  p.i2_count = i2_var_var.size() + var_const.size();
  for (const CompareAtom& c : p.i1) {
    p.v1.push_back(c.lhs.var());
    p.v1.push_back(c.rhs.var());
  }
  std::sort(p.v1.begin(), p.v1.end());
  p.v1.erase(std::unique(p.v1.begin(), p.v1.end()), p.v1.end());
  p.k = static_cast<int>(p.v1.size());
  p.hash_range = p.k;
  p.partners.assign(q.NumVariables(), {});
  for (const CompareAtom& c : p.i1) {
    p.partners[c.lhs.var()].push_back(c.rhs.var());
    p.partners[c.rhs.var()].push_back(c.lhs.var());
  }

  PQ_RETURN_NOT_OK(BuildRootedTree(p, h));

  // S_j with I2 pushed into the selections F_j.
  for (const Atom& a : q.body) {
    std::vector<VarId> uj = a.Variables();
    std::vector<CompareAtom> filters;
    for (const CompareAtom& c : var_const) {
      if (ComparisonWithin(c, uj)) filters.push_back(c);
    }
    for (const CompareAtom& c : i2_var_var) {
      if (ComparisonWithin(c, uj)) filters.push_back(c);
    }
    PQ_ASSIGN_OR_RETURN(NamedRelation s, AtomToRelation(db, a, filters));
    p.base.push_back(std::move(s));
  }

  BuildYSets(p, h);
  return p;
}

// Computes the present[][] matrix and the Y_j attribute sets for a plan
// whose v1 / partners / tree / base are already in place.
void BuildYSets(Plan& p, const Hypergraph& h) {
  const ConjunctiveQuery& q = *p.q;
  // present[j] = set of V1 vars occurring in subtree T[j] (as index into v1).
  size_t m = p.tree.size();
  std::vector<std::vector<bool>> present(m,
                                         std::vector<bool>(p.v1.size(), false));
  for (int j : p.tree.bottom_up) {
    for (size_t vi = 0; vi < p.v1.size(); ++vi) {
      const auto& edge = h.edge(j);
      if (std::binary_search(edge.begin(), edge.end(), p.v1[vi])) {
        present[j][vi] = true;
      }
    }
    for (int c : p.tree.children[j]) {
      for (size_t vi = 0; vi < p.v1.size(); ++vi) {
        if (present[c][vi]) present[j][vi] = true;
      }
    }
  }

  // Y_j = U_j ∪ U'_j ∪ W'_j.
  p.y.resize(m);
  for (size_t j = 0; j < m; ++j) {
    const auto& uj = h.edge(static_cast<int>(j));
    std::vector<AttrId> y(uj.begin(), uj.end());
    for (VarId x : uj) {
      if (IsV1(p, x)) y.push_back(Prime(q, x));
    }
    for (size_t vi = 0; vi < p.v1.size(); ++vi) {
      VarId x = p.v1[vi];
      if (std::binary_search(uj.begin(), uj.end(), x)) continue;  // x ∈ U_j
      if (!present[j][vi]) continue;  // x not in T[j]
      // x lives under exactly one child of j.
      int child = -1;
      for (int c : p.tree.children[j]) {
        if (present[c][vi]) {
          child = c;
          break;
        }
      }
      PQ_CHECK(child >= 0, "V1 variable present in subtree but not in a child");
      // x ∈ W_j iff some partner does not occur in that same child subtree.
      // In formula mode every φ-variable is propagated to the root (the
      // selection cannot be pushed below an ∨), so x is always separated.
      bool separated = (p.formula != nullptr);
      for (VarId l : p.partners[x]) {
        if (separated) break;
        auto li = std::lower_bound(p.v1.begin(), p.v1.end(), l) - p.v1.begin();
        if (!present[child][li]) separated = true;
      }
      if (separated) y.push_back(Prime(q, x));
    }
    std::sort(y.begin(), y.end());
    y.erase(std::unique(y.begin(), y.end()), y.end());
    p.y[j] = std::move(y);
  }
}

// Plan for the Section 5 parameter-q extension: a comparison-free acyclic
// body plus an arbitrary ∧/∨ formula over ≠ atoms, evaluated at the root.
Result<Plan> BuildFormulaPlan(const Database& db, const ConjunctiveQuery& q,
                              const IneqFormula& phi) {
  PQ_RETURN_NOT_OK(q.Validate());
  PQ_RETURN_NOT_OK(phi.Validate());
  // The paper's parameter-v refinement: conjunctive x != c atoms in the
  // body are allowed — they are pushed into the per-atom selections and do
  // not enter the hash range. Everything else must live in the formula.
  std::vector<CompareAtom> var_const;
  bool always_false = false;
  for (const CompareAtom& c : q.comparisons) {
    if (c.op != CompareOp::kNeq) {
      return Status::InvalidArgument(
          "formula mode accepts only != comparisons in the body");
    }
    if (c.lhs.is_const() && c.rhs.is_const()) {
      if (c.lhs.value() == c.rhs.value()) always_false = true;
      continue;
    }
    if (c.lhs.is_var() && c.rhs.is_var()) {
      return Status::InvalidArgument(
          "formula mode: move variable/variable != atoms into the formula");
    }
    var_const.push_back(c.lhs.is_var() ? c
                                       : CompareAtom{CompareOp::kNeq, c.rhs,
                                                     c.lhs});
  }
  if (q.body.empty()) {
    return Status::InvalidArgument("query has no relational atoms");
  }
  Plan p;
  p.q = &q;
  p.formula = &phi;
  p.always_false = always_false;
  p.i2_count = var_const.size();
  p.v1 = phi.Variables();
  std::vector<VarId> body_vars = q.BodyVariables();
  for (VarId x : p.v1) {
    if (x < 0 || x >= q.NumVariables() ||
        std::find(body_vars.begin(), body_vars.end(), x) == body_vars.end()) {
      std::string name = (x >= 0 && x < q.NumVariables())
                             ? q.vars.name(x)
                             : internal::StrCat("#", x);
      return Status::InvalidArgument(internal::StrCat(
          "formula variable '", name,
          "' does not occur in any relational atom"));
    }
  }
  p.formula_constants = phi.Constants();
  p.k = static_cast<int>(p.v1.size());
  p.hash_range = p.k + static_cast<int>(p.formula_constants.size());
  p.partners.assign(q.NumVariables(), {});

  Hypergraph h = q.BuildHypergraph();
  PQ_RETURN_NOT_OK(BuildRootedTree(p, h));
  for (const Atom& a : q.body) {
    std::vector<VarId> uj = a.Variables();
    std::vector<CompareAtom> filters;
    for (const CompareAtom& c : var_const) {
      if (ComparisonWithin(c, uj)) filters.push_back(c);
    }
    PQ_ASSIGN_OR_RETURN(NamedRelation s, AtomToRelation(db, a, filters));
    p.base.push_back(std::move(s));
  }
  BuildYSets(p, h);
  return p;
}

// How each coloring builds the input S'_j of atom j: S_j's rows extended
// with primed columns x' = h(x), one per V1 column (x ∈ U_j ∩ V1).
struct HashedSlot {
  std::vector<AttrId> attrs;  // S_j's attrs, then the primed V1 attrs
  std::vector<int> v1_cols;   // S_j's V1 columns; none: S'_j = S_j
  // The atom that builds the extension this one reads: j itself, or an
  // earlier atom over the same stored rows with the same V1 columns, whose
  // S'_j this one relabels (EP(e, p) and EP(e, q) color alike).
  int source = -1;
  // Bit family, on source slots only: the code of S_j's row r in
  // V1 column i at codes[r * v1_cols.size() + i], computed once per
  // compiled plan instead of looked up per row and coloring.
  std::vector<uint32_t> codes;
};

std::vector<HashedSlot> BuildHashedSlots(const Plan& p) {
  std::vector<HashedSlot> slots(p.base.size());
  for (size_t j = 0; j < p.base.size(); ++j) {
    const NamedRelation& s = p.base[j];
    HashedSlot& slot = slots[j];
    slot.attrs = s.attrs();
    for (size_t i = 0; i < s.attrs().size(); ++i) {
      if (!IsV1(p, s.attrs()[i])) continue;
      slot.v1_cols.push_back(static_cast<int>(i));
      slot.attrs.push_back(Prime(*p.q, s.attrs()[i]));
    }
    slot.source = static_cast<int>(j);
    // Shared storage alone does not mean the same rows: every empty
    // relation, whatever its arity, shares one empty block.
    for (size_t e = 0; e < j && !slot.v1_cols.empty() && !s.empty(); ++e) {
      const Relation& rows = p.base[e].rel();
      if (slots[e].source == static_cast<int>(e) &&
          slots[e].v1_cols == slot.v1_cols && rows.arity() == s.arity() &&
          rows.size() == s.size() && rows.SharesStorageWith(s.rel())) {
        slot.source = static_cast<int>(e);
        break;
      }
    }
  }
  return slots;
}

// Values the V1 variables can take (union over nodes of the S_j columns of
// V1 variables), plus the formula constants in formula mode. This is the
// ground set the certified family must cover. An atom that reads another
// atom's extension holds the same values and is skipped.
std::vector<Value> GroundSet(const Plan& p,
                             const std::vector<HashedSlot>& slots) {
  std::vector<Value> ground(p.formula_constants.begin(),
                            p.formula_constants.end());
  for (size_t j = 0; j < slots.size(); ++j) {
    if (slots[j].source != static_cast<int>(j)) continue;
    const Relation& rows = p.base[j].rel();
    for (int c : slots[j].v1_cols) {
      for (size_t r = 0; r < rows.size(); ++r) ground.push_back(rows.At(r, c));
    }
  }
  SortDedupRows(ground, 1);
  return ground;
}

Result<ColoringFamily> MakeFamily(const Plan& p,
                                  const std::vector<HashedSlot>& slots,
                                  const IneqOptions& options) {
  ColoringFamily family = ColoringFamily::MonteCarlo(
      p.hash_range, options.mc_error_exponent, options.seed);
  if (p.hash_range > 1 && options.driver != IneqOptions::Driver::kMonteCarlo) {
    auto certified = ColoringFamily::Certified(
        GroundSet(p, slots), p.hash_range, options.seed,
        options.certified_max_subsets, options.certified_max_members);
    if (certified.ok()) {
      family = std::move(certified).value();
    } else if (options.driver == IneqOptions::Driver::kCertified) {
      return certified.status();
    }
  }
  return family;
}

// Writes S_j's rows, each followed by its V1 columns' colors
// `color(row, i, value)`, into one pre-sized buffer.
template <typename ColorFn>
NamedRelation FillHashed(const NamedRelation& s, const HashedSlot& slot,
                         const ColorFn& color) {
  const size_t arity = s.arity(), width = slot.attrs.size();
  const size_t nv1 = slot.v1_cols.size();
  std::vector<Value> data(s.size() * width);
  const Value* in = s.rel().data().data();
  Value* out = data.data();
  for (size_t r = 0; r < s.size(); ++r, in += arity) {
    out = std::copy(in, in + arity, out);
    for (size_t i = 0; i < nv1; ++i) *out++ = color(r, i, in[slot.v1_cols[i]]);
  }
  return NamedRelation{slot.attrs, Relation(width, std::move(data))};
}

// S'_j under coloring `member`, built from S_j.
NamedRelation ExtendHashed(const NamedRelation& s, const HashedSlot& slot,
                           const ColoringFamily& family, size_t member) {
  if (!slot.codes.empty()) {
    const size_t nv1 = slot.v1_cols.size();
    return FillHashed(s, slot, [&slot, member, nv1](size_t r, size_t i, Value) {
      return ColoringFamily::BitColor(member, slot.codes[r * nv1 + i]);
    });
  }
  return FillHashed(s, slot, [&family, member](size_t, size_t, Value v) {
    return family.Color(member, v);
  });
}

// Precomputes the bit family's codes on the source slots.
void BuildSlotCodes(const Plan& p, const ColoringFamily& family,
                    std::vector<HashedSlot>& slots) {
  if (!family.coded()) return;
  PQ_CHECK(family.size() <= 32, "coloring codes exceed 32 bits");
  for (size_t j = 0; j < slots.size(); ++j) {
    HashedSlot& slot = slots[j];
    if (slot.source != static_cast<int>(j) || slot.v1_cols.empty()) continue;
    slot.codes = family.Codes(p.base[j].rel(), slot.v1_cols);
  }
}

// Whether (a, b) or (b, a) is an I1 pair.
bool IsI1Pair(const Plan& p, VarId a, VarId b) {
  for (VarId l : p.partners[a]) {
    if (l == b) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Plan lowering: the default path. The analysis (Plan) is computed once per
// query, Algorithms 1+2 compile into PlanNode DAGs over slot-bound hashed
// inputs S'_j, and every coloring re-executes those DAGs through the shared
// executor. The whole compilation is cacheable across queries (IneqCompiled
// owns its canonical query/formula copies, so the analysis pointers stay
// valid for the cache entry's lifetime).
// ---------------------------------------------------------------------------

struct IneqCompiled {
  ConjunctiveQuery query;   // owned copy the analysis points into
  IneqFormula formula;      // owned copy (formula mode only)
  bool formula_mode = false;
  Plan analysis;            // q/formula point at the members above
  // How each coloring builds the scan slots 0..m-1 = S'_j.
  std::vector<HashedSlot> slots;
  // Lowered DAGs over those slots: Algorithm 1 (upward joins + I1 selects)
  // and the full evaluation — the head projection of Algorithm 1's root when
  // the head lies in the root atom, else Algorithm 2 (+ downward semijoins +
  // upward join-and-project + head projection).
  PlanNodePtr decision_root;
  PlanNodePtr eval_root;
  // Formula evaluation mode only: the φ-filtered root binds to this extra
  // input slot of eval_root (the upward pass cannot see φ, so the driver
  // filters between the passes).
  int phi_slot = -1;
  // Query variables plus primed names (x') for rendering the DAGs.
  VarTable render_vars;
  // The coloring family over the ground set of the S_j above, built once
  // per compiled plan (the cache key carries the options that shape it).
  // Unset for always-false plans and for IneqPlanText's compile.
  std::optional<ColoringFamily> family;
};

// Atom j's text, e.g. "EP(e, p)".
std::string AtomText(const Plan& p, size_t j) {
  const ConjunctiveQuery& q = *p.q;
  const Atom& a = q.body[j];
  std::string out = a.relation + "(";
  for (size_t i = 0; i < a.terms.size(); ++i) {
    if (i > 0) out += ", ";
    const Term& t = a.terms[i];
    if (t.is_const()) {
      out += internal::StrCat(t.value());
    } else if (t.var() >= 0 && t.var() < q.vars.size()) {
      out += q.vars.name(t.var());
    } else {
      out += internal::StrCat("$", t.var());
    }
  }
  return out + ")";
}

std::string ScanLabel(const Plan& p, size_t j) {
  return "S'(" + AtomText(p, j) + ")";
}

// Lowers Algorithm 1 (decision) and Algorithms 1+2 (evaluation) to plan
// DAGs, reproducing the hand-rolled operator schedule: the I1 checks that
// were join post-filters become Select nodes right above the joins (same
// rows downstream).
Status LowerPlans(IneqCompiled* c) {
  const Plan& p = c->analysis;
  const ConjunctiveQuery& q = *p.q;
  const int nv = q.NumVariables();
  const size_t m = p.tree.size();

  std::vector<PlanNodePtr> cur(m);
  for (size_t j = 0; j < m; ++j) {
    cur[j] = MakeScan(static_cast<int>(j), c->slots[j].attrs,
                      ScanLabel(p, j),
                      static_cast<double>(p.base[j].size()));
  }

  auto shared_attrs = [&](int j, int u) {
    std::vector<AttrId> shared;
    std::set_intersection(p.y[j].begin(), p.y[j].end(), p.y[u].begin(),
                          p.y[u].end(), std::back_inserter(shared));
    return shared;
  };
  // The I1 filter F of P_u ⋈ P_j, where `left` is P_u before child j and
  // `right` is P_j or a projection of it that keeps Y_j ∩ Y_u.
  auto i1_filter = [&](int u, int j, const PlanNode& left,
                       const PlanNode& right) {
    // The join's output attrs (left, then right-only), needed to index the
    // pushed filter before the node exists.
    std::vector<AttrId> out_attrs = left.attrs;
    for (AttrId a : right.attrs) {
      if (std::find(out_attrs.begin(), out_attrs.end(), a) ==
          out_attrs.end()) {
        out_attrs.push_back(a);
      }
    }
    const std::vector<AttrId>& pu_attrs = left.attrs;
    const std::vector<AttrId> shared = shared_attrs(j, u);
    Predicate pred;
    if (p.formula == nullptr) {
      // Primed pairs x'_i != x'_l with (x_i, x_l) ∈ I1, x'_i arriving from
      // j (∉ U'_u) and x'_l already in P_u but not in Y_j — the least
      // common ancestor of the endpoints' subtrees (Lemma 1). Pushed into
      // the join kernel (σ_F(P_u ⋈ ...) in one pass, like the oracle).
      auto col_of = [&out_attrs](AttrId a) {
        for (size_t i = 0; i < out_attrs.size(); ++i) {
          if (out_attrs[i] == a) return static_cast<int>(i);
        }
        return -1;
      };
      const std::vector<VarId> u_vars = q.body[u].Variables();
      for (AttrId aj : shared) {
        if (aj < nv) continue;  // only primed attrs carry I1 checks
        VarId xi = aj - nv;
        if (std::find(u_vars.begin(), u_vars.end(), xi) != u_vars.end()) {
          continue;  // x'_i ∈ U'_u: checked elsewhere
        }
        for (AttrId al : pu_attrs) {
          if (al < nv) continue;
          if (std::binary_search(p.y[j].begin(), p.y[j].end(), al)) continue;
          VarId xl = al - nv;
          if (!IsI1Pair(p, xi, xl)) continue;
          pred.Add(Constraint::NeqCols(col_of(al), col_of(aj)));
        }
      }
    }
    return pred;
  };

  // Algorithm 1: P_u := σ_F(P_u ⋈ π_{Y_j ∩ Y_u}(P_j)), bottom-up.
  for (int j : p.tree.bottom_up) {
    int u = p.tree.parent[j];
    if (u < 0) continue;
    PlanNodePtr right = MakeProject(cur[j], shared_attrs(j, u),
                                    /*dedup=*/true);
    Predicate pred = i1_filter(u, j, *cur[u], *right);
    cur[u] = MakeHashJoin(cur[u], std::move(right), std::move(pred));
  }
#ifndef NDEBUG
  for (size_t j = 0; j < m; ++j) {
    std::vector<AttrId> sorted = cur[j]->attrs;
    std::sort(sorted.begin(), sorted.end());
    PQ_DCHECK(sorted == p.y[j],
              "lowered P_j attributes must equal Y_j (Lemma 1)");
  }
#endif
  c->decision_root = cur[p.tree.root];

  // In formula mode the φ-filtered root arrives through an extra slot.
  std::vector<PlanNodePtr> red(m);
  if (c->formula_mode) {
    c->phi_slot = static_cast<int>(m);
    red[p.tree.root] = MakeScan(c->phi_slot, c->decision_root->attrs,
                                "sigma_phi(root)", /*est_rows=*/-1.0);
  } else {
    red[p.tree.root] = cur[p.tree.root];
  }
  std::vector<VarId> head_vars = q.HeadVariables();
  // Head in the root atom: every row of Algorithm 1's root extends to a
  // satisfying assignment, so its head projection is the answer. When the
  // root atom has one child, the projection fuses into their filtered join,
  // which is then never materialized. The fused kernel sorts its left input
  // into a trie: over one atom's S' rows that sort costs less than the join
  // and dedup it replaces, over a materialized join of several atoms more
  // (outside_dept: ~1.3 against ~0.25 ms per coloring), so a root with more
  // children keeps the Project. A leaf child joins as its scan: the head
  // keeps nothing from it, so the kernel stops at each root row's first
  // passing match, and projecting the leaf would only copy it.
  const int root = p.tree.root;
  if (p.head_in_root) {
    c->eval_root = MakeProject(red[root], head_vars, /*dedup=*/true);
    if (!c->formula_mode && p.tree.children[root].size() == 1) {
      const int j = p.tree.children[root][0];
      const PlanNodePtr& atom = cur[root]->children[0];
      const PlanNodePtr& right =
          cur[j]->op == PlanOp::kScan ? cur[j] : cur[root]->children[1];
      c->eval_root = ProjectHead(
          MakeHashJoin(atom, right, i1_filter(root, j, *atom, *right)),
          head_vars);
    }
    return Status::OK();
  }

  // Algorithm 2, step 1: downward semijoins from the (possibly φ-filtered)
  // root.
  for (int j : p.tree.top_down) {
    int u = p.tree.parent[j];
    if (u < 0) continue;
    red[j] = MakeSemijoin(cur[j], red[u]);
  }

  // Step 2: upward join-and-project with Z_j = (Y_j ∩ Y_u) ∪ (Z ∩ at(T[j])).
  Hypergraph h = q.BuildHypergraph();
  std::vector<std::vector<AttrId>> subtree_head(m);
  for (int j : p.tree.bottom_up) {
    std::vector<AttrId> acc;
    for (VarId x : h.edge(j)) {
      if (std::find(head_vars.begin(), head_vars.end(), x) !=
          head_vars.end()) {
        acc.push_back(x);
      }
    }
    for (int ch : p.tree.children[j]) {
      acc.insert(acc.end(), subtree_head[ch].begin(), subtree_head[ch].end());
    }
    std::sort(acc.begin(), acc.end());
    acc.erase(std::unique(acc.begin(), acc.end()), acc.end());
    subtree_head[j] = std::move(acc);
  }
  for (int j : p.tree.bottom_up) {
    int u = p.tree.parent[j];
    if (u < 0) continue;
    std::vector<AttrId> zj;
    for (AttrId a : red[j]->attrs) {
      if (std::find(red[u]->attrs.begin(), red[u]->attrs.end(), a) !=
          red[u]->attrs.end()) {
        zj.push_back(a);
      }
    }
    for (AttrId a : subtree_head[j]) {
      if (std::find(zj.begin(), zj.end(), a) == zj.end()) zj.push_back(a);
    }
    red[u] = MakeHashJoin(red[u], MakeProject(red[j], zj, /*dedup=*/true));
  }
  // Step 3: project the root onto the head variables (the driver maps the
  // bindings through the head terms).
  c->eval_root = MakeProject(red[p.tree.root], head_vars, /*dedup=*/true);
  return Status::OK();
}

void BuildRenderVars(IneqCompiled* c) {
  const ConjunctiveQuery& q = c->query;
  for (VarId v = 0; v < q.NumVariables(); ++v) {
    c->render_vars.Intern(q.vars.name(v));
  }
  for (VarId v = 0; v < q.NumVariables(); ++v) {
    std::string primed = q.vars.name(v) + "'";
    while (c->render_vars.Find(primed) >= 0) primed += "'";
    c->render_vars.Intern(primed);
  }
}

// Compiles a query (and optional formula) without consulting any cache.
Result<std::shared_ptr<IneqCompiled>> BuildCompiled(const Database& db,
                                                    const ConjunctiveQuery& q,
                                                    const IneqFormula* phi) {
  auto c = std::make_shared<IneqCompiled>();
  c->query = q;
  if (phi != nullptr) {
    c->formula = *phi;
    c->formula_mode = true;
  }
  PQ_ASSIGN_OR_RETURN(c->analysis,
                      c->formula_mode
                          ? BuildFormulaPlan(db, c->query, c->formula)
                          : BuildPlan(db, c->query));
  if (!c->analysis.always_false) {
    c->slots = BuildHashedSlots(c->analysis);
    PQ_RETURN_NOT_OK(LowerPlans(c.get()));
  }
  BuildRenderVars(c.get());
  return c;
}

// `phi` renamed onto canonical variable ids (out-of-range ids map to -1 and
// are rejected by the downstream validation, exactly like the original).
IneqFormula RemapFormula(const IneqFormula& phi,
                         const std::vector<AttrId>& inverse) {
  IneqFormula out = phi;
  auto remap = [&inverse](Term& t) {
    if (!t.is_var()) return;
    VarId v = t.var();
    t = Term::Var((v >= 0 && static_cast<size_t>(v) < inverse.size())
                      ? inverse[v]
                      : -1);
  };
  for (IneqFormula::Node& n : out.nodes) {
    if (n.kind == IneqFormula::NodeKind::kAtom) {
      remap(n.atom.lhs);
      remap(n.atom.rhs);
    }
  }
  return out;
}

// Structural signature of a canonical-renamed formula (cache key suffix).
std::string FormulaSignature(const IneqFormula& phi) {
  std::string s;
  auto term = [](const Term& t) {
    return t.is_var() ? internal::StrCat("v", t.var())
                      : internal::StrCat("c", t.value());
  };
  for (const IneqFormula::Node& n : phi.nodes) {
    switch (n.kind) {
      case IneqFormula::NodeKind::kAtom:
        s += "a" + term(n.atom.lhs) + ":" + term(n.atom.rhs) + ";";
        break;
      case IneqFormula::NodeKind::kAnd:
      case IneqFormula::NodeKind::kOr:
        s += n.kind == IneqFormula::NodeKind::kAnd ? "&" : "|";
        for (int ch : n.children) s += internal::StrCat(ch, ",");
        s += ";";
        break;
    }
  }
  return s + internal::StrCat("r", phi.root);
}

// Compiles a query (and optional formula) together with its coloring
// family.
Result<std::shared_ptr<IneqCompiled>> BuildCompiledWithFamily(
    const Database& db, const ConjunctiveQuery& q, const IneqFormula* phi,
    const IneqOptions& options) {
  PQ_ASSIGN_OR_RETURN(auto compiled, BuildCompiled(db, q, phi));
  if (!compiled->analysis.always_false) {
    PQ_ASSIGN_OR_RETURN(compiled->family,
                        MakeFamily(compiled->analysis, compiled->slots,
                                   options));
    BuildSlotCodes(compiled->analysis, *compiled->family, compiled->slots);
  }
  return compiled;
}

// Fetches (or compiles and caches) the compiled form. With a cache, the
// query is canonicalized first so renaming-equivalent queries share one
// compilation; without one, the query compiles as-is.
Result<std::shared_ptr<IneqCompiled>> GetCompiled(const Database& db,
                                                  const ConjunctiveQuery& q,
                                                  const IneqFormula* phi,
                                                  const EvalContext& ctx,
                                                  const IneqOptions& options) {
  PQ_FAULT_POINT("ineq.compile");
  if (ctx.plan_cache == nullptr) {
    return BuildCompiledWithFamily(db, q, phi, options);
  }
  CanonicalCq canonical = CanonicalizeCq(q);
  // The family is part of the entry, so every option that shapes it is
  // part of the key.
  std::string key = internal::StrCat(
      "ineq:", canonical.signature, "|family:",
      static_cast<int>(options.driver), ":", options.seed, ":",
      std::bit_cast<uint64_t>(options.mc_error_exponent), ":",
      options.certified_max_subsets, ":", options.certified_max_members);
  IneqFormula renamed;
  if (phi != nullptr) {
    std::vector<AttrId> inverse(std::max(1, q.NumVariables()), -1);
    for (size_t i = 0; i < canonical.order.size(); ++i) {
      if (canonical.order[i] >= 0 &&
          static_cast<size_t>(canonical.order[i]) < inverse.size()) {
        inverse[canonical.order[i]] = static_cast<AttrId>(i);
      }
    }
    renamed = RemapFormula(*phi, inverse);
    key += "|phi:" + FormulaSignature(renamed);
  }
  auto cached = ctx.plan_cache->Lookup<IneqCompiled>(key, db);
  if (cached != nullptr) return cached;
  PQ_ASSIGN_OR_RETURN(
      auto compiled,
      BuildCompiledWithFamily(db, canonical.query,
                              phi != nullptr ? &renamed : nullptr, options));
  ctx.plan_cache->Insert(key, db, canonical.query, compiled);
  return compiled;
}

// Hash-extended inputs S'_j for one coloring (slot order = body order). An
// atom without V1 columns reads S_j itself, and one whose extension another
// atom builds reads that atom's S'_j relabelled: no rows are copied for
// either.
std::vector<NamedRelation> HashedInputs(const IneqCompiled& c, size_t member) {
  const Plan& p = c.analysis;
  std::vector<NamedRelation> inputs;
  inputs.reserve(p.base.size() + 1);  // + formula evaluation's φ slot
  for (size_t j = 0; j < p.base.size(); ++j) {
    const HashedSlot& slot = c.slots[j];
    if (slot.v1_cols.empty()) {
      inputs.push_back(p.base[j]);
    } else if (slot.source != static_cast<int>(j)) {
      inputs.push_back(inputs[slot.source].WithAttrs(slot.attrs));
    } else {
      inputs.push_back(ExtendHashed(p.base[j], slot, *c.family, member));
    }
  }
  return inputs;
}

// φ applied at the root, on the primed (color) columns; constants take
// their color under the same member.
NamedRelation FilterByFormula(const Plan& p, const NamedRelation& root,
                              const ColoringFamily& family, size_t member) {
  std::vector<int> col_of_var(p.q->NumVariables(), -1);
  for (VarId x : p.v1) {
    col_of_var[x] = root.ColumnOf(Prime(*p.q, x));
    PQ_CHECK(col_of_var[x] >= 0,
             "formula variable's primed attribute missing at the root");
  }
  NamedRelation filtered{root.attrs()};
  for (size_t r = 0; r < root.size(); ++r) {
    auto row = root.rel().Row(r);
    auto value_of = [&](const Term& t) -> Value {
      return t.is_var() ? row[col_of_var[t.var()]]
                        : family.Color(member, t.value());
    };
    if (p.formula->Evaluate(value_of)) filtered.rel().Add(row);
  }
  return filtered;
}

// One coloring's share of a run: each coloring runs as its own scheduler
// task into its own share, and the driver merges the shares in coloring
// order.
struct ColoringShare {
  Status status;
  bool executed = false;     // its plan ran (not skipped, not aborted first)
  PlanStats plan;
  size_t filtered_rows = 0;  // rows of the φ-filtered root (formula mode)
  bool witness = false;      // decision: the residual query is nonempty
  Relation answers{0};       // evaluation: sorted, duplicate-free answers
  // EXPLAIN ANALYZE of a cloned execution, keyed by the clones; clones[i]
  // was cloned from cloned_from[i] (kept only while a capture is armed).
  std::unique_ptr<PlanCapture> capture;
  std::vector<PlanNodePtr> clones;
  std::vector<const PlanNode*> cloned_from;
};

// Runs coloring `m`: builds its hash-extended inputs S'_j and executes the
// residual plan on them — Algorithm 1's DAG, then φ at the root in formula
// mode (decision, or formula evaluation), then the evaluation DAG when
// `evaluate`. Formula evaluation runs both DAGs in one ExecSession, so the
// evaluation pass reuses every P_j the upward pass computed. Under a
// parallel runtime the colorings run concurrently, and the executor writes
// actuals into the nodes it runs, so each coloring executes a private clone
// of the DAGs; inline, the compiled DAGs run directly.
Status RunColoring(IneqCompiled& c, const EvalContext& ctx, bool evaluate,
                   size_t m, ColoringShare& share) {
  // Per-coloring poll: Theorem 2's k^k loop is the longest-running site in
  // the engine, so deadline aborts must land between colorings.
  PQ_RETURN_NOT_OK(ctx.runtime.CheckInterrupt());
  PQ_FAULT_POINT("ineq.coloring");
  TraceSpan coloring_span(
      ctx.runtime.tracer, "coloring",
      ctx.runtime.tracer != nullptr ? internal::StrCat("m=", m)
                                    : std::string());
  share.executed = true;
  const Plan& p = c.analysis;
  const ColoringFamily& family = *c.family;
  const bool decide = !evaluate || c.formula_mode;
  PlanNode* decision_root = c.decision_root.get();
  PlanNode* eval_root = c.eval_root.get();
  RuntimeOptions runtime = ctx.runtime;
  std::vector<PlanNodePtr> clones;
  if (runtime.parallel()) {
    std::vector<const PlanNode*> roots;
    if (decide) roots.push_back(decision_root);
    if (evaluate) roots.push_back(eval_root);
    clones = ClonePlan(roots);
    if (decide) decision_root = clones.front().get();
    if (evaluate) eval_root = clones.back().get();
    if (runtime.analyze != nullptr) {
      share.capture = std::make_unique<PlanCapture>();
      share.clones = clones;
      share.cloned_from = roots;
      runtime.analyze = share.capture.get();
    }
  }
  std::vector<NamedRelation> inputs = HashedInputs(c, m);
  // Formula evaluation: the evaluation DAG reads the φ-filtered root
  // through an extra slot, bound after the filter.
  if (evaluate && c.formula_mode) inputs.emplace_back();
  std::vector<const NamedRelation*> ptrs;
  ptrs.reserve(inputs.size());
  for (const NamedRelation& in : inputs) ptrs.push_back(&in);
  ExecContext exec{ptrs, ctx.limits, &share.plan, runtime, &c.render_vars};
  ExecSession session(exec);
  if (decide) {
    PQ_ASSIGN_OR_RETURN(NamedRelation root, session.Run(*decision_root));
    if (c.formula_mode && !root.empty()) {
      root = FilterByFormula(p, root, family, m);
      share.filtered_rows = root.size();
    }
    if (!evaluate) {
      share.witness = !root.empty();
      return Status::OK();
    }
    if (root.empty()) return Status::OK();
    inputs.back() = std::move(root);
  }
  PQ_ASSIGN_OR_RETURN(NamedRelation bindings, session.Run(*eval_root));
  // Sorted inside the coloring's task, so the driver only merges.
  share.answers = SortAnswers(BindingsToAnswers(std::move(bindings),
                                                c.query.head,
                                                /*sort_output=*/false),
                              ctx.runtime);
  return Status::OK();
}

// Runs every coloring of the family as one scheduler task (inline and in
// order on a width-1 runtime) and returns the shares in coloring order. A
// coloring that fails — or, deciding, finds a witness — settles the run:
// colorings above it that have not started are skipped, while lower ones
// still run, so the outcome is the sequential loop's at any width.
std::vector<ColoringShare> RunColorings(IneqCompiled& c, const EvalContext& ctx,
                                        bool evaluate) {
  const size_t n = c.family->size();
  std::vector<ColoringShare> shares(n);
  std::atomic<size_t> settled{n};  // lowest coloring that settled the run
  TaskGroup group(ctx.runtime.scheduler);
  for (size_t m = 0; m < n; ++m) {
    group.Spawn([&, m] {
      if (m > settled.load()) return;
      ColoringShare& share = shares[m];
      share.status = RunColoring(c, ctx, evaluate, m, share);
      if (share.status.ok() && !share.witness) return;
      size_t lowest = settled.load();
      while (m < lowest && !settled.compare_exchange_weak(lowest, m)) {
        // `lowest` reloaded; retry while this coloring is still lower.
      }
    });
  }
  group.Wait();
  return shares;
}

// Merges the shares in coloring order into the run's counters: PlanStats,
// IneqStats::trials/peak_rows, the EXPLAIN ANALYZE captures (a clone counts
// as an execution of the compiled DAG it was cloned from) and the plan
// cache's per-coloring reuse. The outcome is that of the lowest coloring
// that failed or found a witness: its error is returned, or a witness makes
// the result true. Colorings above it may have run concurrently; their work
// is counted and their errors are dropped.
Result<bool> MergeShares(const EvalContext& ctx,
                         std::vector<ColoringShare>& shares, IneqStats* stats,
                         PlanStats* plan_stats) {
  PlanStats local;
  size_t executed = 0;
  bool found = false;
  for (ColoringShare& share : shares) {
    if (share.capture != nullptr) {
      ctx.runtime.analyze->Absorb(
          *share.capture, [&share](const PlanNode* root) {
            for (size_t i = 0; i < share.clones.size(); ++i) {
              if (share.clones[i].get() == root) return share.cloned_from[i];
            }
            return root;
          });
    }
    if (share.executed) ++executed;
    if (!found && !share.status.ok()) {
      if (stats != nullptr) stats->trials = executed;
      return share.status;
    }
    if (!share.executed) continue;
    local.Merge(share.plan);
    if (stats != nullptr) {
      stats->peak_rows = std::max(stats->peak_rows, share.filtered_rows);
    }
    found = found || share.witness;
  }
  if (stats != nullptr) {
    stats->trials = executed;
    stats->peak_rows = std::max(stats->peak_rows, local.peak_intermediate_rows);
  }
  // One compile, `executed` executions: every re-binding past the first is
  // the cache's per-coloring reuse (counted per coloring, not per plan
  // pass).
  if (ctx.plan_cache != nullptr && executed > 1) {
    ctx.plan_cache->NoteReuse(executed - 1);
  }
  if (plan_stats != nullptr) plan_stats->Merge(local);
  return found;
}

// Fills the per-run IneqStats the compiled plan determines.
void ReportCompiled(const IneqCompiled& c, IneqStats* stats) {
  if (stats == nullptr) return;
  stats->k = c.analysis.hash_range;
  stats->i1_atoms = c.analysis.i1.size();
  stats->i2_atoms = c.analysis.i2_count;
  stats->family_size = c.family->size();
  stats->family_kind = c.family->KindName();
  stats->certified = c.family->certified();
}

// Plan-routed decision driver.
Result<bool> PlanDriveNonempty(IneqCompiled& c, const EvalContext& ctx,
                               IneqStats* stats, PlanStats* plan_stats) {
  if (c.analysis.always_false) return false;
  ReportCompiled(c, stats);
  TraceSpan route_span(ctx.runtime.tracer, "route.theorem2");
  std::vector<ColoringShare> shares = RunColorings(c, ctx, /*evaluate=*/false);
  return MergeShares(ctx, shares, stats, plan_stats);
}

// Plan-routed evaluation driver.
Result<Relation> PlanDriveEvaluate(IneqCompiled& c, const EvalContext& ctx,
                                   IneqStats* stats, PlanStats* plan_stats) {
  const size_t arity = c.query.head.size();
  if (c.analysis.always_false) return Relation(arity);
  ReportCompiled(c, stats);
  TraceSpan route_span(ctx.runtime.tracer, "route.theorem2");
  std::vector<ColoringShare> shares = RunColorings(c, ctx, /*evaluate=*/true);
  PQ_RETURN_NOT_OK(MergeShares(ctx, shares, stats, plan_stats).status());
  // Every coloring sorted its own answers; merge them once.
  std::vector<Relation> parts;
  parts.reserve(shares.size());
  for (ColoringShare& share : shares) parts.push_back(std::move(share.answers));
  return MergeSortedAnswers(parts, arity, ctx.runtime);
}

}  // namespace

Result<bool> IneqNonempty(const Database& db, const ConjunctiveQuery& q,
                          const EvalContext& ctx, const IneqOptions& options,
                          IneqStats* stats, PlanStats* plan_stats) {
  PQ_ASSIGN_OR_RETURN(auto compiled,
                      GetCompiled(db, q, nullptr, ctx, options));
  return PlanDriveNonempty(*compiled, ctx, stats, plan_stats);
}

Result<Relation> IneqEvaluate(const Database& db, const ConjunctiveQuery& q,
                              const EvalContext& ctx,
                              const IneqOptions& options, IneqStats* stats,
                              PlanStats* plan_stats) {
  PQ_ASSIGN_OR_RETURN(auto compiled,
                      GetCompiled(db, q, nullptr, ctx, options));
  return PlanDriveEvaluate(*compiled, ctx, stats, plan_stats);
}

Result<bool> IneqFormulaNonempty(const Database& db, const ConjunctiveQuery& q,
                                 const IneqFormula& phi,
                                 const EvalContext& ctx,
                                 const IneqOptions& options, IneqStats* stats,
                                 PlanStats* plan_stats) {
  PQ_ASSIGN_OR_RETURN(auto compiled, GetCompiled(db, q, &phi, ctx, options));
  return PlanDriveNonempty(*compiled, ctx, stats, plan_stats);
}

Result<Relation> IneqFormulaEvaluate(const Database& db,
                                     const ConjunctiveQuery& q,
                                     const IneqFormula& phi,
                                     const EvalContext& ctx,
                                     const IneqOptions& options,
                                     IneqStats* stats,
                                     PlanStats* plan_stats) {
  PQ_ASSIGN_OR_RETURN(auto compiled, GetCompiled(db, q, &phi, ctx, options));
  return PlanDriveEvaluate(*compiled, ctx, stats, plan_stats);
}

Result<bool> IneqContains(const Database& db, const ConjunctiveQuery& q,
                          const std::vector<Value>& tuple,
                          const EvalContext& ctx, const IneqOptions& options,
                          IneqStats* stats) {
  if (tuple.size() != q.head.size()) {
    return Status::InvalidArgument("tuple arity does not match query head");
  }
  return IneqNonempty(db, q.BindHead(tuple), ctx, options, stats);
}

Result<std::string> IneqPlanText(const Database& db,
                                 const ConjunctiveQuery& q) {
  PQ_ASSIGN_OR_RETURN(auto compiled, BuildCompiled(db, q, nullptr));
  if (compiled->analysis.always_false) {
    return std::string(
        "(empty plan: a comparison atom is refuted on every database)\n");
  }
  std::ostringstream oss;
  oss << "-- Theorem 2 color coding: k=" << compiled->analysis.k
      << " (|V1|), I1=" << compiled->analysis.i1.size()
      << " hash-checked atom(s), I2=" << compiled->analysis.i2_count
      << " pushed into scans;\n"
      << "-- one residual plan compiled, executed once per coloring (one "
         "task per coloring) on re-bound S' inputs (primed columns = "
         "colors)\n";
  const Plan& p = compiled->analysis;
  if (p.head_in_root) {
    oss << "-- Algorithm 1 only (head in root atom "
        << AtomText(p, static_cast<size_t>(p.tree.root))
        << "): the answer is pi_head of the upward pass's root\n";
  }
  oss << RenderPlan(*compiled->eval_root, &compiled->render_vars);
  return oss.str();
}

}  // namespace paraquery
