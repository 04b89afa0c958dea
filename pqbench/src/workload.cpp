#include "workload.hpp"

#include <algorithm>
#include <set>
#include <unordered_set>
#include <utility>

#include "common/rng.hpp"
#include "hypergraph/hypertree.hpp"
#include "query/parser.hpp"
#include "query/positive_query.hpp"
#include "stats.hpp"
#include "workload/generators.hpp"

namespace pqbench {

using paraquery::Database;
using paraquery::RelId;
using paraquery::Rng;
using paraquery::Value;

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kInteractive:
      return "interactive";
    case Workload::kAnalytic:
      return "analytic";
    case Workload::kUpdate:
      return "update";
  }
  return "?";
}

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w :
       {Workload::kInteractive, Workload::kAnalytic, Workload::kUpdate}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

int Complexity::Score() const {
  return atoms + 3 * (ghd_width - 1) + 2 * neq + 3 * order +
         2 * (disjuncts - 1) + 4 * recursion_depth + (negation ? 4 : 0);
}

namespace {

// Database sizes of one workload.
struct Scale {
  int rel_rows;         // rows of each of R0..R3
  Value domain;         // value domain of R0..R3
  int employees;        // EP / EM / ES
  int projects;
  int students;         // SD / SC / CD
  int courses;
  int departments;
  int graph_vertices;   // E
  int chain_length;     // E: vertices per chain
  int pool_variants;    // distinct texts drawn per parameterized template
};

constexpr Scale kSmall = {2000, 500, 300, 40, 300, 60, 8, 200, 0, 12};
constexpr Scale kLarge = {100000, 20000, 20000, 100, 20000, 400, 20, 20000,
                          20, 1};

// Copies every relation of `src` into `dst` (names must be new).
void MergeInto(Database* dst, const Database& src) {
  for (size_t i = 0; i < src.relation_count(); ++i) {
    const RelId id = static_cast<RelId>(i);
    const RelId to =
        dst->AddRelation(src.relation_name(id), src.relation_arity(id))
            .ValueOrDie();
    dst->relation(to) = src.relation(id);
  }
}

// The sparse directed graph E. Small scale: a random recursive tree (each
// vertex hangs off one of the 20 vertices before it) plus 10% random extra
// edges, so E has a few short cycles but a transitive closure far below
// |V|^2. Large scale: disjoint forward chains, so the closure stays at
// |V| * chain_length / 2 pairs however many vertices there are.
void AddGraph(Database* db, const Scale& s, Rng& rng) {
  const RelId e = db->AddRelation("E", 2).ValueOrDie();
  paraquery::Relation& rel = db->relation(e);
  const int n = s.graph_vertices;
  if (s.chain_length > 0) {
    for (int v = 0; v < n; ++v) {
      if ((v + 1) % s.chain_length != 0 && v + 1 < n) rel.Add({v, v + 1});
    }
    return;
  }
  for (int v = 1; v < n; ++v) {
    rel.Add({rng.Range(std::max(0, v - 20), v - 1), v});
  }
  for (int i = 0; i < n / 10; ++i) {
    const Value a = rng.Range(0, n - 1);
    const Value b = rng.Range(0, n - 1);
    if (a != b) rel.Add({a, b});
  }
}

Database BuildDatabase(const Scale& s, uint64_t seed) {
  Database db = paraquery::RandomBinaryDatabase(4, s.rel_rows, s.domain, seed);
  MergeInto(&db, paraquery::EmployeeProjects(s.employees, s.projects, 1, 4,
                                             seed + 1));
  MergeInto(&db, paraquery::StudentCourses(s.students, s.courses,
                                           s.departments, 3, 0.3, seed + 2));
  MergeInto(&db, paraquery::EmployeeSalaries(s.employees, 1000, seed + 3));
  Rng rng(seed + 4);
  AddGraph(&db, s, rng);
  return db;
}

// A query template. Placeholders: $A..$D distinct relations drawn from
// R0..R3; $c / $d constants of the R domain; $v a vertex of E; $e an
// employee. A template without placeholders yields one text.
struct Template {
  const char* family;
  const char* text;
  // FO with negation: positive part, answer arity and negated conditions
  // (relation names may use the same placeholders).
  const char* fo_positive = nullptr;
  size_t fo_head_arity = 0;
  std::vector<Negation> negations = {};
};

std::string Replace(std::string text, const std::string& from,
                    const std::string& to) {
  for (size_t pos = 0; (pos = text.find(from, pos)) != std::string::npos;
       pos += to.size()) {
    text.replace(pos, from.size(), to);
  }
  return text;
}

// Fills one instance of `t`; the same draws substitute into the text, the
// FO positive part and the negated relations.
QuerySpec Instantiate(const Template& t, const Scale& s, Rng& rng) {
  std::vector<std::string> rels = {"R0", "R1", "R2", "R3"};
  for (size_t i = rels.size() - 1; i > 0; --i) {
    std::swap(rels[i], rels[rng.Below(i + 1)]);
  }
  const std::vector<std::pair<std::string, std::string>> subs = {
      {"$A", rels[0]},
      {"$B", rels[1]},
      {"$C", rels[2]},
      {"$D", rels[3]},
      {"$c", std::to_string(rng.Range(0, s.domain - 1))},
      {"$d", std::to_string(rng.Range(0, s.domain - 1))},
      {"$v", std::to_string(rng.Range(0, s.graph_vertices - 1))},
      {"$e", std::to_string(rng.Range(0, s.employees - 1))},
  };
  const auto fill = [&](std::string text) {
    for (const auto& [from, to] : subs) text = Replace(text, from, to);
    return text;
  };
  QuerySpec q;
  q.family = t.family;
  q.text = fill(t.text);
  if (t.fo_positive != nullptr) {
    q.fo_positive = fill(t.fo_positive);
    q.fo_head_arity = t.fo_head_arity;
    q.fo_negations = t.negations;
    for (Negation& n : q.fo_negations) n.relation = fill(n.relation);
  }
  return q;
}

int CqWidth(const paraquery::ConjunctiveQuery& cq) {
  if (cq.body.empty() || cq.IsAcyclic()) return 1;
  auto ghd = paraquery::BuildHypertreeDecomposition(cq.BuildHypergraph());
  return ghd.ok() ? static_cast<int>(ghd.value().width()) : 0;
}

void CountComparisons(const paraquery::ConjunctiveQuery& cq, Complexity* c) {
  for (const paraquery::CompareAtom& cmp : cq.comparisons) {
    if (cmp.op == paraquery::CompareOp::kNeq) ++c->neq;
    if (cmp.op == paraquery::CompareOp::kLt ||
        cmp.op == paraquery::CompareOp::kLe) {
      ++c->order;
    }
  }
}

std::string ShapeOf(const paraquery::AnswerSpec& answer, size_t head_size) {
  switch (answer.kind) {
    case paraquery::AnswerSpec::Kind::kCount:
      return "count";
    case paraquery::AnswerSpec::Kind::kGroupedCount:
      return "grouped_count";
    case paraquery::AnswerSpec::Kind::kTuples:
      break;
  }
  return head_size == 0 ? "boolean" : "tuples";
}

void AddRead(QuerySpec* q, const std::string& relation) {
  if (std::find(q->reads.begin(), q->reads.end(), relation) ==
      q->reads.end()) {
    q->reads.push_back(relation);
  }
}

// Parses the text once with the library's parsers to fill the syntax kind,
// classifier route, complexity and the stored relations it reads.
void Analyze(QuerySpec* q) {
  Complexity& c = q->complexity;
  if (q->text.find(":=") != std::string::npos) {
    q->kind = TextKind::kFormula;
    auto fo = paraquery::ParseFirstOrder(q->text).ValueOrDie();
    c.atoms = static_cast<int>(fo.atoms.size());
    c.answer_shape = ShapeOf(fo.answer, fo.head.size());
    for (const paraquery::Atom& a : fo.atoms) AddRead(q, a.relation);
    if (fo.IsPositive()) {
      auto pq = paraquery::PositiveQuery::FromFirstOrder(fo).ValueOrDie();
      q->route = paraquery::ClassifyPositive(pq).engine;
      // Expand the tuple form over all free variables: ToUnionOfCqs aborts
      // (PQ_CHECK) on a counting head whose body has free variables.
      paraquery::FirstOrderQuery tuples = fo;
      tuples.answer = paraquery::AnswerSpec::Tuples();
      tuples.head.clear();
      for (paraquery::VarId v : fo.FreeVariables()) {
        tuples.head.push_back(paraquery::Term::Var(v));
      }
      auto ucq = paraquery::PositiveQuery::FromFirstOrder(tuples)
                     .ValueOrDie()
                     .ToUnionOfCqs()
                     .ValueOrDie();
      c.disjuncts = static_cast<int>(ucq.size());
      for (const auto& cq : ucq) {
        c.ghd_width = std::max(c.ghd_width, CqWidth(cq));
        CountComparisons(cq, &c);
      }
    } else {
      q->route = paraquery::ClassifyFirstOrder(fo).engine;
      c.negation = true;
      c.ghd_width = 1;
    }
    return;
  }
  size_t arrows = 0;
  for (size_t pos = 0; (pos = q->text.find(":-", pos)) != std::string::npos;
       pos += 2) {
    ++arrows;
  }
  if (arrows >= 2) {
    q->kind = TextKind::kDatalog;
    auto p = paraquery::ParseDatalog(q->text).ValueOrDie();
    q->route = paraquery::ClassifyDatalog(p).engine;
    c.answer_shape = "tuples";
    std::set<std::string> recursive;
    for (const paraquery::DatalogRule& r : p.rules) {
      c.atoms += static_cast<int>(r.body.size());
      for (const paraquery::Atom& a : r.body) {
        if (p.IsIdb(a.relation)) {
          recursive.insert(a.relation);
        } else {
          AddRead(q, a.relation);
        }
      }
    }
    c.recursion_depth = static_cast<int>(recursive.size());
    c.ghd_width = 1;
    return;
  }
  q->kind = TextKind::kRule;
  auto cq = paraquery::ParseConjunctive(q->text).ValueOrDie();
  q->route = paraquery::ClassifyConjunctive(cq).engine;
  c.atoms = static_cast<int>(cq.body.size());
  c.ghd_width = CqWidth(cq);
  CountComparisons(cq, &c);
  c.answer_shape = ShapeOf(cq.answer, cq.head.size());
  for (const paraquery::Atom& a : cq.body) AddRead(q, a.relation);
}

// The interactive / update pool: every route, with the paper's scenario
// queries verbatim where the paper states them.
std::vector<Template> InteractiveTemplates() {
  static const std::string multi_project =
      paraquery::MultiProjectQuery().ToString();
  static const std::string outside_dept =
      paraquery::OutsideDepartmentQuery().ToString();
  static const std::string higher_paid =
      paraquery::HigherPaidThanManagerQuery().ToString();
  static const std::string simple_path =
      paraquery::SimplePathQuery(2).ToString();
  return {
      // acyclic (Yannakakis)
      {"path2", "g(x,z) :- $A(x,y), $B(y,z)."},
      {"path3_const", "g(w) :- $A($c,y), $B(y,z), $C(z,w)."},
      {"star3", "g(x) :- $A(x,y), $B(x,z), $C(x,w)."},
      {"emp_manager", "g(e,m) :- EP(e,p), EM(e,m), EP(m,$c)."},
      {"reports_to", "g(e,s) :- EM(e,$e), ES(e,s)."},
      // inequality (Theorem 2 color coding)
      {"multi_project", multi_project.c_str()},
      {"outside_dept", outside_dept.c_str()},
      {"simple_path2", simple_path.c_str()},
      {"coworkers", "g(f) :- EP($e,p), EP(f,p), EP(f,q), p != q."},
      // naive: order comparisons (closure, then the general planner) and
      // cyclic queries (hypertree + leapfrog)
      {"higher_paid", higher_paid.c_str()},
      {"lt_path", "g(x,z) :- $A(x,y), $B(y,z), x < z."},
      {"le_collapse", "g(x,y) :- $A(x,y), $B(y,z), x <= z, z <= x."},
      {"triangle", "g(x,y,z) :- $A(x,y), $B(y,z), $C(z,x)."},
      {"cycle4", "g(x,z) :- $A(x,y), $B(y,z), $C(z,w), $D(w,x)."},
      {"dept_triangle", "g(s,c) :- SD(s,d), SC(s,c), CD(c,d)."},
      {"graph_triangle", "g(x,y,z) :- E(x,y), E(y,z), E(z,x)."},
      // ucq
      {"ucq_path", "g(y) := $A($c,y) or exists z . ($B($c,z) and $C(z,y))."},
      {"ucq_union", "g(x,y) := $A(x,y) or $B(y,x)."},
      {"ucq_nested",
       "g(x) := exists y . ($A(x,y) and ($B(y,$c) or $C(y,$d)))."},
      {"ucq_count", "COUNT(*) := $A(x,y) or $B(x,y) or $C(x,y)."},
      {"ucq_count_grouped", "COUNT(x) := $A(x,y) or $B(x,y)."},
      // Disjuncts over disjoint value ranges (project ids are offset), so
      // inclusion-exclusion meets empty intersections it can prune.
      {"ucq_count_disjoint", "COUNT(*) := $A(x,y) or EP(x,y) or SC(x,y)."},
      // fo with negation (active-domain algebra)
      {"fo_anti", "g(x) := exists y . ($A(x,y) and not exists z . $B(y,z)).",
       "p(x,y) :- $A(x,y).", 1, {{1, "$B", 0}}},
      {"fo_dead_end",
       "g(x) := exists y . (E(x,y) and not exists z . E(y,z)).",
       "p(x,y) :- E(x,y).", 1, {{1, "E", 0}}},
      {"fo_no_reports",
       "g(e) := exists p . (EP(e,p) and not exists m . EM(m,e)).",
       "o(e,p) :- EP(e,p).", 1, {{0, "EM", 1}}},
      {"fo_count",
       "COUNT(*) := exists y . ($A(x,y) and not exists z . $B(z,y)).",
       "p(x,y) :- $A(x,y).", 1, {{1, "$B", 1}}},
      // datalog
      {"tc", "tc(x,y) :- E(x,y).\ntc(x,y) :- tc(x,z), E(z,y).\n@goal tc."},
      {"reach", "r(y) :- E($v,y).\nr(y) :- r(x), E(x,y).\n@goal r."},
      {"subordinates", "s(x) :- EM(x,$e).\ns(x) :- EM(x,y), s(y).\n@goal s."},
      // counting (counting Yannakakis / aggregate at the root)
      {"count_triangle", "COUNT(*) :- $A(x,y), $B(y,z), $C(z,x)."},
      {"count_star", "COUNT(*) :- $A(c,x), $B(c,y), $C(c,z)."},
      {"count_path_grouped", "COUNT(x) :- $A(x,y), $B(y,z)."},
      {"count_neq", "COUNT(*) :- EP(e,p), EP(e,q), p != q."},
      {"count_lt", "COUNT(x) :- $A(x,y), $B(y,z), x < z."},
      {"count_dept_cycle", "COUNT(d) :- SD(s,d), SC(s,c), CD(c,d)."},
  };
}

// The analytic set: a fixed list of heavy queries over fixed relations.
std::vector<Template> AnalyticTemplates() {
  static const std::string multi_project =
      paraquery::MultiProjectQuery().ToString();
  static const std::string outside_dept =
      paraquery::OutsideDepartmentQuery().ToString();
  static const std::string higher_paid =
      paraquery::HigherPaidThanManagerQuery().ToString();
  static const std::string star =
      paraquery::StarCountQuery(3).ToString();
  return {
      {"triangle", "g(x,y,z) :- R0(x,y), R1(y,z), R2(z,x)."},
      {"count_triangle", "COUNT(*) :- R1(x,y), R2(y,z), R3(z,x)."},
      {"count_cycle4", "COUNT(*) :- R0(x,y), R1(y,z), R2(z,w), R3(w,x)."},
      {"path2_large", "g(x,z) :- R0(x,y), R1(y,z)."},
      {"count_star", star.c_str()},
      {"lt_join", "g(x,z) :- R2(x,y), R3(y,z), x < z."},
      {"higher_paid", higher_paid.c_str()},
      {"ucq", "g(x,y) := R0(x,y) or exists z . (R1(x,z) and R2(z,y))."},
      {"multi_project", multi_project.c_str()},
      {"outside_dept", outside_dept.c_str()},
      {"tc_sparse",
       "tc(x,y) :- E(x,y).\ntc(x,y) :- tc(x,z), E(z,y).\n@goal tc."},
      {"count_dept_cycle", "COUNT(d) :- SD(s,d), SC(s,c), CD(c,d)."},
      {"count_path_grouped", "COUNT(x) :- R2(x,y), R3(y,z)."},
      // Two light reads: a selective acyclic join and a Datalog reach over
      // one chain. With them the median read falls in the middle of the
      // 30-60 ms group (count_path_grouped, count_star, outside_dept)
      // rather than in its upper tail, next to the gap below the 60-100 ms
      // group, where run-to-run noise moves it most.
      {"path3_const", "g(w) :- R0($c,y), R1(y,z), R2(z,w)."},
      {"reach_sparse", "r(y) :- E($v,y).\nr(y) :- r(x), E(x,y).\n@goal r."},
  };
}

// Draws up to `variants` distinct texts per template; template order is
// kept so the pool is stratified by family.
std::vector<QuerySpec> BuildPool(const std::vector<Template>& templates,
                                 const Scale& s, Rng& rng) {
  std::vector<QuerySpec> pool;
  for (const Template& t : templates) {
    std::set<std::string> seen;
    for (int attempt = 0; attempt < 4 * s.pool_variants &&
                          static_cast<int>(seen.size()) < s.pool_variants;
         ++attempt) {
      QuerySpec q = Instantiate(t, s, rng);
      if (!seen.insert(q.text).second) continue;
      Analyze(&q);
      pool.push_back(std::move(q));
    }
  }
  return pool;
}

// Relations the update workload writes to: every stored relation some
// read of the pool depends on, except the scenario ones whose generators
// give them a fixed shape (CD, SD) — they stay read-only.
const char* const kWritable[] = {"R0", "R1", "R2", "R3", "E",
                                 "EP", "EM", "ES", "SC"};

constexpr int kWriteBatchRows = 16;
constexpr int kReadsPerWrite = 10;
constexpr int kScriptOps = 4096;
// The update script is shorter: its expected answers follow the writes, so
// the oracle evaluates almost every read position anew.
constexpr int kUpdateScriptOps = 2200;
// Write batches of a workload without writes in its script (timed by the
// runner's write probe): four per writable relation.
constexpr int kProbeBatchesPerRelation = 4;

// Plans write batches of fresh rows (absent from the relation's state at
// that point of the script, so every write changes the answer of some
// reads). Values come from each column's observed range, the domain the
// queries' constants and joins use.
class WritePlanner {
 public:
  explicit WritePlanner(const Database& db) {
    for (const char* name : kWritable) {
      const paraquery::Relation& rel =
          db.relation(db.FindRelation(name).ValueOrDie());
      State st;
      st.lo = {rel.At(0, 0), rel.At(0, 1)};
      st.hi = st.lo;
      for (size_t r = 0; r < rel.size(); ++r) {
        for (int c = 0; c < 2; ++c) {
          st.lo[c] = std::min(st.lo[c], rel.At(r, c));
          st.hi[c] = std::max(st.hi[c], rel.At(r, c));
        }
        st.present.insert(Key(rel.At(r, 0), rel.At(r, 1)));
      }
      states_.push_back(std::move(st));
    }
  }

  // The next batch, for the writable relations in rotation.
  WriteBatch Next(Rng& rng) {
    const size_t r = count_++ % std::size(kWritable);
    State& st = states_[r];
    WriteBatch w;
    w.relation = kWritable[r];
    while (static_cast<int>(w.rows.size()) < kWriteBatchRows) {
      const std::array<Value, 2> row = {rng.Range(st.lo[0], st.hi[0]),
                                        rng.Range(st.lo[1], st.hi[1])};
      if (st.present.insert(Key(row[0], row[1])).second) w.rows.push_back(row);
    }
    return w;
  }

 private:
  // A colliding key only makes a fresh row look present (and be skipped).
  static uint64_t Key(Value a, Value b) {
    return static_cast<uint64_t>(a) * 0x9e3779b97f4a7c15ull ^
           static_cast<uint64_t>(b);
  }
  struct State {
    std::array<Value, 2> lo, hi;
    std::unordered_set<uint64_t> present;
  };
  std::vector<State> states_;
  size_t count_ = 0;
};

}  // namespace

void ApplyWrite(Database* db, const WriteBatch& batch) {
  paraquery::Relation& rel =
      db->relation(db->FindRelation(batch.relation).ValueOrDie());
  for (const auto& row : batch.rows) rel.Add(row);
}

WorkloadSpec BuildWorkload(Workload w, uint64_t seed) {
  WorkloadSpec spec;
  spec.workload = w;
  spec.seed = seed;
  const bool large = w == Workload::kAnalytic;
  const Scale& s = large ? kLarge : kSmall;
  spec.db = BuildDatabase(s, seed);
  spec.threads = large ? 4 : 1;
  Rng rng(seed ^ 0x5eedbe7c4ull);
  spec.pool =
      BuildPool(large ? AnalyticTemplates() : InteractiveTemplates(), s, rng);
  const int n = static_cast<int>(spec.pool.size());
  WritePlanner writes(spec.db);
  if (w != Workload::kUpdate) {
    for (size_t i = 0; i < kProbeBatchesPerRelation * std::size(kWritable); ++i) {
      spec.writes.push_back(writes.Next(rng));
    }
  }
  if (large) {
    // Every heavy query once per round, rounds in a seeded order.
    std::vector<int> order(n);
    for (int i = 0; i < n; ++i) order[i] = i;
    for (int round = 0; round < 64; ++round) {
      for (int i = n - 1; i > 0; --i) std::swap(order[i], order[rng.Below(i + 1)]);
      for (int i : order) spec.script.push_back({false, i});
    }
    return spec;
  }
  // Skewed repeats: 70% of reads go to a hot set holding the first
  // instance of every family (so the hot mix is the same for every seed),
  // the rest spread uniformly over the whole pool.
  std::vector<int> hot;
  for (int i = 0; i < n; ++i) {
    if (i == 0 || spec.pool[i].family != spec.pool[i - 1].family) {
      hot.push_back(i);
    }
  }
  const auto draw = [&]() {
    return rng.Chance(0.7) ? hot[rng.Below(hot.size())]
                           : static_cast<int>(rng.Below(n));
  };
  if (w == Workload::kInteractive) {
    for (int i = 0; i < kScriptOps; ++i) spec.script.push_back({false, draw()});
    return spec;
  }
  // update: a write batch after every kReadsPerWrite reads. The script is
  // replayed from the generated database, so each batch is planned against
  // that state plus the earlier batches of the script.
  for (int i = 0; i < kUpdateScriptOps; ++i) {
    if (i % (kReadsPerWrite + 1) == kReadsPerWrite) {
      spec.writes.push_back(writes.Next(rng));
      spec.script.push_back({true, static_cast<int>(spec.writes.size()) - 1});
    } else {
      spec.script.push_back({false, draw()});
    }
  }
  return spec;
}

uint64_t DatabaseDigest(const Database& db) {
  uint64_t h = 0;
  for (size_t i = 0; i < db.relation_count(); ++i) {
    const RelId id = static_cast<RelId>(i);
    const Digest d = DigestOf(db.relation(id));
    uint64_t name = 1469598103934665603ull;
    for (char c : db.relation_name(id)) {
      name = (name ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    }
    h = h * 31 + (name ^ d.hash ^ (d.rows << 32));
  }
  return h;
}

}  // namespace pqbench
