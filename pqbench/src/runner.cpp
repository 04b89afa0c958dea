#include "runner.hpp"

#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "common/timer.hpp"
#include "hypergraph/gyo.hpp"
#include "hypergraph/hypertree.hpp"
#include "hypergraph/join_tree.hpp"
#include "oracle.hpp"
#include "plan/planner.hpp"
#include "query/comparison_closure.hpp"
#include "query/parser.hpp"
#include "relational/storage_cache_stats.hpp"
#include "spans.hpp"

namespace pqbench {

using paraquery::Database;
using paraquery::Engine;
using paraquery::EngineChoice;
using paraquery::EngineOptions;
using paraquery::Relation;
using paraquery::Result;
using paraquery::Status;
using paraquery::Timer;

namespace {

constexpr EngineChoice kRoutes[] = {
    EngineChoice::kAcyclic, EngineChoice::kInequality, EngineChoice::kNaive,
    EngineChoice::kUcq,     EngineChoice::kFo,         EngineChoice::kDatalog,
    EngineChoice::kCounting};

const char* RouteName(EngineChoice e) {
  switch (e) {
    case EngineChoice::kAcyclic:
      return "acyclic";
    case EngineChoice::kInequality:
      return "inequality";
    case EngineChoice::kNaive:
      return "naive";
    case EngineChoice::kUcq:
      return "ucq";
    case EngineChoice::kFo:
      return "fo";
    case EngineChoice::kDatalog:
      return "datalog";
    case EngineChoice::kCounting:
      return "counting";
  }
  return "?";
}

// Operator kinds of the executed plans, as EXPLAIN ANALYZE names them.
const char* const kPlanOps[] = {"Scan",         "Select",    "Project",
                                "Dedup",        "Semijoin",  "HashJoin",
                                "MultiwayJoin", "Aggregate", "SemijoinCount",
                                "Materialize"};

// Write batches timed after the read loop of a workload without writes.
constexpr int kProbeWrites = 1000;
// Failed reads described in the report.
constexpr int kReportedFailures = 5;

std::string Fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// A set-up workload: its spec, the engine bound to spec->db, and a copy of
// the generated database that `update` restores at every script wrap.
struct Session {
  std::unique_ptr<WorkloadSpec> spec;
  std::unique_ptr<Engine> engine;
  Database pristine;
};

// One set-up as setup_s times it: generate and load the database, build
// the engine, one warm-up pass over the distinct queries.
double SetUp(const RunConfig& config, Session* s) {
  s->engine.reset();
  s->spec.reset();
  Timer timer;
  s->spec = std::make_unique<WorkloadSpec>(
      BuildWorkload(config.workload, config.seed));
  EngineOptions options;
  options.threads = s->spec->threads;
  options.use_plan_cache = true;
  if (!config.ablate.empty()) (void)ApplyAblation(config.ablate, &options);
  s->engine = std::make_unique<Engine>(s->spec->db, options);
  for (const QuerySpec& q : s->spec->pool) (void)s->engine->RunText(q.text);
  const double seconds = timer.Seconds();
  s->pristine = s->spec->db;
  return seconds;
}

// What the timed loop saw.
struct LoopStats {
  std::vector<double> read_ms;
  std::vector<double> write_ms;
  uint64_t failed = 0;
  double wall_s = 0;
  std::map<EngineChoice, uint64_t> route_reads;
  std::map<std::string, std::vector<double>> family_ms;
  std::vector<std::string> failures;
};

void NoteFailure(const QuerySpec& q, const std::string& why, LoopStats* out) {
  ++out->failed;
  if (static_cast<int>(out->failures.size()) < kReportedFailures) {
    out->failures.push_back(q.family + " [" + q.text + "]: " + why);
  }
}

void CheckAnswer(const QuerySpec& q, const Result<Relation>& r,
                 const Digest& expected, LoopStats* out) {
  if (!r.ok()) {
    NoteFailure(q, r.status().ToString(), out);
  } else if (expected == kNoExpectation) {
    NoteFailure(q, "no expected answer (oracle failed)", out);
  } else if (DigestOf(r.value()) != expected) {
    NoteFailure(q,
                "wrong answer (" + std::to_string(r.value().size()) +
                    " rows, expected " + std::to_string(expected.rows) + ")",
                out);
  }
}

// Moves the calling thread over the CPUs the process may use, one slice
// of kCpuSliceMs on each. On a shared host each CPU can slow down and
// recover on its own, for seconds at a time, so a one-client loop left on
// one CPU reads that CPU's state; rotating makes every run sample all
// CPUs alike. Only for a one-thread engine: a thread pool started while
// the caller is pinned would inherit the pin. Restores the thread's CPU
// set on destruction.
class CpuRotation {
 public:
  explicit CpuRotation(bool enabled) {
    if (!enabled || sched_getaffinity(0, sizeof(allowed_), &allowed_) != 0) {
      return;
    }
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed_)) cpus_.push_back(cpu);
    }
    if (cpus_.size() < 2) {
      cpus_.clear();
    } else {
      Pin();
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(allowed_), &allowed_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void Tick() {
    if (cpus_.empty() || slice_.Millis() < kCpuSliceMs) return;
    next_ = (next_ + 1) % cpus_.size();
    Pin();
  }

 private:
  static constexpr double kCpuSliceMs = 20;

  void Pin() {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_], &one);
    sched_setaffinity(0, sizeof(one), &one);
    slice_.Reset();
  }

  cpu_set_t allowed_{};
  std::vector<int> cpus_;
  size_t next_ = 0;
  Timer slice_;
};

// Advances the script cursor; `update` restores the generated database
// when the script wraps, so every position keeps its expected answer.
void Advance(Session* s, size_t* pos) {
  if (++*pos < s->spec->script.size()) return;
  *pos = 0;
  if (s->spec->workload == Workload::kUpdate) s->spec->db = s->pristine;
}

void UntracedLoop(Session* s, const std::vector<Digest>& expected,
                  double seconds, LoopStats* out) {
  WorkloadSpec& spec = *s->spec;
  CpuRotation rotation(s->engine->options().threads == 1);
  Timer wall;
  for (size_t pos = 0; wall.Seconds() < seconds;
       Advance(s, &pos), rotation.Tick()) {
    const Op& op = spec.script[pos];
    if (op.write) {
      Timer t;
      ApplyWrite(&spec.db, spec.writes[op.index]);
      out->write_ms.push_back(t.Millis());
      continue;
    }
    const QuerySpec& q = spec.pool[op.index];
    Timer t;
    Result<Relation> r = s->engine->RunText(q.text);
    out->read_ms.push_back(t.Millis());
    out->family_ms[q.family].push_back(out->read_ms.back());
    ++out->route_reads[q.route];
    CheckAnswer(q, r, expected[pos], out);
  }
  out->wall_s = wall.Seconds();
}

// Workloads without writes time their write batches here, after the reads:
// each batch lands on the generated database (restored before each one),
// whose storage the engine's caches share, like a write in `update`.
void ProbeWrites(Session* s, LoopStats* out, SpanLog* log = nullptr) {
  for (int i = 0; i < kProbeWrites; ++i) {
    s->spec->db = s->pristine;
    Timer t;
    {
      std::optional<SpanLog::Scope> span;
      if (log != nullptr) span.emplace(log, "relational.write");
      ApplyWrite(&s->spec->db, s->spec->writes[i % s->spec->writes.size()]);
    }
    out->write_ms.push_back(t.Millis());
  }
  s->spec->db = s->pristine;
}

// ---------------------------------------------------------------------------
// Traced run
// ---------------------------------------------------------------------------

// Engine counters read just before and after the route call, so the layer
// calls the benchmark makes around it do not leak into the deltas.
struct Counters {
  paraquery::PlanCacheStats cache;
  uint64_t trie_hits = 0, trie_builds = 0;
  uint64_t columnar_hits = 0, columnar_builds = 0;
  uint64_t tasks = 0, steals = 0, idle_sleeps = 0;
};

Counters ReadCounters(const Engine& engine) {
  Counters c;
  c.cache = engine.plan_cache().stats();
  const paraquery::StorageCacheStats& g = paraquery::GlobalStorageCacheStats();
  c.trie_hits = g.trie_hits.load();
  c.trie_builds = g.trie_builds.load();
  c.columnar_hits = g.columnar_hits.load();
  c.columnar_builds = g.columnar_builds.load();
  paraquery::MetricsRegistry& m = engine.metrics();
  c.tasks = m.counter("pq_scheduler_tasks_total").value();
  c.steals = m.counter("pq_scheduler_steals_total").value();
  c.idle_sleeps = m.counter("pq_scheduler_idle_sleeps_total").value();
  return c;
}

struct LayerTotals {
  uint64_t reads = 0, writes = 0;
  uint64_t rows_produced = 0, peak_intermediate = 0;
  uint64_t cache_hits = 0, cache_misses = 0, cache_stale = 0,
           cache_evictions = 0;
  uint64_t index_hits = 0, index_builds = 0;
  uint64_t trie_hits = 0, trie_builds = 0;
  uint64_t columnar_hits = 0, columnar_builds = 0;
  uint64_t tasks = 0, steals = 0, idle_sleeps = 0, morsels = 0,
           vec_batches = 0;
  uint64_t datalog_ops = 0, datalog_iterations = 0, firings = 0,
           skipped_firings = 0;
  uint64_t ie_subsets = 0, ie_pruned = 0;
  uint64_t ineq_ops = 0, colorings = 0, family = 0;
  std::map<std::string, double> op_self_ms;
};

void AddDeltas(const Counters& a, const Counters& b, const Engine& engine,
               EngineChoice route, LayerTotals* t) {
  t->cache_hits += b.cache.hits - a.cache.hits;
  t->cache_misses += b.cache.misses - a.cache.misses;
  t->cache_stale += b.cache.stale_entries - a.cache.stale_entries;
  t->cache_evictions += b.cache.evictions - a.cache.evictions;
  t->trie_hits += b.trie_hits - a.trie_hits;
  t->trie_builds += b.trie_builds - a.trie_builds;
  t->columnar_hits += b.columnar_hits - a.columnar_hits;
  t->columnar_builds += b.columnar_builds - a.columnar_builds;
  t->tasks += b.tasks - a.tasks;
  t->steals += b.steals - a.steals;
  t->idle_sleeps += b.idle_sleeps - a.idle_sleeps;
  const paraquery::EngineStats& st = engine.last_stats();
  t->rows_produced += st.plan.rows_produced;
  t->peak_intermediate =
      std::max<uint64_t>(t->peak_intermediate, st.plan.peak_intermediate_rows);
  t->index_hits += st.plan.index_hits;
  t->index_builds += st.plan.index_builds;
  t->morsels += st.plan.morsels;
  t->vec_batches += st.plan.vec_batches;
  if (route == EngineChoice::kDatalog) {
    ++t->datalog_ops;
    t->datalog_iterations += st.datalog.iterations;
    t->firings += st.datalog.rule_firings;
    t->skipped_firings += st.datalog.skipped_firings;
  }
  t->ie_subsets += st.ucq.ie_subsets;
  t->ie_pruned += st.ucq.ie_pruned;
  if (route == EngineChoice::kInequality) {
    ++t->ineq_ops;
    t->colorings += st.ineq.trials;
    t->family += st.ineq.family_size;
  }
}

// Sums the per-operator self times of an EXPLAIN ANALYZE report. A plan
// executed N times (Datalog rule plans) shows its latest execution, so its
// self times count N times.
void AddOperatorSelfTimes(const std::string& report,
                          std::map<std::string, double>* out) {
  std::istringstream in(report);
  std::string line;
  double executions = 1;
  while (std::getline(in, line)) {
    if (line.rfind("-- plan", 0) == 0) {
      const size_t at = line.find("executions=");
      executions = at == std::string::npos
                       ? 1
                       : std::strtod(line.c_str() + at + 11, nullptr);
      continue;
    }
    const size_t begin = line.find_first_not_of(' ');
    const size_t paren = line.find('(');
    const size_t self = line.find(" self=");
    if (begin == std::string::npos || paren == std::string::npos ||
        self == std::string::npos || paren < begin) {
      continue;
    }
    (*out)[line.substr(begin, paren - begin)] +=
        std::strtod(line.c_str() + self + 6, nullptr) * executions;
  }
}

// The layer calls of one conjunctive read; returns the route's answer.
Result<Relation> TracedRule(const QuerySpec& q, Session* s, SpanLog* log,
                            paraquery::TaskScheduler* scheduler,
                            LayerTotals* totals) {
  Result<paraquery::ConjunctiveQuery> parsed = Status::Internal("unparsed");
  {
    SpanLog::Scope span(log, "query.parse");
    parsed = paraquery::ParseConjunctive(q.text);
  }
  if (!parsed.ok()) return parsed.status();
  const paraquery::ConjunctiveQuery& cq = parsed.value();
  // The engine's closure step: collapse < / ≤ (and =) before routing.
  paraquery::ComparisonClosure closure;
  const paraquery::ConjunctiveQuery* effective = &cq;
  bool consistent = true;
  if (cq.HasComparisons() && !cq.HasOnlyInequalities()) {
    SpanLog::Scope span(log, "query.closure");
    auto collapsed = paraquery::CollapseComparisons(cq);
    if (collapsed.ok()) {
      closure = std::move(collapsed).value();
      consistent = closure.consistent;
      if (consistent) effective = &closure.rewritten;
      if (cq.answer.counting() && !effective->Validate().ok()) effective = &cq;
    }
  }
  EngineChoice route;
  {
    SpanLog::Scope span(log, "core.classify");
    route = paraquery::ClassifyConjunctive(cq).engine;
  }
  if (consistent && !effective->body.empty()) {
    SpanLog::Scope span(log, "hypergraph.decompose");
    const paraquery::Hypergraph h = effective->BuildHypergraph();
    if (paraquery::IsAcyclic(h)) {
      (void)paraquery::GyoReduce(h);
      (void)paraquery::BuildJoinTree(h);
    } else {
      (void)paraquery::BuildHypertreeDecomposition(h);
    }
  }
  const EngineOptions& options = s->engine->options();
  if (consistent && !effective->body.empty() &&
      route != EngineChoice::kInequality) {
    paraquery::PlannerOptions popts;
    popts.vectorize = options.vectorize;
    popts.wcoj = options.wcoj;
    Result<paraquery::PhysicalPlan> plan = Status::Internal("unplanned");
    {
      SpanLog::Scope span(log, "plan.plan");
      plan = cq.answer.counting()
                 ? paraquery::PlanCountingCq(s->spec->db, *effective, popts)
                 : paraquery::PlanConjunctive(s->spec->db, *effective, popts);
    }
    if (plan.ok()) {
      SpanLog::Scope span(log, "plan.execute");
      paraquery::RuntimeOptions runtime;
      runtime.scheduler = scheduler;
      runtime.vec_min_source_rows = options.vec_min_source_rows;
      (void)paraquery::ExecutePhysicalPlan(plan.value(), options.limits,
                                           nullptr, runtime);
    }
  }
  const Counters before = ReadCounters(*s->engine);
  Result<Relation> answer = Status::Internal("not run");
  {
    SpanLog::Scope span(log, "core.route", RouteName(route));
    answer = s->engine->Run(cq);
  }
  AddDeltas(before, ReadCounters(*s->engine), *s->engine, route, totals);
  return answer;
}

Result<Relation> TracedFormula(const QuerySpec& q, Session* s, SpanLog* log,
                               LayerTotals* totals) {
  Result<paraquery::FirstOrderQuery> parsed = Status::Internal("unparsed");
  Result<paraquery::PositiveQuery> positive = Status::Internal("not positive");
  {
    SpanLog::Scope span(log, "query.parse");
    parsed = paraquery::ParseFirstOrder(q.text);
    if (parsed.ok() && parsed.value().IsPositive()) {
      positive = paraquery::PositiveQuery::FromFirstOrder(parsed.value());
    }
  }
  if (!parsed.ok()) return parsed.status();
  EngineChoice route;
  {
    SpanLog::Scope span(log, "core.classify");
    route = positive.ok() ? paraquery::ClassifyPositive(positive.value()).engine
                          : paraquery::ClassifyFirstOrder(parsed.value()).engine;
  }
  const Counters before = ReadCounters(*s->engine);
  Result<Relation> answer = Status::Internal("not run");
  {
    SpanLog::Scope span(log, "core.route", RouteName(route));
    answer = positive.ok() ? s->engine->Run(positive.value())
                           : s->engine->Run(parsed.value());
  }
  AddDeltas(before, ReadCounters(*s->engine), *s->engine, route, totals);
  return answer;
}

Result<Relation> TracedDatalog(const QuerySpec& q, Session* s, SpanLog* log,
                               LayerTotals* totals) {
  Result<paraquery::DatalogProgram> parsed = Status::Internal("unparsed");
  {
    SpanLog::Scope span(log, "query.parse");
    parsed = paraquery::ParseDatalog(q.text);
  }
  if (!parsed.ok()) return parsed.status();
  EngineChoice route;
  {
    SpanLog::Scope span(log, "core.classify");
    route = paraquery::ClassifyDatalog(parsed.value()).engine;
  }
  const Counters before = ReadCounters(*s->engine);
  Result<Relation> answer = Status::Internal("not run");
  {
    SpanLog::Scope span(log, "core.route", RouteName(route));
    answer = s->engine->Run(parsed.value());
  }
  AddDeltas(before, ReadCounters(*s->engine), *s->engine, route, totals);
  return answer;
}

void TracedLoop(Session* s, const std::vector<Digest>& expected,
                double seconds, SpanLog* log, LoopStats* out,
                LayerTotals* totals) {
  WorkloadSpec& spec = *s->spec;
  // Standalone plan executions run at the workload's width too.
  std::unique_ptr<paraquery::TaskScheduler> scheduler;
  if (s->engine->options().threads > 1) {
    scheduler = std::make_unique<paraquery::TaskScheduler>(
        s->engine->options().threads);
  }
  CpuRotation rotation(s->engine->options().threads == 1);
  Timer wall;
  uint64_t op_id = 0;
  for (size_t pos = 0; wall.Seconds() < seconds;
       Advance(s, &pos), rotation.Tick()) {
    const Op& op = spec.script[pos];
    log->BeginOp(op_id++);
    if (op.write) {
      SpanLog::Scope span(log, "op", "write");
      {
        SpanLog::Scope write(log, "relational.write");
        ApplyWrite(&spec.db, spec.writes[op.index]);
      }
      ++totals->writes;
      continue;
    }
    const QuerySpec& q = spec.pool[op.index];
    SpanLog::Scope span(log, "op", q.family);
    Result<Relation> answer = Status::Internal("unknown kind");
    switch (q.kind) {
      case TextKind::kRule:
        answer = TracedRule(q, s, log, scheduler.get(), totals);
        break;
      case TextKind::kFormula:
        answer = TracedFormula(q, s, log, totals);
        break;
      case TextKind::kDatalog:
        answer = TracedDatalog(q, s, log, totals);
        break;
    }
    {
      SpanLog::Scope analyze(log, "obs.analyze");
      Result<std::string> report = s->engine->AnalyzeText(q.text);
      if (report.ok()) AddOperatorSelfTimes(report.value(), &totals->op_self_ms);
    }
    ++totals->reads;
    ++out->route_reads[q.route];
    CheckAnswer(q, answer, expected[pos], out);
  }
  out->wall_s = wall.Seconds();
}

std::vector<Metric> PerLayerMetrics(const SpanLog& log, const LayerTotals& t,
                                    double untraced_ops_per_s,
                                    double traced_ops_per_s) {
  const auto p50 = [&](const char* name, double scale) {
    return Percentile(log.Durations(name, scale), 50);
  };
  const double reads = static_cast<double>(t.reads);
  std::vector<Metric> m = {
      {"query.parse_us_p50", p50("query.parse", 1e-3), "us"},
      {"query.closure_us_p50", p50("query.closure", 1e-3), "us"},
      {"core.classify_us_p50", p50("core.classify", 1e-3), "us"},
  };
  for (EngineChoice route : kRoutes) {
    const std::string name = RouteName(route);
    m.push_back({"core.route." + name + ".p50_ms",
                 Percentile(log.Durations("core.route", 1e-6, &name), 50),
                 "ms"});
  }
  m.push_back({"hypergraph.decompose_us_p50", p50("hypergraph.decompose", 1e-3),
               "us"});
  m.push_back({"plan.plan_us_p50", p50("plan.plan", 1e-3), "us"});
  m.push_back({"plan.execute_ms_p50", p50("plan.execute", 1e-6), "ms"});
  for (const char* op : kPlanOps) {
    auto it = t.op_self_ms.find(op);
    m.push_back({std::string("plan.op.") + op + ".self_ms",
                 it == t.op_self_ms.end() ? 0 : Ratio(it->second, reads),
                 "ms/op"});
  }
  m.push_back({"plan.rows_produced", Ratio(t.rows_produced, reads), "rows/op"});
  m.push_back({"plan.peak_intermediate_rows",
               static_cast<double>(t.peak_intermediate), "rows"});
  m.push_back({"plan_cache.hit_ratio",
               Ratio(t.cache_hits, t.cache_hits + t.cache_misses), "ratio"});
  m.push_back({"plan_cache.stale_per_write", Ratio(t.cache_stale, t.writes),
               "count/write"});
  m.push_back({"plan_cache.evictions", static_cast<double>(t.cache_evictions),
               "count"});
  m.push_back({"relational.write_us_p50", p50("relational.write", 1e-3), "us"});
  m.push_back({"relational.write_us_p90",
               Percentile(log.Durations("relational.write", 1e-3), 90), "us"});
  m.push_back({"relational.index_hit_ratio",
               Ratio(t.index_hits, t.index_hits + t.index_builds), "ratio"});
  m.push_back({"relational.trie_hit_ratio",
               Ratio(t.trie_hits, t.trie_hits + t.trie_builds), "ratio"});
  m.push_back({"relational.columnar_hit_ratio",
               Ratio(t.columnar_hits, t.columnar_hits + t.columnar_builds),
               "ratio"});
  m.push_back({"runtime.tasks", Ratio(t.tasks, reads), "count/op"});
  m.push_back({"runtime.steals", Ratio(t.steals, reads), "count/op"});
  m.push_back({"runtime.idle_sleeps", Ratio(t.idle_sleeps, reads), "count/op"});
  m.push_back({"runtime.morsels", Ratio(t.morsels, reads), "count/op"});
  m.push_back({"runtime.vec_batches", Ratio(t.vec_batches, reads), "count/op"});
  m.push_back({"eval.datalog.iterations",
               Ratio(t.datalog_iterations, t.datalog_ops), "count/op"});
  m.push_back({"eval.datalog.useful_firing_ratio",
               Ratio(t.firings, t.firings + t.skipped_firings), "ratio"});
  m.push_back({"eval.ucq.ie_pruned_ratio",
               Ratio(t.ie_pruned, t.ie_subsets + t.ie_pruned), "ratio"});
  m.push_back({"hashing.colorings_run", Ratio(t.colorings, t.ineq_ops),
               "count/op"});
  m.push_back({"hashing.colorings_per_family", Ratio(t.colorings, t.family),
               "ratio"});
  m.push_back({"obs.trace_overhead_frac",
               1 - Ratio(traced_ops_per_s, untraced_ops_per_s), "ratio"});
  return m;
}

void DescribeWorkload(const WorkloadSpec& spec, std::ostringstream& out) {
  out << "workload=" << WorkloadName(spec.workload) << " seed=" << spec.seed
      << " threads=" << spec.threads << " client=closed-loop x1"
      << " stored_tuples=" << spec.db.TotalTuples() << " db_digest="
      << spec.db.relation_count() << ":" << DatabaseDigest(spec.db)
      << " distinct_queries=" << spec.pool.size()
      << " script_ops=" << spec.script.size()
      << " write_batches=" << spec.writes.size() << "\n";
  // One line per query family: route and complexity of its first instance.
  for (size_t i = 0; i < spec.pool.size(); ++i) {
    const QuerySpec& q = spec.pool[i];
    if (i > 0 && spec.pool[i - 1].family == q.family) continue;
    const Complexity& c = q.complexity;
    size_t instances = 0;
    for (const QuerySpec& other : spec.pool) instances += other.family == q.family;
    out << "  family=" << q.family << " route=" << RouteName(q.route)
        << " instances=" << instances << " score=" << c.Score()
        << " atoms=" << c.atoms << " ghd_width=" << c.ghd_width
        << " neq=" << c.neq << " order=" << c.order
        << " disjuncts=" << c.disjuncts
        << " recursion=" << c.recursion_depth
        << " negation=" << (c.negation ? 1 : 0)
        << " answer=" << c.answer_shape << "\n";
  }
}

void DescribeRoutes(const WorkloadSpec& spec, const LoopStats& loop,
                    std::ostringstream& out) {
  out << "routes (distinct queries / reads in the loop):";
  for (EngineChoice route : kRoutes) {
    size_t distinct = 0;
    for (const QuerySpec& q : spec.pool) distinct += q.route == route;
    auto it = loop.route_reads.find(route);
    out << " " << RouteName(route) << "=" << distinct << "/"
        << (it == loop.route_reads.end() ? 0 : it->second);
  }
  out << "\n";
  if (!loop.family_ms.empty()) {
    out << "read p50_ms by family:";
    for (const auto& [family, ms] : loop.family_ms) {
      out << " " << family << "=" << Fmt(Percentile(ms, 50));
    }
    out << "\n";
  }
  for (const std::string& f : loop.failures) out << "FAILED " << f << "\n";
}

}  // namespace

Status ApplyAblation(const std::string& name, EngineOptions* options) {
  if (name == "vectorize") {
    options->vectorize = false;
  } else if (name == "wcoj") {
    options->wcoj = false;
  } else if (name == "use_plan_cache") {
    options->use_plan_cache = false;
  } else if (name == "threads") {
    options->threads = 1;
  } else {
    return Status::InvalidArgument("unknown ablation '" + name +
                                   "' (vectorize|wcoj|use_plan_cache|threads)");
  }
  return Status::OK();
}

const std::vector<std::string>& EndToEndMetricNames() {
  static const std::vector<std::string> names = {
      "setup_s", "latency_p50_ms", "latency_p90_ms", "ops_per_s",
      "peak_rss_mb"};
  return names;
}

const std::vector<std::string>& PerLayerMetricNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const Metric& m : PerLayerMetrics(SpanLog(), LayerTotals(), 0, 0)) {
      out.push_back(m.name);
    }
    return out;
  }();
  return names;
}

Result<RunResult> RunWorkload(const RunConfig& config) {
  if (!config.ablate.empty()) {
    EngineOptions probe;
    PQ_RETURN_NOT_OK(ApplyAblation(config.ablate, &probe));
  }
  std::vector<Digest> expected;
  std::ostringstream report;
  {
    // Expected answers first, outside every timed window and set-up.
    Timer timer;
    WorkloadSpec spec = BuildWorkload(config.workload, config.seed);
    PQ_ASSIGN_OR_RETURN(expected, ExpectedDigestsIsolated(spec));
    DescribeWorkload(spec, report);
    report << "expected answers computed in " << Fmt(timer.Seconds())
           << " s\n";
  }
  if (config.corrupt_position >= 0 &&
      static_cast<size_t>(config.corrupt_position) < expected.size()) {
    expected[config.corrupt_position].hash ^= 1;
  }

  Session session;
  std::vector<double> setup_s;
  for (int i = 0; i < std::max(1, config.setups); ++i) {
    setup_s.push_back(SetUp(config, &session));
  }

  RunResult result;
  LoopStats loop;
  if (!config.trace) {
    UntracedLoop(&session, expected, config.seconds, &loop);
    const bool has_writes = config.workload == Workload::kUpdate;
    const double loop_ops = static_cast<double>(loop.read_ms.size() +
                                                loop.write_ms.size());
    if (!has_writes) ProbeWrites(&session, &loop);
    result.attempted = loop.read_ms.size() + loop.write_ms.size();
    result.failed = loop.failed;
    result.metrics = {
        {"setup_s", Percentile(setup_s, 50), "s"},
        {"latency_p50_ms", Percentile(loop.read_ms, 50), "ms"},
        {"latency_p90_ms", Percentile(loop.read_ms, 90), "ms"},
        {"ops_per_s", Ratio(loop_ops, loop.wall_s), "1/s"},
        {"peak_rss_mb", PeakRssMb(), "MiB"},
    };
    DescribeRoutes(*session.spec, loop, report);
    report << "setups=" << setup_s.size() << " reads=" << loop.read_ms.size()
           << " writes=" << loop.write_ms.size()
           << (has_writes ? "" : " (write probe after the read loop)")
           << " loop_wall_s=" << Fmt(loop.wall_s) << "\n";
    report << "failed_frac=" << Fmt(Ratio(result.failed, result.attempted))
           << " (" << result.failed << " of " << result.attempted << ")\n";
    // Reported, not gated: microsecond write times spread more between
    // runs than any bound the result format allows.
    report << "write_p50_ms=" << Fmt(Percentile(loop.write_ms, 50))
           << " write_p90_ms=" << Fmt(Percentile(loop.write_ms, 90))
           << " (n=" << loop.write_ms.size() << ")\n";
  } else {
    // Untraced and traced halves on one engine: their ops/s ratio is the
    // tracing overhead. The traced half restarts the script from the
    // generated database.
    LoopStats plain;
    UntracedLoop(&session, expected, config.seconds / 2, &plain);
    if (config.workload == Workload::kUpdate) {
      session.spec->db = session.pristine;
    }
    SpanLog log;
    LayerTotals totals;
    TracedLoop(&session, expected, config.seconds / 2, &log, &loop, &totals);
    if (config.workload != Workload::kUpdate) {
      LoopStats probe;
      ProbeWrites(&session, &probe, &log);
    }
    const double plain_ops = Ratio(
        static_cast<double>(plain.read_ms.size() + plain.write_ms.size()),
        plain.wall_s);
    const double traced_ops =
        Ratio(static_cast<double>(totals.reads + totals.writes), loop.wall_s);
    result.attempted = plain.read_ms.size() + plain.write_ms.size() +
                       totals.reads + totals.writes;
    result.failed = plain.failed + loop.failed;
    result.metrics = PerLayerMetrics(log, totals, plain_ops, traced_ops);
    result.spans_json = log.ChromeJson();
    for (const std::string& f : plain.failures) loop.failures.push_back(f);
    DescribeRoutes(*session.spec, loop, report);
    report << "traced reads=" << totals.reads << " writes=" << totals.writes
           << " spans=" << log.spans().size() << "\n";
  }
  for (const Metric& m : result.metrics) {
    report << m.name << "=" << Fmt(m.value) << " " << m.unit << "\n";
  }
  result.report = report.str();
  return result;
}

}  // namespace pqbench
