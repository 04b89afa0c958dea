#include "core/engine.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <variant>

#include "common/timer.hpp"
#include "core/explain.hpp"
#include "eval/acyclic.hpp"
#include "eval/counting.hpp"
#include "eval/naive.hpp"
#include "query/parser.hpp"
#include "relational/storage_cache_stats.hpp"

namespace paraquery {

namespace {

// A query text parsed by its syntax: rule syntax with ":-", formula syntax
// with ":=", two or more rules (or a @goal directive) = a Datalog program.
using ParsedText =
    std::variant<ConjunctiveQuery, FirstOrderQuery, DatalogProgram>;

Result<ParsedText> ParseText(const std::string& text, Dictionary* dict) {
  if (text.find(":=") != std::string::npos) {
    PQ_ASSIGN_OR_RETURN(FirstOrderQuery q, ParseFirstOrder(text, dict));
    return ParsedText(std::move(q));
  }
  size_t arrows = 0;
  for (size_t pos = 0; (pos = text.find(":-", pos)) != std::string::npos;
       pos += 2) {
    ++arrows;
  }
  if (arrows >= 2 || text.find("@goal") != std::string::npos) {
    PQ_ASSIGN_OR_RETURN(DatalogProgram p, ParseDatalog(text, dict));
    return ParsedText(std::move(p));
  }
  PQ_ASSIGN_OR_RETURN(ConjunctiveQuery q, ParseConjunctive(text, dict));
  return ParsedText(std::move(q));
}

// The empty answer in the query's answer shape: no rows, except the [0] row
// of a scalar COUNT(*) (a grouped count has its keys plus the count column).
Relation EmptyAnswer(const ConjunctiveQuery& q) {
  if (q.answer.kind == AnswerSpec::Kind::kCount) return Relation(1, {0});
  return Relation(q.head.size() + (q.answer.counting() ? 1 : 0));
}

}  // namespace

std::string EngineStats::ToString() const {
  std::ostringstream oss;
  char wall[64];
  std::snprintf(wall, sizeof(wall), "%.3f", wall_seconds * 1e3);
  oss << "query: wall_ms=" << wall;
  if (!abort_reason.empty()) oss << " abort=" << abort_reason;
  oss << "\n";
  if (*route.reason != '\0') {
    oss << "route: " << EngineChoiceName(route.engine) << ": " << route.reason
        << "\n";
  }
  oss << "plan: " << plan.ToString() << "\n";
  oss << "plan_cache: " << plan_cache.ToString() << "\n";
  if (ineq.family_size > 0) {
    oss << "ineq: k=" << ineq.k << " i1_atoms=" << ineq.i1_atoms
        << " i2_atoms=" << ineq.i2_atoms
        << " family_size=" << ineq.family_size
        << " family_kind=" << ineq.family_kind << " trials=" << ineq.trials
        << " certified=" << (ineq.certified ? "yes" : "no")
        << " peak_rows=" << ineq.peak_rows << "\n";
  }
  if (datalog.iterations > 0) {
    oss << "datalog: iterations=" << datalog.iterations
        << " derived_tuples=" << datalog.derived_tuples
        << " rule_firings=" << datalog.rule_firings
        << " skipped_firings=" << datalog.skipped_firings
        << "\n  edb_materializations=" << datalog.edb_materializations
        << " edb_cache_hits=" << datalog.edb_cache_hits
        << "\n  plans_built=" << datalog.plans_built
        << " plan_reuses=" << datalog.plan_reuses
        << " replans=" << datalog.replans << "\n";
  }
  if (ucq.disjuncts_expanded > 0) {
    oss << "ucq: disjuncts_expanded=" << ucq.disjuncts_expanded
        << " deduped=" << ucq.disjuncts_deduped
        << " evaluated=" << ucq.disjuncts_evaluated
        << " acyclic=" << ucq.acyclic_disjuncts
        << " naive=" << ucq.naive_disjuncts;
    if (ucq.ie_subsets > 0) {
      oss << " ie_subsets=" << ucq.ie_subsets
          << " ie_pruned=" << ucq.ie_pruned;
    }
    oss << "\n";
  }
  return oss.str();
}

Engine::Engine(const Database& db, EngineOptions options)
    : db_(&db), options_(std::move(options)) {
  m_.queries = &metrics_.counter("pq_queries_total", "queries run");
  m_.counting_queries = &metrics_.counter(
      "pq_counting_queries_total", "counting (COUNT head) queries run");
  m_.count_groups = &metrics_.histogram(
      "pq_counting_groups", "groups returned per grouped counting query");
  m_.latency_us = &metrics_.histogram("pq_query_latency_us",
                                      "end-to-end query wall time (us)");
  m_.peak_bytes = &metrics_.histogram(
      "pq_query_peak_bytes", "peak accounted bytes per hardened query");
  m_.aborts_cancelled =
      &metrics_.counter("pq_aborts_cancelled_total", "queries cancelled");
  m_.aborts_deadline = &metrics_.counter("pq_aborts_deadline_total",
                                         "queries past their deadline");
  m_.aborts_resource = &metrics_.counter(
      "pq_aborts_resource_exhausted_total",
      "queries over a row/step/memory budget");
  m_.rows_produced = &metrics_.counter("pq_operator_rows_total",
                                       "rows produced by plan operators");
  m_.morsels = &metrics_.counter("pq_morsels_total",
                                 "morsels processed by parallel operators");
  m_.plan_cache_hits =
      &metrics_.counter("pq_plan_cache_hits_total", "plan cache hits");
  m_.plan_cache_misses =
      &metrics_.counter("pq_plan_cache_misses_total", "plan cache misses");
  m_.plan_cache_stale = &metrics_.counter(
      "pq_plan_cache_stale_total", "plan cache entries dropped as stale");
  m_.plan_cache_evictions = &metrics_.counter("pq_plan_cache_evictions_total",
                                              "plan cache LRU evictions");
  m_.plan_cache_entries =
      &metrics_.gauge("pq_plan_cache_entries", "live plan cache entries");
  m_.sched_tasks =
      &metrics_.counter("pq_scheduler_tasks_total", "scheduler tasks run");
  m_.sched_steals =
      &metrics_.counter("pq_scheduler_steals_total", "work-stealing pops");
  m_.sched_idle_sleeps = &metrics_.counter("pq_scheduler_idle_sleeps_total",
                                           "worker parks on an empty pool");
  m_.sched_queue_depth = &metrics_.gauge("pq_scheduler_queue_depth",
                                         "tasks queued at last scrape");
  m_.trie_hits =
      &metrics_.counter("pq_trie_cache_hits_total", "trie view cache hits");
  m_.trie_builds =
      &metrics_.counter("pq_trie_cache_builds_total", "trie view builds");
  m_.set_hits = &metrics_.counter("pq_set_form_cache_hits_total",
                                  "set form (HashDedup) cache hits");
  m_.set_builds = &metrics_.counter("pq_set_form_cache_builds_total",
                                    "set form (HashDedup) hash passes");
  query_metrics_.operator_rows = &metrics_.histogram(
      "pq_operator_rows", "rows produced per executed plan operator");
}

EvalContext Engine::Context(QueryContext* qc) const {
  size_t want = options_.threads == 0 ? TaskScheduler::HardwareConcurrency()
                                      : options_.threads;
  // Sanity bound: an absurd width would die spawning real threads.
  want = std::min<size_t>(want, 1024);
  plan_cache_.set_capacity(options_.plan_cache_capacity);
  EvalContext ctx;
  ctx.limits = options_.limits;
  ctx.plan_cache = options_.use_plan_cache ? &plan_cache_ : nullptr;
  ctx.planner.wcoj = options_.wcoj;
  RuntimeOptions& runtime = ctx.runtime;
  runtime.query_ctx = qc;
  runtime.morsel_rows = options_.morsel_rows;
  runtime.metrics = &query_metrics_;
  runtime.analyze = analyze_;
  if (options_.trace) {
    if (tracer_ == nullptr) tracer_ = std::make_unique<Tracer>();
    runtime.tracer = tracer_.get();
  }
  if (want <= 1) {
    scheduler_.reset();  // back to sequential: drop the idle pool
    return ctx;
  }
  if (scheduler_ == nullptr || scheduler_->threads() != want) {
    scheduler_ = std::make_unique<TaskScheduler>(want);
  }
  runtime.scheduler = scheduler_.get();
  return ctx;
}

template <typename Evaluate>
Result<Relation> Engine::RunQuery(const char* kind, Evaluate&& evaluate) const {
  stats_ = EngineStats{};
  TraceSpan query_span(PrepareTracer(), "query", kind);
  Timer timer;
  // Hardening: arm the query context (deadline / memory budget /
  // cancellation token) and account every RowBlock allocated on this thread
  // — worker threads inherit the accountant through TaskGroup::Spawn. The
  // active-domain algebra polls the same context inside FoEval.
  QueryContext* qc = ArmQueryContext();
  ScopedMemoryAccounting accounting(qc != nullptr ? qc->memory() : nullptr);
  Result<Relation> result = evaluate(Context(qc));
  if (stats_.route.counting) {
    m_.counting_queries->Increment();
    // A grouped count has its group keys before the count column.
    if (result.ok() && result.value().arity() > 1) {
      m_.count_groups->Observe(result.value().size());
    }
  }
  // Every exit refreshes the cumulative cache counters, error paths
  // included — .stats must never show stale zeros for a cache that still
  // holds entries.
  stats_.plan_cache = plan_cache_.stats();
  FinishQuery(timer.Seconds(), result.status(), qc);
  return result;
}

Result<Relation> Engine::Run(const ConjunctiveQuery& q) const {
  return RunQuery("cq", [&](const EvalContext& ctx) -> Result<Relation> {
    PQ_RETURN_NOT_OK(q.Validate());
    stats_.route = DecideRoute(q, ctx.planner);
    const RouteDecision& route = stats_.route;
    const ConjunctiveQuery& e = route.query(q);
    if (route.inconsistent) return EmptyAnswer(q);
    if (route.counting) return CountingEvaluate(*db_, e, ctx, &stats_.plan);
    if (route.empty_body) {
      // No relational atoms: the head must be constant-only (safety).
      Relation out(e.head.size());
      ValueVec row;
      for (const Term& t : e.head) row.push_back(t.value());
      out.Add(row);
      return out;
    }
    switch (route.engine) {
      case EngineChoice::kAcyclic:
        return AcyclicEvaluate(*db_, e, ctx, &stats_.plan);
      case EngineChoice::kInequality:
        // Theorem 2 route: plan-routed too — one residual plan per query,
        // re-executed per coloring.
        return IneqEvaluate(*db_, e, ctx, options_.inequality, &stats_.ineq,
                            &stats_.plan);
      default:
        return NaiveEvaluateCq(*db_, e, ctx, &stats_.plan);
    }
  });
}

Result<Relation> Engine::Run(const PositiveQuery& q) const {
  return RunQuery("ucq", [&](const EvalContext& ctx) {
    stats_.route = DecideRoute(q);
    return stats_.route.counting
               ? EvaluatePositiveCount(*db_, q, ctx, options_.ucq, &stats_.ucq,
                                       &stats_.plan)
               : EvaluatePositive(*db_, q, ctx, options_.ucq, &stats_.ucq,
                                  &stats_.plan);
  });
}

Result<Relation> Engine::Run(const FirstOrderQuery& q) const {
  if (q.IsPositive()) {
    auto positive = PositiveQuery::FromFirstOrder(q);
    if (positive.ok()) return Run(positive.value());
  }
  return RunQuery("fo", [&](const EvalContext& ctx) -> Result<Relation> {
    stats_.route = DecideRoute(q);
    if (!stats_.route.counting) {
      return EvaluateFirstOrder(*db_, q, ctx, options_.fo);
    }
    // Active-domain counting: evaluate the formula once over the FULL
    // free-variable head (the distinct satisfying assignments), then group
    // by the head's group keys in memory — the algebra itself needs no
    // counting operators.
    PQ_RETURN_NOT_OK(q.Validate());
    const std::vector<VarId> free_vars = q.FreeVariables();
    FirstOrderQuery enum_q = q;
    enum_q.answer = AnswerSpec::Tuples();
    enum_q.head.clear();
    for (VarId v : free_vars) enum_q.head.push_back(Term::Var(v));
    PQ_ASSIGN_OR_RETURN(Relation rows,
                        EvaluateFirstOrder(*db_, enum_q, ctx, options_.fo));
    std::vector<int> gcols;
    for (const Term& t : q.head) {
      auto it = std::find(free_vars.begin(), free_vars.end(), t.var());
      gcols.push_back(static_cast<int>(it - free_vars.begin()));
    }
    return GroupCountRows(rows, gcols);
  });
}

Result<Relation> Engine::Run(const DatalogProgram& p) const {
  return RunQuery("datalog", [&](const EvalContext& ctx) {
    stats_.route = DecideRoute(p);
    return EvaluateDatalog(*db_, p, ctx, options_.datalog, &stats_.datalog,
                           &stats_.plan);
  });
}

Result<Relation> Engine::RunText(const std::string& text, Dictionary* dict) {
  PQ_ASSIGN_OR_RETURN(ParsedText parsed, ParseText(text, dict));
  return std::visit([this](const auto& q) { return Run(q); }, parsed);
}

Tracer* Engine::PrepareTracer() const {
  if (!options_.trace) return nullptr;
  if (tracer_ == nullptr) tracer_ = std::make_unique<Tracer>();
  tracer_->Clear();
  return tracer_.get();
}

void Engine::FinishQuery(double seconds, const Status& status,
                         const QueryContext* qc) const {
  stats_.wall_seconds = seconds;
  m_.queries->Increment();
  m_.latency_us->Observe(static_cast<uint64_t>(seconds * 1e6));
  switch (status.code()) {
    case StatusCode::kCancelled:
      stats_.abort_reason = "cancelled";
      m_.aborts_cancelled->Increment();
      break;
    case StatusCode::kDeadlineExceeded:
      stats_.abort_reason = "deadline_exceeded";
      m_.aborts_deadline->Increment();
      break;
    case StatusCode::kResourceExhausted:
      stats_.abort_reason = "resource_exhausted";
      m_.aborts_resource->Increment();
      break;
    default:
      break;
  }
  // memory() is null unless a byte budget was armed.
  if (qc != nullptr && qc->memory() != nullptr) {
    m_.peak_bytes->Observe(qc->memory()->peak());
  }
  m_.rows_produced->Add(stats_.plan.rows_produced);
  m_.morsels->Add(stats_.plan.morsels);
  // Scrapes of external monotonic sources (Counter::Set, not Add): the
  // plan cache, the scheduler, and the process-wide storage caches all
  // keep their own cumulative counters.
  const PlanCacheStats pc = plan_cache_.stats();
  m_.plan_cache_hits->Set(pc.hits);
  m_.plan_cache_misses->Set(pc.misses);
  m_.plan_cache_stale->Set(pc.stale_entries);
  m_.plan_cache_evictions->Set(pc.evictions);
  m_.plan_cache_entries->Set(static_cast<int64_t>(pc.entries));
  if (scheduler_ != nullptr) {
    const TaskScheduler::Counters& c = scheduler_->counters();
    m_.sched_tasks->Set(c.tasks_run.load(std::memory_order_relaxed));
    m_.sched_steals->Set(c.steals.load(std::memory_order_relaxed));
    m_.sched_idle_sleeps->Set(c.idle_sleeps.load(std::memory_order_relaxed));
    m_.sched_queue_depth->Set(
        static_cast<int64_t>(scheduler_->QueuedTokens()));
  }
  const StorageCacheStats& sc = GlobalStorageCacheStats();
  m_.trie_hits->Set(sc.trie_hits.load(std::memory_order_relaxed));
  m_.trie_builds->Set(sc.trie_builds.load(std::memory_order_relaxed));
  m_.set_hits->Set(sc.set_hits.load(std::memory_order_relaxed));
  m_.set_builds->Set(sc.set_builds.load(std::memory_order_relaxed));
}

QueryContext* Engine::ArmQueryContext() const {
  const uint64_t wall = options_.limits.max_wall_ms;
  const uint64_t bytes = options_.limits.max_bytes;
  if (options_.query_ctx != nullptr) {
    QueryContext* qc = options_.query_ctx;
    if (wall != 0) qc->ArmDeadline(wall);
    if (bytes != 0) qc->ArmMemory(bytes);
    return qc;  // caller controls cancellation; sticky until caller Reset()s
  }
  if (wall == 0 && bytes == 0) return nullptr;
  if (run_ctx_ == nullptr) run_ctx_ = std::make_unique<QueryContext>();
  run_ctx_->Reset();
  if (wall != 0) run_ctx_->ArmDeadline(wall);
  if (bytes != 0) run_ctx_->ArmMemory(bytes);
  return run_ctx_.get();
}

Result<std::string> Engine::ExplainText(const std::string& text,
                                        Dictionary* dict) {
  PQ_ASSIGN_OR_RETURN(ParsedText parsed, ParseText(text, dict));
  const PlannerOptions planner = Context(nullptr).planner;
  if (const auto* q = std::get_if<ConjunctiveQuery>(&parsed)) {
    return ExplainConjunctive(*q, db_, planner);
  }
  if (const auto* q = std::get_if<FirstOrderQuery>(&parsed)) {
    return ExplainFirstOrder(*q, db_, planner);
  }
  return ExplainDatalog(std::get<DatalogProgram>(parsed), db_);
}

Result<std::string> Engine::AnalyzeText(const std::string& text,
                                        Dictionary* dict) {
  PlanCapture capture;
  analyze_ = &capture;
  auto result = RunText(text, dict);
  analyze_ = nullptr;
  if (!result.ok()) return result.status();
  std::ostringstream oss;
  char wall[64], sort[64];
  std::snprintf(wall, sizeof(wall), "%.3f", stats_.wall_seconds * 1e3);
  std::snprintf(sort, sizeof(sort), "%.3f", capture.answer_sort_ns() * 1e-6);
  oss << "rows=" << result.value().size() << " wall_ms=" << wall
      << " sort_ms=" << sort << "\n";
  oss << "-- route: " << stats_.route.reason << "\n";
  if (capture.plan_count() == 0) {
    oss << "(no plan-routed execution: the query ran on the active-domain "
           "algebra, or produced its answer without executing a plan)\n";
  } else {
    oss << capture.Report();
  }
  return oss.str();
}

Result<std::string> Engine::PlanText(const std::string& text,
                                     Dictionary* dict) {
  PQ_ASSIGN_OR_RETURN(ParsedText parsed, ParseText(text, dict));
  const PlannerOptions planner = Context(nullptr).planner;
  if (const auto* q = std::get_if<ConjunctiveQuery>(&parsed)) {
    return RenderConjunctivePlan(*db_, *q, planner);
  }
  if (const auto* q = std::get_if<DatalogProgram>(&parsed)) {
    return RenderDatalogPlan(*db_, *q);
  }
  const FirstOrderQuery& fo = std::get<FirstOrderQuery>(parsed);
  if (!fo.IsPositive()) {
    return Status::InvalidArgument(
        "no physical plan: non-positive first-order queries run on the "
        "active-domain algebra");
  }
  PQ_ASSIGN_OR_RETURN(PositiveQuery pq, PositiveQuery::FromFirstOrder(fo));
  return RenderPositivePlan(*db_, pq, planner);
}

}  // namespace paraquery
