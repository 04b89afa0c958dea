// The ParaQuery engine facade: parse -> classify -> plan -> execute.
//
// Routing policy (the operational content of the paper): every Run takes
// the one RouteDecision of DecideRoute (plan/route.hpp) and records it in
// EngineStats::route.
//
// Every plan-routed query runs through the shared executor in src/plan/;
// EngineStats::plan carries its counters for the most recent call.
#ifndef PARAQUERY_CORE_ENGINE_H_
#define PARAQUERY_CORE_ENGINE_H_

#include <memory>
#include <string>

#include "common/query_context.hpp"
#include "core/classifier.hpp"
#include "obs/analyze.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "eval/context.hpp"
#include "eval/datalog_eval.hpp"
#include "eval/fo.hpp"
#include "eval/inequality.hpp"
#include "eval/ucq.hpp"
#include "plan/plan.hpp"
#include "plan/plan_cache.hpp"
#include "relational/database.hpp"
#include "runtime/scheduler.hpp"

namespace paraquery {

/// Engine-wide options. Each Run turns the shared ones into one EvalContext
/// (eval/context.hpp) that every evaluator receives unchanged; the
/// per-evaluator structs at the end hold only each evaluator's own knobs.
struct EngineOptions {
  /// Unified resource guard, carried to every evaluator through the
  /// EvalContext. Every plan-routed engine enforces both row members on
  /// each plan execution — the color-coding engine per coloring execution;
  /// the active-domain algebra honors max_rows (in place of
  /// FoOptions::max_rows) plus the deadline/memory members through its
  /// polled QueryContext (max_steps does not apply there).
  ResourceLimits limits;
  /// Execution width of the parallel runtime: 1 (default) runs every plan
  /// sequentially — exactly the historical engine; 0 means hardware
  /// concurrency; N > 1 runs plan-routed queries on an N-thread
  /// work-stealing scheduler (src/runtime/). Successful results are
  /// byte-identical to threads = 1, and speculative subtree work is charged
  /// tentatively, so a query that passes its ResourceLimits at threads = 1
  /// passes them at any width (see plan/executor.hpp). Plan-routed engines
  /// go parallel — Theorem 2 color coding on two levels: its colorings run
  /// as concurrent tasks, and each coloring's plan runs on the runtime too;
  /// only the active-domain algebra stays sequential.
  size_t threads = 1;
  /// Rows per morsel for the data-parallel operators (mainly a test knob;
  /// the default suits real workloads).
  size_t morsel_rows = kDefaultMorselRows;
  /// Engine-owned cross-query plan cache (see Engine::plan_cache()). Off
  /// disables all lookups/inserts — for memory-constrained embeddings and
  /// benchmarks that must pay full per-query planning on every run.
  bool use_plan_cache = true;
  /// LRU capacity of the plan cache in entries (0 = unlimited). Applied on
  /// the next Run; shrinking evicts immediately.
  size_t plan_cache_capacity = PlanCache::kDefaultCapacity;
  /// Caller-owned cancellation/abort token. When set, every Run arms THIS
  /// context (deadline/memory from `limits`) instead of an engine-internal
  /// one, so another thread may Cancel() it mid-query. The caller controls
  /// its lifecycle: cancellation is sticky until QueryContext::Reset().
  QueryContext* query_ctx = nullptr;
  /// Master switch for worst-case-optimal multiway joins: comparison-free
  /// cyclic CQs route through a generalized hypertree decomposition with
  /// leapfrog-triejoin bags (PlannerOptions::wcoj). Results are
  /// byte-identical on or off; off keeps the binary left-deep chains.
  bool wcoj = true;
  /// Query tracing: when on, every Run records hierarchical spans (query →
  /// route → fixpoint round / disjunct / coloring → plan operator → morsel)
  /// into the engine-owned Tracer, cleared at the start of each Run and
  /// exportable afterwards through Engine::tracer() (Chrome trace-event
  /// JSON or text profile). Results are byte-identical on or off; off costs
  /// one null-pointer test per instrumentation site.
  bool trace = false;
  IneqOptions inequality;
  FoOptions fo;
  UcqOptions ucq;
  DatalogOptions datalog;
  /// No effect; read or set only by pqbench; delete with its uses (ROADMAP
  /// item 2).
  bool vectorize = true;
  size_t vec_min_source_rows = 256;
};

/// Instrumentation from the most recent Run/RunText call, per evaluator.
/// Every Run overload zeroes the whole struct up front, then only the
/// evaluator that actually ran populates its members — so counters never
/// carry over from an earlier query.
struct EngineStats {
  /// End-to-end wall clock of the last Run, measured at the engine: covers
  /// planning, routing, and execution on EVERY route — including the
  /// active-domain algebra and plan-cache-hit paths, which PlanStats'
  /// per-plan-execution wall_seconds does not see.
  double wall_seconds = 0;
  /// Why the last Run aborted ("cancelled", "deadline_exceeded",
  /// "resource_exhausted"), empty on success and on other errors. The
  /// cumulative per-reason counts live in Engine::metrics()
  /// (pq_aborts_*_total).
  std::string abort_reason;
  /// The route the last Run took: its engine, reason, and whether the
  /// answer's last column is a count.
  RouteDecision route;
  /// Shared plan-executor counters for whatever plan(s) the last call ran,
  /// on every route.
  PlanStats plan;
  DatalogStats datalog;
  UcqStats ucq;
  /// Theorem 2 color-coding instrumentation (set when the last call routed
  /// through the inequality engine).
  IneqStats ineq;
  /// Program-wide plan cache counters. Unlike the sections above these are
  /// CUMULATIVE over the engine's lifetime (the cache outlives queries —
  /// that is its point); refreshed on every Run/RunText.
  PlanCacheStats plan_cache;

  std::string ToString() const;
};

/// Facade bound to one database instance (not owned).
class Engine {
 public:
  explicit Engine(const Database& db, EngineOptions options = {});

  /// Evaluates a conjunctive query (with any comparison atoms) using the
  /// best applicable algorithm.
  Result<Relation> Run(const ConjunctiveQuery& q) const;

  /// Evaluates a positive query.
  Result<Relation> Run(const PositiveQuery& q) const;

  /// Evaluates a first-order query.
  Result<Relation> Run(const FirstOrderQuery& q) const;

  /// Evaluates a Datalog program.
  Result<Relation> Run(const DatalogProgram& p) const;

  /// Parses `text` (rule syntax with ":-", formula syntax with ":=",
  /// multiple rules = Datalog) and evaluates it. String constants in the
  /// query require `dict` (usually the database's own dictionary) so they
  /// can be interned to value codes; without it they are a parse error.
  Result<Relation> RunText(const std::string& text,
                           Dictionary* dict = nullptr);

  /// Classification + physical plan for a query, as a human-readable report.
  /// String constants need `dict`, as in RunText.
  Result<std::string> ExplainText(const std::string& text,
                                  Dictionary* dict = nullptr);

  /// Renders the physical plan for `text` without executing it (the shell's
  /// `.plan` command). Cardinalities are planner estimates only.
  Result<std::string> PlanText(const std::string& text,
                               Dictionary* dict = nullptr);

  /// EXPLAIN ANALYZE: executes `text` and returns the executed plan(s)
  /// annotated with per-node actual rows and wall time (self and
  /// cumulative), plus the result cardinality and end-to-end wall clock.
  /// Datalog programs report each distinct rule plan with its execution
  /// count; non-positive first-order queries execute but have no plan to
  /// render (the active-domain algebra is not plan-routed).
  Result<std::string> AnalyzeText(const std::string& text,
                                  Dictionary* dict = nullptr);

  const Database& db() const { return *db_; }
  EngineOptions& options() { return options_; }

  /// Evaluator instrumentation from the most recent Run/RunText call (e.g.
  /// the shared plan-executor counters, the Datalog EDB-cache hit counters).
  const EngineStats& last_stats() const { return stats_; }

  /// The engine-owned cross-query plan cache: compiled CQ/UCQ-disjunct
  /// plans, Theorem 2 residual compilations, and Datalog rule-variant plans
  /// keyed by canonical signature. Entries record the per-relation
  /// generation stamps of the stored relations they read; a mutation of the
  /// database (an `.insert`, a LoadCsv — anything reaching a mutable
  /// Database::relation handle) stales exactly the entries that read the
  /// mutated relation, dropped at their next lookup. Capacity-bounded LRU
  /// (EngineOptions::plan_cache_capacity).
  const PlanCache& plan_cache() const { return plan_cache_; }

  /// The engine-wide metrics registry: query counts/latency, per-operator
  /// row histograms, abort reasons, scheduler activity, plan-cache,
  /// trie-cache and set-form cache hit rates. Cumulative over the engine's
  /// lifetime (storage-cache counters are process-wide); scraped/refreshed
  /// at the end of every Run.
  MetricsRegistry& metrics() const { return metrics_; }

  /// The spans of the most recent traced Run (EngineOptions::trace); null
  /// until the first traced query. Export with Tracer::ChromeTraceJson()
  /// or Tracer::TextProfile(); stable until the next traced Run.
  Tracer* tracer() const { return tracer_.get(); }

 private:
  /// The one EvalContext of a Run, built from options(): limits, the plan
  /// cache (when enabled), the planner switches, and the runtime binding —
  /// `qc` for hardening, and a null scheduler for threads == 1, otherwise a
  /// lazily created (and reused) TaskScheduler of the resolved width,
  /// rebuilt when the option changes.
  EvalContext Context(QueryContext* qc) const;

  /// The QueryContext for one Run: the caller's (options().query_ctx) if
  /// set, else a lazily created engine-owned context when `limits` arms a
  /// deadline or memory budget, else null (unhardened). Engine-owned
  /// contexts are Reset() and re-armed per Run.
  QueryContext* ArmQueryContext() const;

  /// One Run: resets stats_, arms the QueryContext and memory accounting,
  /// runs `evaluate(ctx)` (which records its RouteDecision in stats_.route)
  /// and does the end-of-Run bookkeeping (counting metrics, FinishQuery).
  template <typename Evaluate>
  Result<Relation> RunQuery(const char* kind, Evaluate&& evaluate) const;

  /// When tracing is on: ensures the tracer exists, Clear()s it for the new
  /// query, and returns it (the calling thread becomes track 0). Returns
  /// null when tracing is off. Called once at the top of each Run overload.
  Tracer* PrepareTracer() const;

  /// End-of-Run bookkeeping shared by every route: records the engine-level
  /// wall clock and abort reason into stats_, and updates/scrapes the
  /// metrics registry (latency and peak-bytes histograms, per-reason abort
  /// counters, plan-cache / scheduler / storage-cache gauges).
  void FinishQuery(double seconds, const Status& status,
                   const QueryContext* qc) const;

  /// Pre-resolved registry handles (see QueryMetrics: hot paths must not
  /// pay name lookups).
  struct MetricHandles {
    Counter* queries = nullptr;
    Counter* counting_queries = nullptr;
    Histogram* count_groups = nullptr;
    Histogram* latency_us = nullptr;
    Histogram* peak_bytes = nullptr;
    Counter* aborts_cancelled = nullptr;
    Counter* aborts_deadline = nullptr;
    Counter* aborts_resource = nullptr;
    Counter* rows_produced = nullptr;
    Counter* morsels = nullptr;
    Counter* plan_cache_hits = nullptr;
    Counter* plan_cache_misses = nullptr;
    Counter* plan_cache_stale = nullptr;
    Counter* plan_cache_evictions = nullptr;
    Gauge* plan_cache_entries = nullptr;
    Counter* sched_tasks = nullptr;
    Counter* sched_steals = nullptr;
    Counter* sched_idle_sleeps = nullptr;
    Gauge* sched_queue_depth = nullptr;
    Counter* trie_hits = nullptr;
    Counter* trie_builds = nullptr;
    Counter* set_hits = nullptr;
    Counter* set_builds = nullptr;
  };

  const Database* db_;
  EngineOptions options_;
  mutable std::unique_ptr<TaskScheduler> scheduler_;
  mutable std::unique_ptr<QueryContext> run_ctx_;
  mutable PlanCache plan_cache_;
  mutable EngineStats stats_;
  mutable MetricsRegistry metrics_;
  mutable std::unique_ptr<Tracer> tracer_;
  MetricHandles m_;
  QueryMetrics query_metrics_;
  /// Armed by AnalyzeText for the duration of one RunText; bound into
  /// RuntimeOptions::analyze by Context().
  mutable PlanCapture* analyze_ = nullptr;
};

}  // namespace paraquery

#endif  // PARAQUERY_CORE_ENGINE_H_
