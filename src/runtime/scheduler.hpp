// Work-stealing task scheduler: the parallel runtime under the plan
// executor and the structurally parallel evaluators (UCQ disjuncts,
// Yannakakis sibling subtrees, per-round Datalog rule firings, Theorem 2
// colorings).
//
// Model
// -----
// A TaskScheduler owns a fixed pool of worker threads, one task deque per
// worker. Tasks are spawned through TaskGroups: a group owns its task queue;
// the scheduler's deques hold group *tokens* ("group G has a task ready"),
// so a worker that pops or steals a token runs one task of that group.
// TaskGroup::Wait() runs the *group's own* queued tasks on the calling
// thread until none are left, then blocks until tasks claimed by other
// workers finish — the caller is a full participant, and helping is
// restricted to the waited-on group, which (together with the plan DAG
// being acyclic) rules out self-deadlock through nested groups.
//
// Cancellation is cooperative: Cancel() drops queued-but-unstarted tasks;
// running tasks may poll cancelled(). RecordError keeps the first non-OK
// Status (in arrival order) and cancels, for callers that only need "did
// anything fail". The structural evaluators instead store per-task Results
// and resolve the first error in task-index order themselves — the
// deterministic choice — calling Cancel() directly for short-circuits.
//
// A null scheduler (or a width-1 pool) degrades every primitive to inline
// execution on the calling thread, reproducing single-threaded behavior
// exactly; this is what EngineOptions.threads == 1 (the default) selects.
#ifndef PARAQUERY_RUNTIME_SCHEDULER_H_
#define PARAQUERY_RUNTIME_SCHEDULER_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/parallel_for.hpp"
#include "common/query_context.hpp"
#include "common/status.hpp"

namespace paraquery {

class TaskGroup;
class Tracer;       // obs/trace.hpp
class PlanCapture;  // obs/analyze.hpp
struct QueryMetrics;  // obs/metrics.hpp

/// Fixed pool of workers with per-worker deques and work stealing.
class TaskScheduler {
 public:
  /// `threads` is the total execution width including the calling thread:
  /// the pool spawns threads - 1 workers (a width-1 scheduler spawns none
  /// and runs everything inline).
  explicit TaskScheduler(size_t threads);
  ~TaskScheduler();  // joins the workers; no TaskGroup may outlive the pool
  TaskScheduler(const TaskScheduler&) = delete;
  TaskScheduler& operator=(const TaskScheduler&) = delete;

  size_t threads() const { return threads_; }

  /// std::thread::hardware_concurrency with a floor of 1 (the meaning of
  /// EngineOptions.threads == 0).
  static size_t HardwareConcurrency();

  /// Worker-pool counters, bumped with relaxed atomics by the pool and
  /// scraped into the metrics registry by the engine after each query.
  struct Counters {
    std::atomic<uint64_t> tasks_run{0};    // tokens claimed and executed
    std::atomic<uint64_t> steals{0};       // tokens taken from foreign deques
    std::atomic<uint64_t> idle_sleeps{0};  // worker parks on the idle cv
  };
  const Counters& counters() const { return counters_; }

  /// Racy snapshot of queued-but-unclaimed task tokens (the instantaneous
  /// backlog across all deques).
  size_t QueuedTokens() const { return pending_tokens_.load(); }

 private:
  friend class TaskGroup;

  struct GroupCore;

  struct WorkerQueue {
    std::mutex mutex;
    std::deque<std::shared_ptr<GroupCore>> tokens;
  };

  /// Publishes one runnable task of `core` (one token per spawned task).
  void Announce(std::shared_ptr<GroupCore> core);
  /// Pops a token from `home`'s deque (LIFO) or steals one from another
  /// deque (FIFO) and runs a task of that group. False if no token found.
  bool RunOneToken(size_t home);
  void WorkerLoop(size_t id);

  size_t threads_;
  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;
  std::mutex idle_mutex_;
  std::condition_variable idle_cv_;
  std::atomic<size_t> pending_tokens_{0};
  std::atomic<size_t> next_queue_{0};  // round-robin for external spawns
  std::atomic<bool> stop_{false};
  Counters counters_;
};

/// A set of tasks that complete together. Groups nest freely (a task may
/// create its own group); a group must be Wait()ed (the destructor does so)
/// before the objects its tasks reference go out of scope.
class TaskGroup {
 public:
  /// A null `scheduler` (or a width-1 pool) makes Spawn run the task
  /// immediately on the calling thread.
  explicit TaskGroup(TaskScheduler* scheduler);
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  void Spawn(std::function<void()> fn);

  /// Runs this group's queued tasks on the calling thread until none are
  /// left, then blocks until tasks claimed by other workers finish too.
  void Wait();

  /// Cooperative cancellation: queued-but-unstarted tasks are dropped;
  /// running tasks may poll cancelled().
  void Cancel();
  bool cancelled() const;

  /// Keeps the first non-OK status and cancels the group. Thread-safe.
  void RecordError(Status status);
  /// The first recorded error (OK if none). Meaningful after Wait().
  Status status() const;

 private:
  friend class TaskScheduler;

  TaskScheduler* scheduler_;
  std::shared_ptr<TaskScheduler::GroupCore> core_;
};

/// Splits [0, n) into chunks of at most `grain` indices and runs
/// fn(chunk_index, begin, end) for each — in order on the calling thread
/// when `scheduler` is null/width-1, as scheduler tasks otherwise (the
/// caller participates via Wait). Returns the number of chunks, so callers
/// can pre-size per-chunk output buffers with ChunkCount and merge them in
/// deterministic chunk order afterwards.
size_t ParallelChunks(TaskScheduler* scheduler, size_t n, size_t grain,
                      const std::function<void(size_t, size_t, size_t)>& fn);

/// Number of chunks ParallelChunks(n, grain) produces.
inline size_t ChunkCount(size_t n, size_t grain) {
  if (grain == 0) grain = 1;
  return n == 0 ? 0 : (n + grain - 1) / grain;
}

/// Binds the scheduler into the relational layer's scheduler-agnostic
/// parallel-for hook (common/parallel_for.hpp): the returned function runs
/// ParallelChunks over `scheduler`. A null/width-1 scheduler returns an
/// empty function, selecting the callers' inline sequential path.
ParallelForFn MakeParallelFor(TaskScheduler* scheduler);

/// Default rows per morsel for the data-parallel operators.
inline constexpr size_t kDefaultMorselRows = 4096;

/// Parallel-runtime binding threaded from EngineOptions through the
/// evaluator options into plan execution. Default-constructed it selects
/// sequential execution (today's single-threaded behavior).
struct RuntimeOptions {
  TaskScheduler* scheduler = nullptr;  // not owned; null = sequential
  size_t morsel_rows = kDefaultMorselRows;
  /// Shared abort state (deadline, cancellation, memory budget) of the
  /// running query, armed by the Engine. Not owned; null = unhardened
  /// execution with no abort polling.
  QueryContext* query_ctx = nullptr;
  /// Observability hooks, bound by the Engine (obs/). All optional and not
  /// owned; null = that facility is off and the instrumentation sites cost
  /// one pointer test. `tracer` collects spans; `metrics` carries
  /// pre-resolved histogram handles for hot-path observations; `analyze`
  /// snapshots executed-plan renders for EXPLAIN ANALYZE.
  Tracer* tracer = nullptr;
  const QueryMetrics* metrics = nullptr;
  PlanCapture* analyze = nullptr;
  /// No effect; read or set only by pqbench; delete with its uses (ROADMAP
  /// item 2).
  size_t vec_min_source_rows = 256;

  bool parallel() const {
    return scheduler != nullptr && scheduler->threads() > 1;
  }
  /// True when a data-parallel operator should engage for `rows` input rows
  /// (parallel runtime active and at least two morsels of work).
  bool ShouldMorsel(size_t rows) const {
    size_t grain = morsel_rows == 0 ? 1 : morsel_rows;
    return parallel() && rows >= 2 * grain;
  }
  /// OK unless the bound query context has tripped (cancelled, past its
  /// deadline, or over its memory budget). Polled at operator, morsel,
  /// round, disjunct, and coloring boundaries.
  Status CheckInterrupt() const {
    return query_ctx == nullptr ? Status::OK() : query_ctx->Check();
  }
  /// Status-free form of CheckInterrupt for void contexts (morsel lambdas).
  bool Interrupted() const {
    return query_ctx != nullptr && query_ctx->Aborted();
  }
};

}  // namespace paraquery

#endif  // PARAQUERY_RUNTIME_SCHEDULER_H_
