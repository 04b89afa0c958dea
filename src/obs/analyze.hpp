// EXPLAIN ANALYZE capture: collects the analyzed renders (per-node actual
// rows + wall time) of every plan executed while armed.
//
// The executor resets a plan's actuals at the start of each execution, so a
// render taken after the query returns would only show the *last* execution
// of each cached plan. PlanCapture instead snapshots the render right after
// each execution (success or failure — an aborted plan still shows the rows
// and time it accrued) and keeps the latest render plus an execution count
// per distinct plan root. A Datalog query re-executes a handful of rule
// plans hundreds of times; the capture stays bounded by distinct roots, not
// executions.
#ifndef PARAQUERY_OBS_ANALYZE_H_
#define PARAQUERY_OBS_ANALYZE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

namespace paraquery {

struct PlanNode;
class VarTable;

class PlanCapture {
 public:
  /// Snapshots the analyzed render of `root`. Thread-safe (parallel Datalog
  /// firings execute plans concurrently).
  void Note(const PlanNode& root, const VarTable* vars);

  /// Adds the wall time of one final answer sort (eval/common.hpp
  /// SortAnswers), which runs after every plan and so shows in no render.
  void NoteAnswerSort(uint64_t ns) {
    answer_sort_ns_.fetch_add(ns, std::memory_order_relaxed);
  }
  uint64_t answer_sort_ns() const {
    return answer_sort_ns_.load(std::memory_order_relaxed);
  }

  /// Folds `part` into this capture, entry by entry in its first-execution
  /// order, under the key `canonical_of(root)`: a query that executes
  /// private clones of one plan concurrently, each with its own capture,
  /// absorbs those captures in a fixed order afterwards, so its clones count
  /// as executions of the one canonical plan and the report matches a
  /// sequential run's.
  void Absorb(const PlanCapture& part,
              const std::function<const PlanNode*(const PlanNode*)>&
                  canonical_of);

  void Clear();

  /// All captured plans in first-execution order:
  ///
  ///   -- plan 1 (executions=121)
  ///   HashJoin(x, y) est=40 actual=31 time=0.412ms self=0.210ms
  ///   ...
  std::string Report() const;

  size_t plan_count() const;

 private:
  /// Distinct-root cap: a pathological workload degrades to counting
  /// overflow instead of accumulating renders without bound.
  static constexpr size_t kMaxPlans = 24;

  /// Records `executions` executions of the plan keyed `root`, whose latest
  /// render is `render`. Caller holds mutex_.
  void NoteLocked(const PlanNode* root, std::string render,
                  uint64_t executions);

  struct Entry {
    const PlanNode* root;  // identity key only, never dereferenced later
    std::string render;
    uint64_t executions;
  };

  mutable std::mutex mutex_;
  std::vector<Entry> plans_;
  uint64_t overflow_ = 0;
  std::atomic<uint64_t> answer_sort_ns_{0};
};

}  // namespace paraquery

#endif  // PARAQUERY_OBS_ANALYZE_H_
