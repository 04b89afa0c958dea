// One benchmark run: set up a workload, replay its operation script as a
// closed loop with one client for a fixed time, check every answer, and
// report the metrics.
//
// An untraced run reports the end-to-end metrics. A traced run reports the
// per-layer metrics: it issues each read as a sequence of calls into the
// layers' public functions (parse, closure, classify, decompose, plan,
// execute, the engine route, EXPLAIN ANALYZE), each inside a span of the
// benchmark's own span log, and reads the engine's counters around the
// route call.
#ifndef PQBENCH_RUNNER_H_
#define PQBENCH_RUNNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "core/engine.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace pqbench {

struct RunConfig {
  Workload workload = Workload::kInteractive;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Timed set-ups per run; setup_s is their median.
  int setups = 3;
  /// Ablation: the engine option switched off for this run ("" = none;
  /// see ApplyAblation).
  std::string ablate;
  /// Self-test hook: the expected answer of this script position is
  /// corrupted, so the read there must count as failed.
  int corrupt_position = -1;
};

struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the result line.
  std::string report;
  /// Traced runs: the span log as Chrome trace-event JSON.
  std::string spans_json;
};

paraquery::Result<RunResult> RunWorkload(const RunConfig& config);

/// Switches one optional engine path off: "vectorize", "wcoj",
/// "use_plan_cache", or "threads" (the run's width becomes 1).
paraquery::Status ApplyAblation(const std::string& name,
                                paraquery::EngineOptions* options);

/// The metric names an untraced / traced run emits, in order.
const std::vector<std::string>& EndToEndMetricNames();
const std::vector<std::string>& PerLayerMetricNames();

}  // namespace pqbench

#endif  // PQBENCH_RUNNER_H_
