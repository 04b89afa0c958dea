// pqbench: the ParaQuery benchmark program.
//
//   pqbench --workload interactive|analytic|update --seed N --seconds S
//           --trace 0|1 [--spans-out FILE]
//   pqbench --workload W --seed N --seconds S --ablate
//           vectorize|wcoj|use_plan_cache|threads
//
// Prints a human-readable report, then one JSON result line (the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1). With
// --ablate it runs the workload twice, with the engine path on and off, and
// prints the on-vs-off delta of every end-to-end metric instead.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "runner.hpp"

namespace {

int Usage(const std::string& why) {
  std::cerr << "pqbench: " << why
            << "\nusage: pqbench --workload interactive|analytic|update "
               "--seed N --seconds S --trace 0|1 "
               "[--spans-out FILE] [--ablate vectorize|wcoj|use_plan_cache|"
               "threads]\n";
  return 2;
}

bool ParseNumber(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return !text.empty() && end != nullptr && *end == '\0';
}

int Ablate(pqbench::RunConfig config) {
  const std::string name = config.ablate;
  config.ablate.clear();
  auto on = pqbench::RunWorkload(config);
  if (!on.ok()) {
    std::cerr << "pqbench: " << on.status() << "\n";
    return 1;
  }
  config.ablate = name;
  auto off = pqbench::RunWorkload(config);
  if (!off.ok()) {
    std::cerr << "pqbench: " << off.status() << "\n";
    return 1;
  }
  std::cout << on.value().report << "-- ablation: " << name << " off\n"
            << off.value().report;
  std::printf("%-16s %14s %14s %10s\n", "metric", "on", "off", "delta");
  std::vector<pqbench::Metric> deltas;
  for (size_t i = 0; i < on.value().metrics.size(); ++i) {
    const pqbench::Metric& a = on.value().metrics[i];
    const pqbench::Metric& b = off.value().metrics[i];
    const double delta = a.value == 0 ? 0 : (b.value - a.value) / a.value;
    std::printf("%-16s %14.6g %14.6g %+9.1f%%\n", a.name.c_str(), a.value,
                b.value, delta * 100);
    deltas.push_back({a.name + ".off_vs_on", delta, "ratio"});
  }
  const bool correct = on.value().failed == 0 && off.value().failed == 0;
  std::cout << pqbench::ResultJson(
                   correct, on.value().attempted + off.value().attempted,
                   on.value().failed + off.value().failed, deltas)
            << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  pqbench::RunConfig config;
  bool have_workload = false;
  std::string spans_out;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage("missing value for " + flag);
    const std::string value = argv[++i];
    double number = 0;
    if (flag == "--workload") {
      if (!pqbench::ParseWorkload(value, &config.workload)) {
        return Usage("unknown workload '" + value + "'");
      }
      have_workload = true;
    } else if (flag == "--seed" && ParseNumber(value, &number) && number >= 0) {
      config.seed = static_cast<uint64_t>(number);
    } else if (flag == "--seconds" && ParseNumber(value, &number) &&
               number > 0) {
      config.seconds = number;
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      config.trace = value == "1";
    } else if (flag == "--spans-out") {
      spans_out = value;
    } else if (flag == "--ablate") {
      config.ablate = value;
    } else {
      return Usage("bad argument " + flag + " " + value);
    }
  }
  if (!have_workload) return Usage("--workload is required");
  if (!config.ablate.empty()) {
    if (config.trace) return Usage("--ablate runs untraced only");
    return Ablate(config);
  }

  auto result = pqbench::RunWorkload(config);
  if (!result.ok()) {
    std::cerr << "pqbench: " << result.status() << "\n";
    return 1;
  }
  const pqbench::RunResult& r = result.value();
  if (!spans_out.empty() && !r.spans_json.empty()) {
    std::ofstream(spans_out) << r.spans_json;
  }
  std::cout << r.report
            << pqbench::ResultJson(r.failed == 0, r.attempted, r.failed,
                                   r.metrics)
            << std::endl;
  return 0;
}
