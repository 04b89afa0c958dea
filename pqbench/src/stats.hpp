// Small numeric and reporting helpers shared by the benchmark program and its
// self-tests: percentiles, order-independent answer digests, metric records
// and the one-line JSON result.
#ifndef PQBENCH_STATS_H_
#define PQBENCH_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "relational/relation.hpp"

namespace pqbench {

/// Linear-interpolation percentile (p in [0, 100]) of `samples`, the
/// "inclusive" definition: p=0 is the minimum, p=100 the maximum, p=50 of
/// {1,2,3,4} is 2.5. Returns 0 for an empty sample.
double Percentile(std::vector<double> samples, double p);

/// Order-independent fingerprint of a relation read as a set of rows:
/// the row count plus a commutative sum of mixed per-row hashes. Two
/// relations holding the same rows in any order get the same digest; a
/// result with a duplicated row does not match its deduplicated twin.
struct Digest {
  uint64_t rows = 0;
  uint64_t hash = 0;
  bool operator==(const Digest& o) const {
    return rows == o.rows && hash == o.hash;
  }
  bool operator!=(const Digest& o) const { return !(*this == o); }
};
Digest DigestOf(const paraquery::Relation& rel);

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// True if `name` matches [A-Za-z0-9_.-]+ and starts with a letter or
/// digit (the result-format rule for metric names).
bool ValidMetricName(const std::string& name);

/// The last line of every run: {"correct":..,"attempted":..,"failed":..,
/// "metrics":{name:{"value":v,"unit":u},..}}. Values print with 17
/// significant digits so no measured digit is lost.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

/// Peak resident set size of this process in MiB (getrusage ru_maxrss).
double PeakRssMb();

}  // namespace pqbench

#endif  // PQBENCH_STATS_H_
