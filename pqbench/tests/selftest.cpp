// Self-tests of the benchmark program: generator determinism, percentile
// math, metric-name format, and that a wrong answer is counted as failed.
#include <gtest/gtest.h>

#include <set>

#include "oracle.hpp"
#include "runner.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace pqbench {
namespace {

std::vector<std::string> Texts(const WorkloadSpec& spec) {
  std::vector<std::string> out;
  for (const QuerySpec& q : spec.pool) out.push_back(q.text);
  return out;
}

TEST(Workload, SameSeedGivesIdenticalTextsAndDatabase) {
  for (Workload w :
       {Workload::kInteractive, Workload::kAnalytic, Workload::kUpdate}) {
    for (uint64_t seed : {3u, 11u}) {
      const WorkloadSpec a = BuildWorkload(w, seed);
      const WorkloadSpec b = BuildWorkload(w, seed);
      EXPECT_EQ(Texts(a), Texts(b)) << WorkloadName(w) << " seed " << seed;
      EXPECT_EQ(DatabaseDigest(a.db), DatabaseDigest(b.db));
      ASSERT_EQ(a.script.size(), b.script.size());
      for (size_t i = 0; i < a.script.size(); ++i) {
        EXPECT_EQ(a.script[i].write, b.script[i].write);
        EXPECT_EQ(a.script[i].index, b.script[i].index);
      }
      ASSERT_EQ(a.writes.size(), b.writes.size());
      for (size_t i = 0; i < a.writes.size(); ++i) {
        EXPECT_EQ(a.writes[i].relation, b.writes[i].relation);
        EXPECT_EQ(a.writes[i].rows, b.writes[i].rows);
      }
    }
    EXPECT_NE(DatabaseDigest(BuildWorkload(w, 3).db),
              DatabaseDigest(BuildWorkload(w, 11).db))
        << WorkloadName(w);
  }
}

TEST(Workload, InteractivePoolCoversEveryRoute) {
  const WorkloadSpec spec = BuildWorkload(Workload::kInteractive, 5);
  std::set<paraquery::EngineChoice> routes;
  std::set<std::string> texts;
  for (const QuerySpec& q : spec.pool) {
    routes.insert(q.route);
    texts.insert(q.text);
  }
  EXPECT_EQ(routes.size(), 7u);
  EXPECT_EQ(texts.size(), spec.pool.size());
  EXPECT_GE(spec.pool.size(), 200u);
}

TEST(Stats, PercentileOnKnownSamples) {
  EXPECT_DOUBLE_EQ(Percentile({}, 50), 0);
  EXPECT_DOUBLE_EQ(Percentile({7}, 90), 7);
  EXPECT_DOUBLE_EQ(Percentile({4, 1, 3, 2}, 50), 2.5);
  EXPECT_DOUBLE_EQ(Percentile({4, 1, 3, 2}, 0), 1);
  EXPECT_DOUBLE_EQ(Percentile({4, 1, 3, 2}, 100), 4);
  std::vector<double> ten;
  for (int i = 1; i <= 10; ++i) ten.push_back(i);
  EXPECT_DOUBLE_EQ(Percentile(ten, 90), 9.1);
  EXPECT_DOUBLE_EQ(Percentile(ten, 50), 5.5);
}

TEST(Stats, DigestIgnoresOrderButSeesDuplicates) {
  paraquery::Relation a(2), b(2), c(2);
  a.Add({1, 2});
  a.Add({3, 4});
  b.Add({3, 4});
  b.Add({1, 2});
  c.Add({1, 2});
  c.Add({1, 2});
  c.Add({3, 4});
  EXPECT_EQ(DigestOf(a), DigestOf(b));
  EXPECT_NE(DigestOf(a), DigestOf(c));
}

TEST(Metrics, EveryNameMatchesTheFormat) {
  std::set<std::string> seen;
  for (const auto* names : {&EndToEndMetricNames(), &PerLayerMetricNames()}) {
    for (const std::string& name : *names) {
      EXPECT_TRUE(ValidMetricName(name)) << name;
      EXPECT_TRUE(seen.insert(name).second) << "duplicate " << name;
    }
  }
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName("_x"));
  EXPECT_FALSE(ValidMetricName("a b"));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
}

std::vector<std::string> NamesOf(const RunResult& r) {
  std::vector<std::string> out;
  for (const Metric& m : r.metrics) out.push_back(m.name);
  return out;
}

TEST(Runner, EmitsExactlyTheDeclaredMetricsAndNoFailures) {
  RunConfig config;
  config.workload = Workload::kUpdate;
  config.seed = 2;
  config.seconds = 0.4;
  config.setups = 1;
  auto plain = RunWorkload(config);
  ASSERT_TRUE(plain.ok()) << plain.status();
  EXPECT_EQ(NamesOf(plain.value()), EndToEndMetricNames());
  EXPECT_EQ(plain.value().failed, 0u) << plain.value().report;
  EXPECT_GT(plain.value().attempted, 0u);

  config.trace = true;
  auto traced = RunWorkload(config);
  ASSERT_TRUE(traced.ok()) << traced.status();
  EXPECT_EQ(NamesOf(traced.value()), PerLayerMetricNames());
  EXPECT_EQ(traced.value().failed, 0u) << traced.value().report;
  EXPECT_NE(traced.value().spans_json.find("core.route"), std::string::npos);
}

TEST(Runner, CorruptedAnswerCountsAsFailed) {
  RunConfig config;
  config.workload = Workload::kInteractive;
  config.seed = 2;
  config.seconds = 0.4;
  config.setups = 1;
  config.corrupt_position = 0;  // the first read of the script
  auto result = RunWorkload(config);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GE(result.value().failed, 1u);
  EXPECT_EQ(result.value().report.find("failed_frac=0 "), std::string::npos);
  EXPECT_NE(result.value().report.find("wrong answer"), std::string::npos);
}

}  // namespace
}  // namespace pqbench
