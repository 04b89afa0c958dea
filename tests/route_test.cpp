// The route a query runs is the route every report shows: for seeded
// generated queries of every shape, the RouteDecision that Run records in
// EngineStats equals the route `.plan` (PlanText) and `.explain`
// (ExplainText) render, at threads 1 and 4 and with the WCOJ switch on and
// off.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/engine.hpp"
#include "workload/generators.hpp"

namespace paraquery {
namespace {

std::string Var(int i) { return "x" + std::to_string(i); }

std::string Atom(Rng& rng, int a, int b) {
  return "R" + std::to_string(rng.Below(3)) + "(" + Var(a) + ", " + Var(b) +
         ")";
}

// A path x0 - x1 - ... - x{len} (acyclic) or a cycle over len variables.
std::string Body(Rng& rng, int len, bool cyclic) {
  std::string body;
  for (int i = 0; i < len; ++i) {
    if (i > 0) body += ", ";
    body += Atom(rng, i, cyclic && i + 1 == len ? 0 : i + 1);
  }
  return body;
}

int Vars(int len, bool cyclic) { return cyclic ? len : len + 1; }

// A head over a random nonempty subset of the variables, or a Boolean head.
std::string Head(Rng& rng, int vars) {
  std::string head;
  for (int v = 0; v < vars; ++v) {
    if (!rng.Chance(0.5)) continue;
    head += (head.empty() ? "" : ", ") + Var(v);
  }
  return head;
}

std::string Comparison(Rng& rng, int vars, const char* op) {
  int a = static_cast<int>(rng.Below(vars));
  int b = static_cast<int>(rng.Below(vars - 1));
  if (b >= a) ++b;
  return Var(a) + " " + op + " " + Var(b);
}

// Seeded queries of every shape the router distinguishes.
std::vector<std::string> GeneratedQueries(uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> out;
  for (int round = 0; round < 4; ++round) {
    const int len = 2 + static_cast<int>(rng.Below(3));  // 2..4 atoms
    for (bool cyclic : {false, true}) {
      if (cyclic && len < 3) continue;
      const int vars = Vars(len, cyclic);
      const std::string body = Body(rng, len, cyclic);
      out.push_back("ans(" + Head(rng, vars) + ") :- " + body + ".");
      out.push_back("ans(" + Head(rng, vars) + ") :- " + body + ", " +
                    Comparison(rng, vars, "!=") + ".");
      out.push_back("ans(" + Head(rng, vars) + ") :- " + body + ", " +
                    Comparison(rng, vars, "<") + ".");
      // Collapsible by the closure: an equality, or a <= cycle.
      out.push_back("ans(" + Head(rng, vars) + ") :- " + body + ", " +
                    Comparison(rng, vars, "=") + ".");
      out.push_back("ans(" + Head(rng, vars) + ") :- " + body + ", " + Var(0) +
                    " <= " + Var(1) + ", " + Var(1) + " <= " + Var(0) + ".");
      // Inconsistent closure.
      out.push_back("ans(" + Head(rng, vars) + ") :- " + body + ", " + Var(0) +
                    " < " + Var(1) + ", " + Var(1) + " < " + Var(0) + ".");
      out.push_back("COUNT(*) :- " + body + ".");
      out.push_back("COUNT(" + Var(0) + ") :- " + body + ", " +
                    Comparison(rng, vars, "<") + ".");
      out.push_back("COUNT(" + Var(0) + ", " + Var(1) + ") :- " + body +
                    ", " + Var(0) + " = " + Var(1) + ".");
      // A constant-only atom keeps a cycle off the multiway-join gate.
      out.push_back("ans(" + Head(rng, vars) + ") :- " + body +
                    ", R0(1, 2).");
    }
  }
  return out;
}

const char* const kFixedQueries[] = {
    "ans(1, 2) :- .",
    "ans(1) :- 1 < 2.",
    "ans(1) :- 1 != 1.",
    "COUNT(*) :- 1 != 2.",
    "COUNT(*) :- R0(x, y), x < y, y < x.",
    "ans(x) := exists y . (R0(x, y) or R1(y, x)).",
    "ans(x) := exists y, z . ((R0(x, y) and R1(y, z) and R2(z, x)) or "
    "R0(x, x)).",
    "COUNT(x) := exists y . (R0(x, y) or R1(x, y)).",
    "ans(x) := exists y . (R0(x, y) and not R1(y, x)).",
    "COUNT(*) := exists y . (R0(x, y) and not R1(y, x)).",
    "tc(x, y) :- R0(x, y).\ntc(x, y) :- R0(x, z), tc(z, y).\n",
};

// The text after `marker` up to the end of that line ("" if absent).
std::string LineAfter(const std::string& text, const std::string& marker) {
  const size_t at = text.find(marker);
  if (at == std::string::npos) return "";
  const size_t begin = at + marker.size();
  return text.substr(begin, text.find('\n', begin) - begin);
}

void ExpectRenderedRoute(Engine& engine, const std::string& text) {
  SCOPED_TRACE(text);
  auto ran = engine.RunText(text);
  const RouteDecision& route = engine.last_stats().route;
  ASSERT_TRUE(ran.ok()) << ran.status();
  ASSERT_NE(std::string(route.reason), "");
  const RouteDecision recorded = {.engine = route.engine,
                                  .reason = route.reason,
                                  .counting = route.counting,
                                  .wcoj = route.wcoj};

  auto explained = engine.ExplainText(text);
  ASSERT_TRUE(explained.ok()) << explained.status();
  EXPECT_EQ(LineAfter(explained.value(), "\nroute: "), recorded.reason);
  EXPECT_EQ(LineAfter(explained.value(), "\nengine: "),
            EngineChoiceName(recorded.engine));

  auto planned = engine.PlanText(text);
  if (recorded.engine == EngineChoice::kFo) {
    EXPECT_FALSE(planned.ok());  // the active-domain algebra has no plan
  } else {
    ASSERT_TRUE(planned.ok()) << planned.status();
    EXPECT_EQ(LineAfter(planned.value(), "-- route: "), recorded.reason);
  }

  auto analyzed = engine.AnalyzeText(text);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status();
  EXPECT_EQ(LineAfter(analyzed.value(), "-- route: "), recorded.reason);
  EXPECT_EQ(engine.last_stats().route.engine, recorded.engine);
  EXPECT_EQ(engine.last_stats().route.counting, recorded.counting);
  const bool executed_multiway =
      analyzed.value().find("MultiwayJoin") != std::string::npos;
  if (planned.ok()) {
    // The executed plan has a multiway join exactly when the rendered one
    // does.
    EXPECT_EQ(planned.value().find("MultiwayJoin") != std::string::npos,
              executed_multiway)
        << planned.value() << analyzed.value();
  }
  if (recorded.engine != EngineChoice::kUcq && executed_multiway) {
    // ... and, on a conjunctive route, only under the decision's WCOJ gate
    // (an acyclic bag of the decomposition joins binary).
    EXPECT_TRUE(recorded.wcoj) << analyzed.value();
  }
}

TEST(RouteTest, RunRecordsTheRoutePlanAndExplainRender) {
  Database db = RandomBinaryDatabase(3, 40, 8, 7);
  std::vector<std::string> queries(std::begin(kFixedQueries),
                                   std::end(kFixedQueries));
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    for (std::string& q : GeneratedQueries(seed)) queries.push_back(q);
  }
  for (size_t threads : {1, 4}) {
    for (bool wcoj : {true, false}) {
      SCOPED_TRACE(testing::Message() << "threads=" << threads
                                      << " wcoj=" << wcoj);
      EngineOptions options;
      options.threads = threads;
      options.wcoj = wcoj;
      Engine engine(db, options);
      for (const std::string& text : queries) ExpectRenderedRoute(engine, text);
    }
  }
}

TEST(RouteTest, EveryConjunctiveRouteIsGenerated) {
  // The generated mix reaches every conjunctive route and reason.
  Database db = RandomBinaryDatabase(3, 40, 8, 7);
  Engine engine(db);
  std::vector<std::string> queries(std::begin(kFixedQueries),
                                   std::end(kFixedQueries));
  for (std::string& q : GeneratedQueries(1)) queries.push_back(q);
  std::vector<std::string> reasons;
  bool seen[7] = {};
  for (const std::string& text : queries) {
    ASSERT_TRUE(engine.RunText(text).ok()) << text;
    const RouteDecision& route = engine.last_stats().route;
    seen[static_cast<int>(route.engine)] = true;
    if (std::find(reasons.begin(), reasons.end(), route.reason) ==
        reasons.end()) {
      reasons.push_back(route.reason);
    }
  }
  for (int e = 0; e < 7; ++e) EXPECT_TRUE(seen[e]) << "engine " << e;
  // Yannakakis (free-connex or not), Theorem 2, multiway, binary chain,
  // Theorem 3 chain, cyclic chain, constant, inconsistent; counting
  // Yannakakis, hypertree, enumerate, constant, inconsistent; UCQ (tuples
  // and count), FO, Datalog.
  EXPECT_GE(reasons.size(), 17u);
}

}  // namespace
}  // namespace paraquery
