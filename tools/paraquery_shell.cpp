// paraquery_shell — an interactive/batch front end for the library.
//
// Commands (one per line; anything else is parsed as a query):
//   .load NAME FILE     load a CSV file as relation NAME
//   .rel NAME ARITY     create an empty relation
//   .insert NAME v...   insert a tuple (integers or strings)
//   .rels               list relations
//   .dump NAME          print a relation as CSV
//   .explain QUERY      parametrized-complexity report + physical plan
//   .plan QUERY         print the physical plan without executing
//   .analyze QUERY      EXPLAIN ANALYZE: execute, then print the plan(s)
//                       with per-node actual rows and wall time
//   .stats              evaluator/plan counters of the previous query
//   .trace FILE|off     record per-query spans; export Chrome trace-event
//                       JSON (chrome://tracing / Perfetto) to FILE after
//                       each query. ".trace" alone prints the text profile
//                       of the last traced query
//   .metrics [json]     engine metrics registry (Prometheus text or JSON)
//   .threads N          parallel runtime width (1 = sequential, 0 = auto)
//   .timeout MS         per-query wall-clock deadline in ms (0 = off)
//   .memlimit BYTES     per-query memory budget in bytes (0 = off)
//   .help               this text
//   .quit               exit
//
// Queries use the library syntax:
//   ans(x, y) :- E(x, z), E(z, y), x != y.       (rules; multiple = Datalog)
//   ans(x) := exists y . (E(x, y) and not A(y)). (first-order)
//
// Example session:
//   .rel EP 2
//   .insert EP 1 100
//   .insert EP 1 101
//   g(e) :- EP(e, p), EP(e, q), p != q.
#include <cctype>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "relational/csv.hpp"
#include "runtime/scheduler.hpp"

using namespace paraquery;

namespace {

// `count_column`: the last column is a count (a COUNT head), printed as an
// integer even where its value equals a dictionary code.
void PrintRelation(const Database& db, const Relation& rel,
                   bool count_column) {
  if (rel.arity() == 0) {
    std::cout << (rel.empty() ? "false" : "true") << "\n";
    return;
  }
  size_t limit = 50;
  for (size_t r = 0; r < rel.size() && r < limit; ++r) {
    for (size_t c = 0; c < rel.arity(); ++c) {
      if (c > 0) std::cout << ", ";
      Value v = rel.At(r, c);
      const bool count = count_column && c + 1 == rel.arity();
      if (!count && db.dict().Contains(v)) {
        std::cout << "'" << db.dict().Lookup(v) << "'";
      } else {
        std::cout << v;
      }
    }
    std::cout << "\n";
  }
  if (rel.size() > limit) {
    std::cout << "... (" << rel.size() - limit << " more rows)\n";
  }
  std::cout << "(" << rel.size() << " rows)\n";
}

std::vector<std::string> Split(const std::string& line) {
  std::istringstream iss(line);
  std::vector<std::string> out;
  std::string tok;
  while (iss >> tok) out.push_back(tok);
  return out;
}

const char* kHelp =
    ".load NAME FILE | .rel NAME ARITY | .insert NAME v... | .rels |\n"
    ".dump NAME | .explain QUERY | .plan QUERY | .analyze QUERY | .stats |\n"
    ".trace FILE|off | .metrics [json] | .threads N | .timeout MS |\n"
    ".memlimit BYTES | .help | .quit\n"
    ".plan prints the physical plan without executing (inequality queries\n"
    "show the Theorem 2 color-coding plan); .analyze executes the query\n"
    "and prints the executed plan(s) with per-node actual rows plus wall\n"
    "time (cumulative and self); .stats prints the evaluator/plan counters\n"
    "of the previous query (incl. end-to-end wall time, abort reason,\n"
    "parallel tasks, morsels, and the cumulative plan_cache\n"
    "hit/miss/stale counters — .insert and .load stale exactly the cached\n"
    "plans reading the mutated relation); .trace FILE records spans\n"
    "(query -> route -> round/disjunct/coloring -> operator -> morsel) for\n"
    "every following query and exports Chrome trace-event JSON to FILE\n"
    "(open in chrome://tracing or Perfetto; '.trace off' stops, bare\n"
    "'.trace' prints the last traced query as a text profile); .metrics\n"
    "dumps the engine-wide metrics registry (Prometheus text, or JSON\n"
    "with 'json'); .threads N sets the parallel runtime width\n"
    "(1 = sequential, 0 = hardware concurrency) — successful results are\n"
    "identical at any width; .timeout MS arms a per-query wall-clock\n"
    "deadline and .memlimit BYTES a per-query memory budget (0 disarms;\n"
    "exceeding either aborts the query with a clean error, and the engine\n"
    "stays usable).\n"
    "Anything else is evaluated as a query (':-' rules or ':=' formulas).\n"
    "Counting heads: 'COUNT(*) :- body.' returns the number of distinct\n"
    "assignments to the body variables as a single row; 'COUNT(x, y) :-\n"
    "body.' returns one (x, y, count) row per group. The same heads work\n"
    "on formulas ('COUNT(x) := exists y. R(x, y) or S(x, y).' — group keys\n"
    "must be free variables; 'COUNT(*)' counts free-variable assignments).\n"
    "Acyclic comparison-free counting runs in poly(n) without ever\n"
    "materializing the join (counting Yannakakis); see '.plan COUNT...'.\n";

}  // namespace

int main(int argc, char** argv) {
  Database db;
  Engine engine(db);
  bool interactive = true;
  std::istream* in = &std::cin;
  std::ifstream script;
  if (argc > 1) {
    script.open(argv[1]);
    if (!script) {
      std::cerr << "cannot open script '" << argv[1] << "'\n";
      return 1;
    }
    in = &script;
    interactive = false;
  }

  std::string line;
  std::string trace_path;  // empty = tracing off
  // Writes the spans of the query that just ran (tracing must be on).
  auto export_trace = [&]() {
    if (trace_path.empty() || engine.tracer() == nullptr) return;
    std::ofstream out(trace_path, std::ios::trunc);
    if (!out) {
      std::cout << "error: cannot write trace file '" << trace_path << "'\n";
      return;
    }
    out << engine.tracer()->ChromeTraceJson();
  };
  std::string pending;  // multi-line query buffer (Datalog programs)
  auto flush_pending = [&]() {
    if (pending.empty()) return;
    auto result = engine.RunText(pending, &db.dict());
    if (result.ok()) {
      PrintRelation(db, result.value(), engine.last_stats().route.counting);
    } else {
      std::cout << "error: " << result.status() << "\n";
    }
    export_trace();
    pending.clear();
  };

  if (interactive) std::cout << "paraquery> " << std::flush;
  while (std::getline(*in, line)) {
    std::string trimmed = line;
    while (!trimmed.empty() && std::isspace(
               static_cast<unsigned char>(trimmed.front()))) {
      trimmed.erase(trimmed.begin());
    }
    if (trimmed.empty() || trimmed[0] == '%' || trimmed[0] == '#') {
      if (interactive) std::cout << "paraquery> " << std::flush;
      continue;
    }
    if (trimmed[0] == '.') {
      flush_pending();
      auto args = Split(trimmed);
      const std::string& cmd = args[0];
      if (cmd == ".quit" || cmd == ".exit") break;
      if (cmd == ".help") {
        std::cout << kHelp;
      } else if (cmd == ".rels") {
        for (size_t i = 0; i < db.relation_count(); ++i) {
          std::cout << db.relation_name(static_cast<RelId>(i)) << "/"
                    << db.relation_arity(static_cast<RelId>(i)) << " ("
                    << db.relation(static_cast<RelId>(i)).size()
                    << " rows)\n";
        }
      } else if (cmd == ".rel" && args.size() == 3) {
        auto r = db.AddRelation(args[1], std::stoul(args[2]));
        if (!r.ok()) std::cout << "error: " << r.status() << "\n";
      } else if (cmd == ".insert" && args.size() >= 2) {
        auto found = db.FindRelation(args[1]);
        if (!found.ok()) {
          std::cout << "error: " << found.status() << "\n";
        } else if (args.size() - 2 != db.relation_arity(found.value())) {
          std::cout << "error: arity mismatch\n";
        } else {
          ValueVec row;
          for (size_t i = 2; i < args.size(); ++i) {
            const std::string& cell = args[i];
            Value parsed;
            row.push_back(ParseIntegerCell(cell, &parsed)
                              ? parsed
                              : db.dict().Intern(cell));
          }
          db.relation(found.value()).Add(row);
        }
      } else if (cmd == ".load" && args.size() == 3) {
        auto r = LoadCsvFile(&db, args[1], args[2]);
        if (r.ok()) {
          std::cout << "loaded " << db.relation(r.value()).size()
                    << " rows into " << args[1] << "\n";
        } else {
          std::cout << "error: " << r.status() << "\n";
        }
      } else if (cmd == ".dump" && args.size() == 2) {
        auto found = db.FindRelation(args[1]);
        if (found.ok()) {
          WriteCsv(db, found.value(), &std::cout, /*use_dict=*/true);
        } else {
          std::cout << "error: " << found.status() << "\n";
        }
      } else if (cmd == ".explain") {
        std::string query = trimmed.substr(8);
        auto report = engine.ExplainText(query, &db.dict());
        std::cout << (report.ok() ? report.value()
                                  : "error: " + report.status().ToString())
                  << "\n";
      } else if (cmd == ".plan") {
        std::string query = trimmed.substr(5);
        auto plan = engine.PlanText(query, &db.dict());
        std::cout << (plan.ok() ? plan.value()
                                : "error: " + plan.status().ToString())
                  << "\n";
      } else if (cmd == ".analyze") {
        std::string query = trimmed.substr(8);
        auto report = engine.AnalyzeText(query, &db.dict());
        std::cout << (report.ok() ? report.value()
                                  : "error: " + report.status().ToString() +
                                        "\n");
        export_trace();
      } else if (cmd == ".stats") {
        std::cout << engine.last_stats().ToString();
      } else if (cmd == ".trace" && args.size() <= 2) {
        if (args.size() == 1) {
          if (engine.tracer() == nullptr) {
            std::cout << "no traced query yet; .trace FILE to start\n";
          } else {
            std::cout << engine.tracer()->TextProfile();
          }
        } else if (args[1] == "off") {
          engine.options().trace = false;
          trace_path.clear();
          std::cout << "tracing off\n";
        } else {
          engine.options().trace = true;
          trace_path = args[1];
          std::cout << "tracing on: Chrome trace JSON -> " << trace_path
                    << " after each query\n";
        }
      } else if (cmd == ".metrics" &&
                 (args.size() == 1 ||
                  (args.size() == 2 && args[1] == "json"))) {
        std::cout << (args.size() == 2 ? engine.metrics().JsonDump()
                                       : engine.metrics().PrometheusText());
      } else if (cmd == ".threads" && args.size() == 2) {
        constexpr unsigned long kMaxThreads = 256;
        char* end = nullptr;
        unsigned long n = std::strtoul(args[1].c_str(), &end, 10);
        bool digits = !args[1].empty() &&
                      args[1].find_first_not_of("0123456789") ==
                          std::string::npos;
        if (!digits || end == nullptr || *end != '\0' || n > kMaxThreads) {
          std::cout << "error: .threads expects an integer in [0, "
                    << kMaxThreads << "]\n";
        } else {
          engine.options().threads = static_cast<size_t>(n);
          size_t effective = n == 0 ? TaskScheduler::HardwareConcurrency()
                                    : static_cast<size_t>(n);
          std::cout << "parallel runtime: " << effective
                    << (effective == 1 ? " thread (sequential)\n"
                                       : " threads\n");
        }
      } else if ((cmd == ".timeout" || cmd == ".memlimit") &&
                 args.size() == 2) {
        char* end = nullptr;
        unsigned long long n = std::strtoull(args[1].c_str(), &end, 10);
        bool digits = !args[1].empty() &&
                      args[1].find_first_not_of("0123456789") ==
                          std::string::npos;
        if (!digits || end == nullptr || *end != '\0') {
          std::cout << "error: " << cmd
                    << " expects a non-negative integer\n";
        } else if (cmd == ".timeout") {
          engine.options().limits.max_wall_ms = static_cast<uint64_t>(n);
          std::cout << (n == 0 ? "query deadline off\n"
                               : "query deadline: " + args[1] + " ms\n");
        } else {
          engine.options().limits.max_bytes = static_cast<uint64_t>(n);
          std::cout << (n == 0 ? "query memory budget off\n"
                               : "query memory budget: " + args[1] +
                                     " bytes\n");
        }
      } else {
        std::cout << "unknown command; try .help\n";
      }
    } else {
      // Query text: accumulate rules (Datalog programs span lines); execute
      // once the statement list seems complete (line ends with '.').
      pending += line;
      pending += "\n";
      // Heuristic: run when the next line is blank or input style is
      // single-statement. Here: run immediately for ':=' formulas, and for
      // rules when the buffered text parses as a program.
      if (pending.find(":=") != std::string::npos ||
          (interactive && trimmed.back() == '.')) {
        flush_pending();
      }
    }
    if (interactive) std::cout << "paraquery> " << std::flush;
  }
  flush_pending();
  return 0;
}
