#include "oracle.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <map>
#include <unordered_set>
#include <utility>

#include "eval/fo.hpp"
#include "eval/naive.hpp"
#include "query/parser.hpp"

namespace pqbench {

using paraquery::ConjunctiveQuery;
using paraquery::Database;
using paraquery::Relation;
using paraquery::Result;
using paraquery::Status;
using paraquery::Value;

namespace {

// Counts rows of `rows` (distinct assignments) per group of its first
// `keys` columns, in the engine's answer shape: one [n] row for a scalar
// count, (keys..., n) rows for a grouped count.
Relation GroupCount(const Relation& rows, size_t keys, bool scalar) {
  if (scalar) {
    Relation out(1);
    out.Add({static_cast<Value>(rows.size())});
    return out;
  }
  std::map<std::vector<Value>, Value> counts;
  for (size_t r = 0; r < rows.size(); ++r) {
    auto row = rows.Row(r);
    ++counts[std::vector<Value>(row.begin(), row.begin() + keys)];
  }
  Relation out(keys + 1);
  for (auto& [key, n] : counts) {
    std::vector<Value> row = key;
    row.push_back(n);
    out.Add(row);
  }
  return out;
}

Result<Relation> Backtrack(const Database& db, const ConjunctiveQuery& q) {
  PQ_ASSIGN_OR_RETURN(Relation rows, paraquery::BacktrackEvaluateCq(db, q));
  rows.SortAndDedup();
  return rows;
}

Result<Relation> RuleAnswer(const Database& db, const std::string& text) {
  PQ_ASSIGN_OR_RETURN(ConjunctiveQuery q, paraquery::ParseConjunctive(text));
  if (!q.answer.counting()) return Backtrack(db, q);
  // Every assignment to the body variables, group keys first.
  ConjunctiveQuery full = q;
  full.answer = paraquery::AnswerSpec::Tuples();
  for (paraquery::VarId v : q.BodyVariables()) {
    const bool key = std::any_of(q.head.begin(), q.head.end(),
                                 [&](const paraquery::Term& t) {
                                   return t.is_var() && t.var() == v;
                                 });
    if (!key) full.head.push_back(paraquery::Term::Var(v));
  }
  PQ_ASSIGN_OR_RETURN(Relation rows, Backtrack(db, full));
  return GroupCount(rows, q.head.size(),
                    q.answer.kind == paraquery::AnswerSpec::Kind::kCount);
}

Result<Relation> FormulaAnswer(const Database& db, const QuerySpec& spec) {
  PQ_ASSIGN_OR_RETURN(paraquery::FirstOrderQuery fo,
                      paraquery::ParseFirstOrder(spec.text));
  const bool scalar = fo.answer.kind == paraquery::AnswerSpec::Kind::kCount;
  if (spec.fo_negations.empty()) {
    // Positive: the active-domain algebra over all free variables.
    paraquery::FirstOrderQuery all = fo;
    all.answer = paraquery::AnswerSpec::Tuples();
    const std::vector<paraquery::VarId> free = fo.FreeVariables();
    if (fo.answer.counting()) {
      // Group keys first, then the other free variables.
      all.head = fo.head;
      for (paraquery::VarId v : free) {
        const bool key = std::any_of(fo.head.begin(), fo.head.end(),
                                     [&](const paraquery::Term& t) {
                                       return t.var() == v;
                                     });
        if (!key) all.head.push_back(paraquery::Term::Var(v));
      }
    }
    PQ_ASSIGN_OR_RETURN(Relation rows, paraquery::EvaluateFirstOrder(db, all));
    rows.SortAndDedup();
    if (!fo.answer.counting()) return rows;
    return GroupCount(rows, fo.head.size(), scalar);
  }
  if (fo.answer.kind == paraquery::AnswerSpec::Kind::kGroupedCount) {
    return Status::InvalidArgument("oracle: grouped FO counts unsupported");
  }
  PQ_ASSIGN_OR_RETURN(ConjunctiveQuery positive,
                      paraquery::ParseConjunctive(spec.fo_positive));
  PQ_ASSIGN_OR_RETURN(Relation rows, Backtrack(db, positive));
  std::vector<std::unordered_set<Value>> banned;
  for (const Negation& n : spec.fo_negations) {
    PQ_ASSIGN_OR_RETURN(paraquery::RelId id, db.FindRelation(n.relation));
    const Relation& rel = db.relation(id);
    std::unordered_set<Value> values;
    for (size_t r = 0; r < rel.size(); ++r) values.insert(rel.At(r, n.rel_col));
    banned.push_back(std::move(values));
  }
  Relation out(spec.fo_head_arity);
  for (size_t r = 0; r < rows.size(); ++r) {
    bool keep = true;
    for (size_t i = 0; i < banned.size() && keep; ++i) {
      keep = banned[i].count(rows.At(r, spec.fo_negations[i].var_col)) == 0;
    }
    if (keep) {
      auto row = rows.Row(r);
      out.Add(std::vector<Value>(row.begin(), row.begin() + out.arity()));
    }
  }
  out.SortAndDedup();
  return fo.answer.counting() ? GroupCount(out, 0, true) : out;
}

// Naive fixpoint: each round re-evaluates every rule from scratch against
// the previous round's IDB state, until no IDB relation grows.
Result<Relation> DatalogAnswer(const Database& db, const std::string& text) {
  PQ_ASSIGN_OR_RETURN(paraquery::DatalogProgram p,
                      paraquery::ParseDatalog(text));
  Database work = db;
  const std::vector<std::string> idb = p.IdbRelations();
  std::vector<paraquery::RelId> ids;
  for (const std::string& name : idb) {
    PQ_ASSIGN_OR_RETURN(
        paraquery::RelId id,
        work.AddRelation(name, static_cast<size_t>(p.ArityOf(name))));
    ids.push_back(id);
  }
  for (bool grew = true; grew;) {
    std::vector<Relation> next;
    for (paraquery::RelId id : ids) next.emplace_back(work.relation_arity(id));
    for (const paraquery::DatalogRule& rule : p.rules) {
      ConjunctiveQuery cq;
      cq.head = rule.head.terms;
      cq.body = rule.body;
      cq.vars = rule.vars;
      PQ_ASSIGN_OR_RETURN(Relation rows, Backtrack(work, cq));
      const size_t slot =
          std::find(idb.begin(), idb.end(), rule.head.relation) - idb.begin();
      for (size_t r = 0; r < rows.size(); ++r) next[slot].Add(rows.Row(r));
    }
    grew = false;
    for (size_t i = 0; i < ids.size(); ++i) {
      next[i].SortAndDedup();
      if (next[i].size() != work.relation(ids[i]).size()) grew = true;
      work.relation(ids[i]) = std::move(next[i]);
    }
  }
  PQ_ASSIGN_OR_RETURN(paraquery::RelId goal, work.FindRelation(p.goal));
  return work.relation(goal);
}

bool WriteAll(int fd, const char* data, size_t size) {
  while (size > 0) {
    const ssize_t n = write(fd, data, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    data += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

Result<Relation> OracleAnswer(const Database& db, const QuerySpec& q) {
  switch (q.kind) {
    case TextKind::kRule:
      return RuleAnswer(db, q.text);
    case TextKind::kFormula:
      return FormulaAnswer(db, q);
    case TextKind::kDatalog:
      return DatalogAnswer(db, q.text);
  }
  return Status::Internal("unreachable");
}

std::vector<Digest> ExpectedDigests(const WorkloadSpec& spec) {
  Database current = spec.db;
  std::map<std::string, int> version;
  std::map<std::pair<int, std::vector<int>>, Digest> known;
  std::vector<Digest> out;
  out.reserve(spec.script.size());
  for (const Op& op : spec.script) {
    if (op.write) {
      const WriteBatch& w = spec.writes[op.index];
      ApplyWrite(&current, w);
      ++version[w.relation];
      out.push_back({});
      continue;
    }
    const QuerySpec& q = spec.pool[op.index];
    std::pair<int, std::vector<int>> key{op.index, {}};
    for (const std::string& r : q.reads) key.second.push_back(version[r]);
    auto it = known.find(key);
    if (it == known.end()) {
      Result<Relation> answer = OracleAnswer(current, q);
      it = known.emplace(key, answer.ok() ? DigestOf(answer.value())
                                          : kNoExpectation)
               .first;
    }
    out.push_back(it->second);
  }
  return out;
}

}  // namespace

Result<std::vector<Digest>> ExpectedDigestsIsolated(const WorkloadSpec& spec) {
  int fds[2];
  if (pipe(fds) != 0) return Status::Internal("oracle: pipe failed");
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return Status::Internal("oracle: fork failed");
  }
  if (pid == 0) {
    close(fds[0]);
    const std::vector<Digest> digests = ExpectedDigests(spec);
    const bool ok =
        WriteAll(fds[1], reinterpret_cast<const char*>(digests.data()),
                 digests.size() * sizeof(Digest));
    close(fds[1]);
    _exit(ok ? 0 : 1);
  }
  close(fds[1]);
  std::string bytes;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    bytes.append(buf, static_cast<size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
      bytes.size() != spec.script.size() * sizeof(Digest)) {
    return Status::Internal("oracle: child process failed");
  }
  std::vector<Digest> digests(spec.script.size());
  std::memcpy(digests.data(), bytes.data(), bytes.size());
  return digests;
}

}  // namespace pqbench
