// Expected answers, computed with evaluators other than the engine route
// under test:
//   CQs (incl. ≠, <, ≤)   BacktrackEvaluateCq, the indexed backtracking
//                         search (no plan, no cache, no color coding);
//   COUNT heads           brute force: enumerate every assignment with
//                         BacktrackEvaluateCq, then count in the benchmark;
//   UCQs                  the active-domain algebra (EvaluateFirstOrder);
//   FO with negation      the positive part by backtracking, negated
//                         conditions checked against hash sets here;
//   Datalog               a naive (not semi-naive) fixpoint written here,
//                         every rule re-derived from scratch each round.
#ifndef PQBENCH_ORACLE_H_
#define PQBENCH_ORACLE_H_

#include <vector>

#include "common/status.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace pqbench {

/// Expected digest of every read position of `spec.script`, replaying the
/// script's writes from the generated database (write positions get an
/// unused placeholder). An answer the oracle could not compute is
/// kNoExpectation, which no engine result matches. Computed in a child
/// process so that the oracle's memory never shows in this process's peak
/// resident set; fails if the child does.
paraquery::Result<std::vector<Digest>> ExpectedDigestsIsolated(
    const WorkloadSpec& spec);

inline constexpr Digest kNoExpectation = {~0ull, ~0ull};

}  // namespace pqbench

#endif  // PQBENCH_ORACLE_H_
