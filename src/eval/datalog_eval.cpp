#include "eval/datalog_eval.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/fault_injection.hpp"
#include "eval/common.hpp"
#include "obs/trace.hpp"
#include "plan/executor.hpp"
#include "plan/planner.hpp"
#include "relational/ops.hpp"
#include "relational/row_index.hpp"

namespace paraquery {

namespace {

// Program-wide cached materialization of one EDB atom shape: its S_j relation
// plus the memoized join indexes (plan/JoinIndexCache), one per distinct
// probe-column list. EDB relations never change during the fixpoint, so both
// survive across semi-naive iterations — rules stop re-selecting,
// re-projecting, and re-indexing static data on every firing. Entries are
// keyed by (RelId, selection/projection signature), so the SAME
// materialization and its indexes are shared by every rule whose atom has
// that shape, regardless of the variable names it uses: each (rule, position)
// slot probes the entry through a zero-copy attribute-relabeled view.
struct EdbAtomEntry {
  NamedRelation rel;  // canonical materialization (first resolver's attrs)
  JoinIndexCache indexes;
};

// One (rule, body position)'s binding to the shared cache: the entry plus the
// atom's own view of it (same rows, this rule's variable names).
struct RuleAtomView {
  EdbAtomEntry* entry = nullptr;
  NamedRelation view;
};

// Cache key: relation id plus the atom's term shape with variables replaced
// by their first-occurrence index. Two atoms map to the same key iff they
// induce the same selection (constants, repeated-variable equalities) and
// projection (distinct-variable columns) over the same stored relation —
// i.e. identical S_j up to attribute names.
std::string AtomSignature(RelId id, const Atom& atom) {
  std::string sig = internal::StrCat("r", id);
  std::vector<VarId> seen;
  for (const Term& t : atom.terms) {
    if (t.is_const()) {
      sig += internal::StrCat("|c", t.value());
      continue;
    }
    auto it = std::find(seen.begin(), seen.end(), t.var());
    size_t idx = static_cast<size_t>(it - seen.begin());
    if (it == seen.end()) seen.push_back(t.var());
    sig += internal::StrCat("|v", idx);
  }
  return sig;
}

// One cached (rule, delta position) body plan plus the delta size it was
// planned at, for the >10x drift re-planning trigger.
struct VariantPlan {
  PlanNodePtr plan;
  size_t planned_delta_rows = 0;
};

// Cross-run cache payload (PlanCache, key "rule:<canonical sig>|d<pos>"):
// the body plan with attribute ids remapped onto the rule's CANONICAL
// variable numbering, so any renaming-equivalent rule in any program can
// claim it, plus the delta size it was planned at (the drift trigger
// carries across runs).
struct CachedRulePlan {
  PlanNodePtr plan;
  size_t planned_delta_rows = 0;
  /// Per-slot input sizes at planning time: a consuming run whose inputs
  /// (IDB state included — another program may shape it very differently)
  /// drift >10x from these re-plans instead of adopting a pessimal join
  /// order keyed only on the rule's syntax.
  std::vector<size_t> planned_sizes;
};

// Canonical form of a rule body viewed as a CQ (head terms + body atoms; a
// DatalogRule has no comparison atoms). One call yields both the cache-key
// signature and the renaming (CanonicalCq::order maps canonical id -> rule
// VarId), so the key and the attribute remap can never desynchronize.
CanonicalCq CanonicalizeRule(const DatalogRule& rule) {
  ConjunctiveQuery cq;
  cq.head = rule.head.terms;
  cq.body = rule.body;
  return CanonicalizeCq(cq);
}

// In-place attribute renaming over a freshly cloned plan DAG (map[old] =
// new id; every attr of a rule plan is a rule body variable, so the map is
// total for them).
void RemapPlanAttrs(PlanNode* n, const std::vector<AttrId>& map,
                    std::unordered_map<const PlanNode*, bool>* visited) {
  if ((*visited)[n]) return;
  (*visited)[n] = true;
  for (AttrId& a : n->attrs) {
    if (a >= 0 && static_cast<size_t>(a) < map.size()) a = map[a];
  }
  for (const PlanNodePtr& c : n->children) {
    RemapPlanAttrs(c.get(), map, visited);
  }
}

// Clones `plan` and renames its attributes through `map` (rebinding scan
// join-index pointers to `slot_caches` when given).
PlanNodePtr CloneRemapped(const PlanNode& plan, const std::vector<AttrId>& map,
                          const std::vector<JoinIndexCache*>* slot_caches) {
  PlanNodePtr out = ClonePlan(plan, slot_caches);
  std::unordered_map<const PlanNode*, bool> visited;
  RemapPlanAttrs(out.get(), map, &visited);
  return out;
}

// Tuples one variant firing derived (fired == false: skipped because a body
// atom was empty). Materialized — holds no views of IDB storage — so the
// round barrier can apply results after concurrent firings completed.
struct FiringResult {
  bool fired = false;
  Relation derived{0};
};

// One semi-naive fixpoint run: IDB state, the EDB atom cache, and the cached
// per-(rule, delta position) body plans the shared executor re-runs every
// iteration. With a scheduler bound (EvalContext::runtime), each round's
// variants fire as concurrent tasks: firings read the round-stable IDB/delta
// state and return materialized FiringResults, which the round barrier
// applies in variant order — so the derived tuple sets (and the fixpoint)
// are exactly the sequential ones.
class DatalogRun {
 public:
  DatalogRun(const Database& db, const DatalogProgram& program,
             const EvalContext& ctx, const DatalogOptions& options,
             DatalogStats* stats, PlanStats* plan_stats)
      : db_(db),
        program_(program),
        ctx_(ctx),
        options_(options),
        stats_(stats),
        plan_stats_(plan_stats) {}

  Result<Relation> Run() {
    TraceSpan route_span(ctx_.runtime.tracer, "route.datalog");
    PQ_RETURN_NOT_OK(program_.Validate());
    for (const std::string& name : program_.IdbRelations()) {
      size_t arity = static_cast<size_t>(program_.ArityOf(name));
      idb_.emplace(name, RowHashSet(arity));
      delta_.emplace(name, Relation(arity));
    }
    edb_views_.resize(program_.rules.size());
    plans_.resize(program_.rules.size());
    for (size_t ri = 0; ri < program_.rules.size(); ++ri) {
      edb_views_[ri].resize(program_.rules[ri].body.size());
    }
    const uint64_t max_total_rows = ctx_.limits.max_rows;

    // Iteration 0: fire every rule on the (empty) IDB state so EDB-only
    // rules seed the deltas.
    bool changed = false;
    std::unordered_map<std::string, Relation> next_delta;
    for (const auto& [name, rel] : delta_) {
      next_delta.emplace(name, Relation(rel.arity()));
    }
    std::vector<std::pair<size_t, int>> variants;
    for (size_t ri = 0; ri < program_.rules.size(); ++ri) {
      variants.emplace_back(ri, /*delta_pos=*/-1);
    }
    PQ_RETURN_NOT_OK(FireRound(variants, &next_delta, &changed));
    delta_ = std::move(next_delta);
    size_t iterations = 1;

    // Semi-naive loop: a rule with IDB body atoms re-fires once per IDB body
    // position, substituting the delta at that position.
    while (changed) {
      // Round-boundary poll: a deadline/cancel/budget abort ends the
      // fixpoint within one semi-naive round.
      PQ_RETURN_NOT_OK(ctx_.runtime.CheckInterrupt());
      if (options_.max_iterations != 0 &&
          iterations >= options_.max_iterations) {
        return Status::ResourceExhausted("Datalog iteration limit exceeded");
      }
      changed = false;
      next_delta.clear();
      for (const auto& [name, rel] : delta_) {
        next_delta.emplace(name, Relation(rel.arity()));
      }
      variants.clear();
      for (size_t ri = 0; ri < program_.rules.size(); ++ri) {
        const DatalogRule& rule = program_.rules[ri];
        std::vector<size_t> idb_positions;
        for (size_t i = 0; i < rule.body.size(); ++i) {
          if (program_.IsIdb(rule.body[i].relation)) idb_positions.push_back(i);
        }
        if (idb_positions.empty()) continue;  // saturated at round 0
        for (size_t dpos : idb_positions) {
          if (delta_.at(rule.body[dpos].relation).empty()) continue;
          variants.emplace_back(ri, static_cast<int>(dpos));
        }
      }
      PQ_RETURN_NOT_OK(FireRound(variants, &next_delta, &changed));
      delta_ = std::move(next_delta);
      ++iterations;
      if (max_total_rows != 0) {
        size_t total = 0;
        for (const auto& [name, set] : idb_) total += set.size();
        if (total > max_total_rows) {
          return Status::ResourceExhausted("Datalog derived-tuple limit");
        }
      }
    }

    if (stats_ != nullptr) {
      stats_->iterations = iterations;
      stats_->derived_tuples = 0;
      for (const auto& [name, set] : idb_) {
        stats_->derived_tuples += set.size();
      }
    }
    return SortAnswers(idb_.at(program_.goal).TakeRelation(), ctx_.runtime);
  }

 private:
  // Lazily binds (rule, position) to the program-wide EDB cache. Resolution
  // stays lazy (body order, short-circuited by empty earlier atoms) so that
  // rules which can never fire do not turn a dangling EDB reference into an
  // error — matching per-firing resolution. Cache and slot state are
  // guarded by edb_mutex_, but the O(n) materialization itself runs outside
  // the lock so concurrent firings (e.g. the whole first round) build
  // DISTINCT atoms in parallel; a same-signature race costs one discarded
  // duplicate materialization, decided by a re-check under the lock.
  Result<RuleAtomView*> ResolveEdb(size_t ri, size_t pi) {
    PQ_FAULT_POINT("datalog.edb");
    {
      std::lock_guard<std::mutex> lock(edb_mutex_);
      RuleAtomView& slot = edb_views_[ri][pi];
      if (slot.entry != nullptr) return &slot;
    }
    const Atom& a = program_.rules[ri].body[pi];
    auto found = db_.FindRelation(a.relation);
    if (!found.ok()) {
      return Status::NotFound(internal::StrCat(
          "EDB relation '", a.relation, "' not found in database"));
    }
    if (db_.relation(found.value()).arity() != a.terms.size()) {
      return Status::InvalidArgument(internal::StrCat(
          "EDB relation '", a.relation, "' arity mismatch"));
    }
    std::string sig = AtomSignature(found.value(), a);
    EdbAtomEntry* entry = nullptr;
    {
      std::lock_guard<std::mutex> lock(edb_mutex_);
      auto it = edb_by_signature_.find(sig);
      if (it != edb_by_signature_.end()) {
        entry = it->second;
        if (stats_ != nullptr) ++stats_->edb_cache_hits;
      }
    }
    if (entry == nullptr) {
      PQ_ASSIGN_OR_RETURN(NamedRelation rel,
                          AtomToRelation(db_.relation(found.value()), a));
      // The cache lives for the whole fixpoint; drop the full-base-relation
      // capacity AtomToRelation reserved in case the selection kept few rows
      // (a no-op when the materialization shares the stored relation's
      // storage or its cached set form).
      rel.rel().ShrinkToFit();
      std::lock_guard<std::mutex> lock(edb_mutex_);
      auto it = edb_by_signature_.find(sig);
      if (it != edb_by_signature_.end()) {
        entry = it->second;  // lost the race: another firing built it
        if (stats_ != nullptr) ++stats_->edb_cache_hits;
      } else {
        edb_storage_.emplace_back();  // in place: the index cache is immovable
        edb_storage_.back().rel = std::move(rel);
        entry = &edb_storage_.back();
        edb_by_signature_.emplace(std::move(sig), entry);
        if (stats_ != nullptr) ++stats_->edb_materializations;
      }
    }
    // This atom's view: same shared rows, this rule's variable names. The
    // canonical entry and the atom have the same variable pattern, so the
    // distinct variables map positionally.
    std::vector<AttrId> vars;
    for (const Term& t : a.terms) {
      if (t.is_var() &&
          std::find(vars.begin(), vars.end(), t.var()) == vars.end()) {
        vars.push_back(t.var());
      }
    }
    std::lock_guard<std::mutex> lock(edb_mutex_);
    RuleAtomView& slot = edb_views_[ri][pi];
    if (slot.entry == nullptr) {  // delta variants of one rule share a slot
      slot.view = entry->rel.WithAttrs(std::move(vars));
      slot.entry = entry;
    }
    return &slot;
  }

  void AddNew(const std::string& rel_name, const Relation& tuples,
              std::unordered_map<std::string, Relation>* next_delta,
              bool* changed) {
    RowHashSet& full = idb_.at(rel_name);
    Relation& fresh = next_delta->at(rel_name);
    for (size_t r = 0; r < tuples.size(); ++r) {
      if (full.Insert(tuples.Row(r))) {
        fresh.Add(tuples.Row(r));
        *changed = true;
      }
    }
    // Each row entered `full` as new, so next round's AtomToRelation over
    // the delta skips its hash pass.
    fresh.MarkDuplicateFree();
  }

  // Bumps a DatalogStats counter (concurrent firings share the struct).
  void Count(size_t DatalogStats::* counter) {
    if (stats_ == nullptr) return;
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++(stats_->*counter);
  }

  // Fires rule `ri`, reading the delta at body position `delta_pos` (or the
  // full IDB state everywhere when -1), WITHOUT touching IDB state: the
  // result is materialized and applied by the caller. The (rule, delta
  // position) body plan is built on the variant's first feasible firing,
  // re-executed on the re-bound input slots afterwards, and rebuilt when
  // the observed delta size drifts >10x from the size it was planned at.
  // `plan_stats` (nullable) receives this firing's executor counters.
  Result<FiringResult> ComputeVariant(size_t ri, int delta_pos,
                                      PlanStats* plan_stats) {
    PQ_FAULT_POINT("datalog.firing");
    const DatalogRule& rule = program_.rules[ri];
    TraceSpan firing_span(
        ctx_.runtime.tracer, "firing",
        ctx_.runtime.tracer != nullptr
            ? internal::StrCat(rule.head.relation, " delta=", delta_pos)
            : std::string());
    FiringResult out;
    if (rule.body.empty()) {
      // Constant-only head (safety): derive it directly.
      Count(&DatalogStats::rule_firings);
      NamedRelation truth = BooleanTrue();
      out.fired = true;
      out.derived =
          BindingsToAnswers(truth, rule.head.terms, /*sort_output=*/false);
      return out;
    }
    // Resolve the body inputs in order; an empty atom skips the firing (and
    // leaves later atoms unresolved). The views live in a local scratch —
    // they may share storage with the round-stable IDB state, which no
    // firing mutates.
    std::deque<NamedRelation> scratch;
    std::vector<const NamedRelation*> inputs(rule.body.size(), nullptr);
    std::vector<JoinIndexCache*> caches(rule.body.size(), nullptr);
    bool feasible = true;
    for (size_t i = 0; i < rule.body.size(); ++i) {
      const Atom& a = rule.body[i];
      if (program_.IsIdb(a.relation)) {
        const Relation& src = (static_cast<int>(i) == delta_pos)
                                  ? delta_.at(a.relation)
                                  : idb_.at(a.relation).rel();
        PQ_ASSIGN_OR_RETURN(NamedRelation rel, AtomToRelation(src, a));
        scratch.push_back(std::move(rel));
        inputs[i] = &scratch.back();
      } else {
        PQ_ASSIGN_OR_RETURN(RuleAtomView * slot, ResolveEdb(ri, i));
        inputs[i] = &slot->view;
        caches[i] = &slot->entry->indexes;
      }
      if (inputs[i]->empty()) {
        feasible = false;
        break;
      }
    }
    if (!feasible) {
      Count(&DatalogStats::skipped_firings);
      return out;
    }
    // Concurrent firings touch distinct variants; the map node was created
    // before the round fan-out (FireRound), so this lookup is read-only.
    VariantPlan& variant = plans_[ri].at(delta_pos);
    size_t observed =
        delta_pos >= 0 ? inputs[delta_pos]->size() : 0;
    bool drifted =
        variant.plan != nullptr && delta_pos >= 0 &&
        (observed > 10 * variant.planned_delta_rows ||
         10 * observed < variant.planned_delta_rows);
    if (variant.plan == nullptr || drifted) {
      bool first_build = variant.plan == nullptr;
      // Cross-run reuse: a previous program (or a previous run of this one)
      // may have compiled a renaming-equivalent variant. The hit is cloned
      // into this run with canonical ids mapped onto this rule's variables
      // and join-index pointers rebound; a hit whose recorded delta size
      // already drifts >10x from what we observe is ignored (we re-plan).
      std::string cache_key;
      CanonicalCq canonical;
      bool from_cache = false;
      if (ctx_.plan_cache != nullptr) {
        canonical = CanonicalizeRule(rule);
        cache_key = internal::StrCat("rule:", PlannerCacheTag(ctx_.planner),
                                     canonical.signature, "|d", delta_pos);
        if (first_build) {
          auto cached = ctx_.plan_cache->Lookup<CachedRulePlan>(
              cache_key, db_);
          if (cached != nullptr) {
            // Reject the hit if ANY input slot — not just the delta — has
            // drifted >10x from the sizes the plan was costed at.
            bool cache_drift =
                cached->planned_sizes.size() != inputs.size();
            for (size_t i = 0; !cache_drift && i < inputs.size(); ++i) {
              size_t planned = cached->planned_sizes[i];
              size_t now = inputs[i]->size();
              cache_drift = now > 10 * planned || 10 * now < planned;
            }
            if (!cache_drift) {
              variant.plan =
                  CloneRemapped(*cached->plan, canonical.order, &caches);
              variant.planned_delta_rows = cached->planned_delta_rows;
              from_cache = true;
            }
          }
        }
      }
      if (!from_cache) {
        std::vector<std::vector<AttrId>> attrs;
        std::vector<size_t> sizes;
        std::vector<std::vector<double>> distinct;
        for (const NamedRelation* in : inputs) {
          attrs.push_back(in->attrs());
          sizes.push_back(in->size());
          std::vector<double> d;
          d.reserve(in->arity());
          for (size_t c = 0; c < in->arity(); ++c) {
            d.push_back(static_cast<double>(in->rel().DistinctCount(c)));
          }
          distinct.push_back(std::move(d));
        }
        PQ_ASSIGN_OR_RETURN(
            variant.plan,
            PlanRuleBody(rule, attrs, sizes, caches, delta_pos, distinct,
                         &db_.dict()));
        variant.planned_delta_rows = observed;
        if (ctx_.plan_cache != nullptr) {
          // Publish the canonical form: rule var -> canonical id is the
          // inverse of the canonical order.
          std::vector<AttrId> inverse(rule.vars.size(), -1);
          for (size_t i = 0; i < canonical.order.size(); ++i) {
            inverse[canonical.order[i]] = static_cast<AttrId>(i);
          }
          auto entry = std::make_shared<CachedRulePlan>();
          // Strip the run-local join-index pointers from the published copy
          // (an empty slot table rebinds every scan to nullptr); the hit
          // path binds the consuming run's own caches.
          static const std::vector<JoinIndexCache*> kNoCaches;
          entry->plan = CloneRemapped(*variant.plan, inverse, &kNoCaches);
          entry->planned_delta_rows = observed;
          entry->planned_sizes = sizes;
          PQ_FAULT_POINT("datalog.cache.insert");
          // Dependency stamps come from the rule's EDB body atoms (IDB
          // names do not resolve and carry no stamp — their content is
          // run-local, not the database's).
          ctx_.plan_cache->Insert(cache_key, db_, canonical.query,
                                  std::move(entry));
        }
      }
      // A cross-run cache hit built nothing (it cloned) — that is a reuse;
      // plans_built keeps meaning "PlanRuleBody invocations". The firing
      // identity rule_firings = plans_built + plan_reuses + replans holds
      // either way.
      Count(from_cache ? &DatalogStats::plan_reuses
                       : (first_build ? &DatalogStats::plans_built
                                      : &DatalogStats::replans));
    } else {
      Count(&DatalogStats::plan_reuses);
    }
    Count(&DatalogStats::rule_firings);
    // Both guard members apply inside a firing (per-operator rows and the
    // step meter); max_rows additionally bounds the total derived tuples,
    // checked per iteration in Run().
    ExecContext exec{inputs, ctx_.limits, plan_stats, ctx_.runtime};
    PQ_ASSIGN_OR_RETURN(NamedRelation bindings,
                        ExecutePlan(*variant.plan, exec));
    out.fired = true;
    out.derived =
        BindingsToAnswers(std::move(bindings), rule.head.terms,
                          /*sort_output=*/false);
    return out;
  }

  // Fires the round's variants — sequentially without a scheduler
  // (derivations apply after each firing, exactly the historical
  // behavior), as concurrent tasks otherwise (derivations apply in variant
  // order after the barrier). The first error in variant order wins and
  // cancels outstanding tasks.
  Status FireRound(const std::vector<std::pair<size_t, int>>& variants,
                   std::unordered_map<std::string, Relation>* next_delta,
                   bool* changed) {
    PQ_FAULT_POINT("datalog.round");
    TraceSpan round_span(
        ctx_.runtime.tracer, "round",
        ctx_.runtime.tracer != nullptr
            ? internal::StrCat("round=", rounds_fired_++,
                               " variants=", variants.size())
            : std::string());
    // Materialize the variant plan slots up front so concurrent firings
    // never mutate a rule's variant map structurally.
    for (const auto& [ri, dpos] : variants) plans_[ri].try_emplace(dpos);
    if (!ctx_.runtime.parallel() || variants.size() <= 1) {
      for (const auto& [ri, dpos] : variants) {
        PQ_ASSIGN_OR_RETURN(FiringResult fr,
                            ComputeVariant(ri, dpos, plan_stats_));
        if (fr.fired) {
          AddNew(program_.rules[ri].head.relation, fr.derived, next_delta,
                 changed);
        }
      }
      return Status::OK();
    }
    std::vector<std::optional<Result<FiringResult>>> results(variants.size());
    std::vector<PlanStats> local(variants.size());
    {
      TaskGroup group(ctx_.runtime.scheduler);
      for (size_t i = 0; i < variants.size(); ++i) {
        group.Spawn([&, i] {
          auto [ri, dpos] = variants[i];
          results[i].emplace(ComputeVariant(
              ri, dpos, plan_stats_ != nullptr ? &local[i] : nullptr));
          if (!results[i]->ok()) group.Cancel();
        });
      }
      group.Wait();
    }
    if (plan_stats_ != nullptr) {
      plan_stats_->parallel_tasks += variants.size();
      for (const PlanStats& ps : local) plan_stats_->Merge(ps);
    }
    for (const std::optional<Result<FiringResult>>& r : results) {
      if (r.has_value()) PQ_RETURN_NOT_OK(r->status());
    }
    for (size_t i = 0; i < variants.size(); ++i) {
      if (!results[i].has_value()) continue;
      const FiringResult& fr = results[i]->value();
      if (fr.fired) {
        AddNew(program_.rules[variants[i].first].head.relation, fr.derived,
               next_delta, changed);
      }
    }
    return Status::OK();
  }

  const Database& db_;
  const DatalogProgram& program_;
  const EvalContext& ctx_;
  const DatalogOptions& options_;
  DatalogStats* stats_;
  PlanStats* plan_stats_;

  std::unordered_map<std::string, RowHashSet> idb_;
  std::unordered_map<std::string, Relation> delta_;

  /// Serializes lazy EDB resolution across concurrent firings.
  std::mutex edb_mutex_;
  /// Serializes DatalogStats counter bumps across concurrent firings.
  std::mutex stats_mutex_;
  std::deque<EdbAtomEntry> edb_storage_;
  std::unordered_map<std::string, EdbAtomEntry*> edb_by_signature_;
  std::vector<std::vector<RuleAtomView>> edb_views_;
  /// plans_[rule][delta_pos] (-1 = the round-0 full-state variant).
  std::vector<std::map<int, VariantPlan>> plans_;
  /// Round ordinal for the tracer's per-round span details.
  size_t rounds_fired_ = 0;
};

}  // namespace

Result<Relation> EvaluateDatalog(const Database& db,
                                 const DatalogProgram& program,
                                 const EvalContext& ctx,
                                 const DatalogOptions& options,
                                 DatalogStats* stats, PlanStats* plan_stats) {
  DatalogRun run(db, program, ctx, options, stats, plan_stats);
  return run.Run();
}

}  // namespace paraquery
