#include "plan/vec_pipeline.hpp"

#include <algorithm>

namespace paraquery {

namespace {

// Walks the left spine from `node` down to its scan, appending vectorizable
// stages in sink-to-source order when `out` is non-null. `is_sink` is true
// only for the node directly under the Materialize boundary — the one place
// a deduplicating Project may appear (dedup runs on the materialized rows).
bool WalkChain(const PlanNode& node, bool is_sink,
               std::vector<const PlanNode*>* out) {
  switch (node.op) {
    case PlanOp::kScan:
      // Arity-0 (boolean) scans have no columns to stripe.
      return !node.attrs.empty();
    case PlanOp::kSelect:
      if (node.children.size() != 1) return false;
      if (out != nullptr) out->push_back(&node);
      return WalkChain(*node.children[0], /*is_sink=*/false, out);
    case PlanOp::kProject:
      if (node.children.size() != 1) return false;
      if (node.attrs.empty()) return false;
      if (node.dedup && !is_sink) return false;
      if (out != nullptr) out->push_back(&node);
      return WalkChain(*node.children[0], /*is_sink=*/false, out);
    case PlanOp::kHashJoin:
      if (node.children.size() != 2) return false;
      // A pushed post-filter would have to run row-at-a-time inside the
      // probe; keep those joins on the scalar kernel.
      if (!node.predicate.empty()) return false;
      // So would a fused projection or count (grouped kernels, not probe
      // stages).
      if (!JoinProjectedOut(node).empty() || IsJoinCount(node)) return false;
      if (node.attrs.empty() || node.children[0]->attrs.empty() ||
          node.children[1]->attrs.empty()) {
        return false;
      }
      if (out != nullptr) out->push_back(&node);
      return WalkChain(*node.children[0], /*is_sink=*/false, out);
    default:
      return false;
  }
}

}  // namespace

bool CompileVecPipeline(PlanNode& materialize, VecPipeline* out) {
  if (materialize.op != PlanOp::kMaterialize ||
      materialize.children.size() != 1) {
    return false;
  }
  std::vector<const PlanNode*> stages;
  if (!WalkChain(*materialize.children[0], /*is_sink=*/true, &stages)) {
    return false;
  }
  out->materialize = &materialize;
  out->stages.clear();
  out->stages.reserve(stages.size());
  // Collected sink-to-source; the runner wants source-to-sink.
  for (auto it = stages.rbegin(); it != stages.rend(); ++it) {
    out->stages.push_back(const_cast<PlanNode*>(*it));
  }
  // The leaf is the left spine's end.
  const PlanNode* leaf = materialize.children[0].get();
  while (leaf->op != PlanOp::kScan) leaf = leaf->children[0].get();
  out->source = const_cast<PlanNode*>(leaf);
  return true;
}

bool VecPipelineEligible(const PlanNode& chain_root) {
  return WalkChain(chain_root, /*is_sink=*/true, nullptr);
}

}  // namespace paraquery
