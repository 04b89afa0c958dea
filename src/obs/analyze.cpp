#include "obs/analyze.hpp"

#include <sstream>

#include "plan/plan.hpp"

namespace paraquery {

void PlanCapture::Note(const PlanNode& root, const VarTable* vars) {
  // Render outside the lock: RenderAnalyzedPlan only reads the plan, and
  // the executor guarantees one execution of a given root at a time.
  std::string render = RenderAnalyzedPlan(root, vars);
  std::lock_guard<std::mutex> lock(mutex_);
  NoteLocked(&root, std::move(render), 1);
}

void PlanCapture::Absorb(
    const PlanCapture& part,
    const std::function<const PlanNode*(const PlanNode*)>& canonical_of) {
  std::scoped_lock lock(mutex_, part.mutex_);
  for (const Entry& e : part.plans_) {
    NoteLocked(canonical_of(e.root), e.render, e.executions);
  }
  overflow_ += part.overflow_;
}

void PlanCapture::NoteLocked(const PlanNode* root, std::string render,
                             uint64_t executions) {
  for (Entry& e : plans_) {
    if (e.root == root) {
      e.render = std::move(render);
      e.executions += executions;
      return;
    }
  }
  if (plans_.size() >= kMaxPlans) {
    overflow_ += executions;
    return;
  }
  plans_.push_back(Entry{root, std::move(render), executions});
}

void PlanCapture::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  plans_.clear();
  overflow_ = 0;
  answer_sort_ns_.store(0, std::memory_order_relaxed);
}

std::string PlanCapture::Report() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream out;
  for (size_t i = 0; i < plans_.size(); ++i) {
    const Entry& e = plans_[i];
    out << "-- plan " << (i + 1) << " (executions=" << e.executions << ")\n";
    out << e.render;
  }
  if (overflow_ > 0) {
    out << "-- " << overflow_ << " further executions of uncaptured plans\n";
  }
  return out.str();
}

size_t PlanCapture::plan_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return plans_.size();
}

}  // namespace paraquery
