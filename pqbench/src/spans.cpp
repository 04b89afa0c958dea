#include "spans.hpp"

#include <sstream>

#include "common/timer.hpp"

namespace pqbench {

SpanLog::Scope::Scope(SpanLog* log, const char* name, std::string detail)
    : log_(log), index_(log->spans_.size()) {
  const int64_t parent =
      log->open_.empty() ? -1 : static_cast<int64_t>(log->open_.back());
  log->spans_.push_back({name, std::move(detail), log->op_, parent,
                         paraquery::NowNanos(), 0});
  log->open_.push_back(index_);
}

SpanLog::Scope::~Scope() {
  log_->spans_[index_].end_ns = paraquery::NowNanos();
  log_->open_.pop_back();
}

std::vector<uint64_t> SpanLog::SelfNanos() const {
  std::vector<uint64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  // Children of one parent run one after another on this thread, so the
  // part of the parent they cover is the sum of their durations.
  for (const Span& s : spans_) {
    if (s.parent >= 0) self[s.parent] -= s.end_ns - s.start_ns;
  }
  return self;
}

std::vector<double> SpanLog::Durations(const std::string& name, double scale,
                                       const std::string* detail) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name != s.name || (detail != nullptr && *detail != s.detail)) continue;
    out.push_back(static_cast<double>(s.end_ns - s.start_ns) * scale);
  }
  return out;
}

std::string SpanLog::ChromeJson() const {
  const std::vector<uint64_t> self = SelfNanos();
  const uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  std::ostringstream out;
  out << "{\"traceEvents\": [";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) out << ",";
    out << "\n{\"name\": \"" << s.name << "\", \"ph\": \"X\", \"pid\": 1, "
        << "\"tid\": 1, \"ts\": " << (s.start_ns - t0) / 1000.0
        << ", \"dur\": " << (s.end_ns - s.start_ns) / 1000.0
        << ", \"args\": {\"op\": " << s.op << ", \"span\": " << i
        << ", \"parent\": " << s.parent << ", \"self_us\": "
        << self[i] / 1000.0 << ", \"detail\": \"" << s.detail << "\"}}";
  }
  out << "\n]}\n";
  return out.str();
}

}  // namespace pqbench
