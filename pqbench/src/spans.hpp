// In-memory span log for the traced run. The benchmark opens a span around
// each call it makes into a layer's public functions; every span records a
// name, start, end, its parent span and the operation (query) it belongs
// to. Nothing is written until the run ends.
#ifndef PQBENCH_SPANS_H_
#define PQBENCH_SPANS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace pqbench {

class SpanLog {
 public:
  struct Span {
    const char* name;  // string literal
    std::string detail;
    uint64_t op;       // shared by all spans of one operation
    int64_t parent;    // index into spans(), -1 for a root
    uint64_t start_ns;
    uint64_t end_ns;
  };

  /// Opens a span on construction, closes it on destruction; spans opened
  /// while it is open become its children.
  class Scope {
   public:
    Scope(SpanLog* log, const char* name, std::string detail = {});
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    size_t index_;
  };

  /// Starts a new operation: later root spans carry its id.
  void BeginOp(uint64_t op) { op_ = op; }

  const std::vector<Span>& spans() const { return spans_; }

  /// Span duration minus the time its direct children cover, in ns.
  std::vector<uint64_t> SelfNanos() const;

  /// Durations (in `scale` units per ns, e.g. 1e-3 for us) of every span
  /// named `name`, optionally only those with detail `detail`.
  std::vector<double> Durations(const std::string& name, double scale,
                                const std::string* detail = nullptr) const;

  /// Chrome trace-event JSON ("X" events; args hold op, parent and self).
  std::string ChromeJson() const;

 private:
  std::vector<Span> spans_;
  std::vector<size_t> open_;
  uint64_t op_ = 0;
};

}  // namespace pqbench

#endif  // PQBENCH_SPANS_H_
