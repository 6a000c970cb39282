// Spans recorded by the benchmark around the calls it makes into each aars
// layer.  Spans live in memory and are written out once, when the run
// ends.  Per span name the tracer also keeps running totals of duration
// and self time (duration minus the time covered by child spans) and the
// fastest duration, so the per-layer metrics can be derived without keeping
// every span.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace aarsbench {

class Tracer {
 public:
  struct Span {
    const char* name = "";   // static string: one per layer boundary
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t parent = -1;  // index into spans(), -1 for a root
    std::uint64_t op = 0;      // operation id shared by one request's spans
  };
  struct Totals {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
    std::int64_t min_ns = 0;  // the fastest span
  };

  /// How many spans are kept for the output file; totals cover every span.
  static constexpr std::size_t kMaxStored = 100000;

  /// A disabled tracer records nothing.
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }
  /// Opens a span nested in the innermost open one.
  void begin(const char* name, std::uint64_t op);
  /// Closes the innermost open span.
  void end();

  /// Totals per span name.
  std::map<std::string, Totals> totals() const;
  /// Mean self time of spans named `name`, in ns (0 when none closed).
  double mean_self_ns(const std::string& name) const;
  /// Duration of the fastest span named `name`, in ns (0 when none closed).
  /// Spans that each cover the same block of work are compared this way:
  /// other tenants of the host only slow a block down.
  double min_ns(const std::string& name) const;
  /// Writes spans and totals as JSON; false when the file cannot be written.
  bool write(const std::string& path, const std::string& workload,
             std::uint64_t seed) const;

 private:
  struct Open {
    const char* name;
    std::int64_t start_ns;
    std::int64_t stored;  // index in spans_ or -1
    std::int64_t child_ns;
  };

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<Open> stack_;
  std::uint64_t dropped_ = 0;
  // Keyed by the name literal's address: a short linear scan, no string
  // construction on the traced hot path.  totals() merges equal names.
  std::vector<std::pair<const char*, Totals>> totals_;
};

/// RAII span; a no-op when the tracer is disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint64_t op = 0)
      : tracer_(tracer) {
    if (tracer_.enabled()) tracer_.begin(name, op);
  }
  ~ScopedSpan() {
    if (tracer_.enabled()) tracer_.end();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
};

}  // namespace aarsbench
