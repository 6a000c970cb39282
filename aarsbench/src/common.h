// Shared plumbing of the aars benchmark: run configuration, the result
// record every workload fills, host clocks and memory probes, and the
// heap-allocation counter the traced ladders read.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace aarsbench {

/// Command-line settings of one run.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans ("" = do not write).
  std::string trace_path;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports.  `correct` covers every output check;
/// each failed check leaves one line in `errors`.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;

  void check(bool ok, const std::string& what);
  void add(const std::string& name, double value, const std::string& unit);
};

/// Monotonic wall clock in nanoseconds.  It bounds the measured phase and
/// stamps the tracer's spans.
std::int64_t now_ns();
double seconds_since(std::int64_t start_ns);

/// CPU time of the calling thread in nanoseconds.  Every timed round runs on
/// the main thread, so time other processes take from the host's cores does
/// not count in a round's rate.
std::int64_t thread_cpu_ns();

/// CPU seconds this process has used since it started: the cold set-up time
/// when read at the end of the set-up, which runs on the main thread alone.
double process_cpu_seconds();

/// The fastest CPU time of each slice of a round over every replay of it.
/// Every round replays the same work slice by slice, and other tenants of
/// the host only ever slow a slice down, so the sum of the per-slice minima
/// is the steady cost of one round.  CPU time alone does not remove them: a
/// vCPU whose physical core another tenant shares runs slower for seconds
/// at a time, and its thread's CPU time grows with it.
class BestSlices {
 public:
  void record(std::size_t slice, std::int64_t ns);
  /// Sum over slices of their fastest time, in seconds.
  double round_seconds() const;

 private:
  std::vector<std::int64_t> best_ns_;  // -1 until a slice is recorded
};

/// Times the slices of one round, in order, by the calling thread's CPU
/// time, and records each in `best` when one is given.
class SliceTimer {
 public:
  explicit SliceTimer(BestSlices* best) : best_(best) {}

  template <typename Step>
  void run(const Step& step) {
    const std::int64_t start = thread_cpu_ns();
    step();
    const std::int64_t ns = thread_cpu_ns() - start;
    if (best_ != nullptr) best_->record(slice_, ns);
    ++slice_;
    total_ns_ += ns;
  }
  /// CPU seconds of every slice run so far.
  double seconds() const { return static_cast<double>(total_ns_) / 1e9; }

 private:
  BestSlices* best_;
  std::size_t slice_ = 0;
  std::int64_t total_ns_ = 0;
};

/// Peak resident set size of this process in MiB.
double peak_rss_mb();

/// Counting of global operator new calls.  Off by default so untraced runs
/// pay one predictable branch per allocation and no shared-counter traffic.
void set_alloc_counting(bool on);
std::uint64_t alloc_count();

/// Usable parallelism of the host: the same spin work on 1 thread and on
/// 2 threads at once; returns 2 * t(1 thread) / t(2 threads), so 2.0 means
/// two full cores and 1.0 means the second thread gained nothing.
double spin_parallelism();

/// One stderr line summarising per-round rates (min / quartiles / max), so
/// a noisy run can be told from a slow one.
void log_rates(const std::string& workload, const std::vector<double>& rates);

/// Least-squares slope of ys over xs.
double slope(const std::vector<double>& xs, const std::vector<double>& ys);

}  // namespace aarsbench
