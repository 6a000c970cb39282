#include "common.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <thread>

#include <time.h>

#include "util/rss.h"

// --- counting allocator --------------------------------------------------------
// Replaces the global operator new so the traced ladders can report heap
// allocations per call.  Counting is gated by a flag; the counter is a
// relaxed atomic because campaign shards allocate from two threads.
namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) & ~(a - 1))) return p;
  throw std::bad_alloc{};
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
// The nothrow forms are replaced too, so every allocation the deletes below
// free came from malloc (std::stable_sort's temporary buffer uses them).
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  try {
    return counted_aligned_alloc(size, align);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t& tag) noexcept {
  return ::operator new(size, align, tag);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace aarsbench {

void Outcome::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  // Keep the report short when one fault repeats every round.
  if (errors.size() < 20) errors.push_back(what);
}

void Outcome::add(const std::string& name, double value,
                  const std::string& unit) {
  metrics.push_back(Metric{name, value, unit});
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

namespace {
std::int64_t clock_ns(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}
}  // namespace

std::int64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }

double process_cpu_seconds() {
  return static_cast<double>(clock_ns(CLOCK_PROCESS_CPUTIME_ID)) / 1e9;
}

void BestSlices::record(std::size_t slice, std::int64_t ns) {
  if (slice >= best_ns_.size()) best_ns_.resize(slice + 1, -1);
  std::int64_t& best = best_ns_[slice];
  if (best < 0 || ns < best) best = ns;
}

double BestSlices::round_seconds() const {
  std::int64_t total = 0;
  for (const std::int64_t ns : best_ns_) total += ns;
  return static_cast<double>(total) / 1e9;
}

double peak_rss_mb() {
  return static_cast<double>(aars::util::peak_rss_kb()) / 1024.0;
}

void set_alloc_counting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

std::uint64_t alloc_count() { return g_allocs.load(std::memory_order_relaxed); }

namespace {
// A dependent integer chain the optimiser cannot fold away.
std::uint64_t spin(std::uint64_t iterations, std::uint64_t seed) {
  std::uint64_t x = seed | 1;
  for (std::uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}
}  // namespace

double spin_parallelism() {
  constexpr std::uint64_t kWork = 100'000'000;
  std::atomic<std::uint64_t> sink{0};
  const std::int64_t t1_start = now_ns();
  sink += spin(kWork, 1);
  const double t1 = seconds_since(t1_start);
  const std::int64_t t2_start = now_ns();
  std::thread other([&sink] { sink += spin(kWork, 2); });
  sink += spin(kWork, 3);
  other.join();
  const double t2 = seconds_since(t2_start);
  return t2 > 0 && sink.load() != 0 ? 2.0 * t1 / t2 : 0.0;
}

void log_rates(const std::string& workload, const std::vector<double>& rates) {
  if (rates.empty()) return;
  std::vector<double> v = rates;
  std::sort(v.begin(), v.end());
  const auto at = [&v](double q) {
    return v[static_cast<std::size_t>(q * static_cast<double>(v.size() - 1))];
  };
  std::fprintf(stderr,
               "aarsbench: %s %zu rounds, op/s min %.4g q1 %.4g median %.4g "
               "q3 %.4g max %.4g\n",
               workload.c_str(), v.size(), v.front(), at(0.25), at(0.5),
               at(0.75), v.back());
}

double slope(const std::vector<double>& xs, const std::vector<double>& ys) {
  const std::size_t n = xs.size();
  if (n < 2 || ys.size() != n) return 0.0;
  double mx = 0, my = 0;
  for (std::size_t i = 0; i < n; ++i) {
    mx += xs[i];
    my += ys[i];
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxy = 0, sxx = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sxy += (xs[i] - mx) * (ys[i] - my);
    sxx += (xs[i] - mx) * (xs[i] - mx);
  }
  return sxx > 0 ? sxy / sxx : 0.0;
}

}  // namespace aarsbench
