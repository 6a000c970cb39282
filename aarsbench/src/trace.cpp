#include "trace.h"

#include <cstdio>
#include <memory>

#include "common.h"

namespace aarsbench {

Tracer::Tracer(bool enabled) : enabled_(enabled) {
  if (enabled_) spans_.reserve(kMaxStored);
}

void Tracer::begin(const char* name, std::uint64_t op) {
  const std::int64_t start = now_ns();
  std::int64_t stored = -1;
  if (spans_.size() < kMaxStored) {
    stored = static_cast<std::int64_t>(spans_.size());
    const std::int64_t parent = stack_.empty() ? -1 : stack_.back().stored;
    spans_.push_back(Span{name, start, start, parent, op});
  } else {
    ++dropped_;
  }
  stack_.push_back(Open{name, start, stored, 0});
}

void Tracer::end() {
  const std::int64_t end = now_ns();
  const Open open = stack_.back();
  stack_.pop_back();
  const std::int64_t duration = end - open.start_ns;
  if (open.stored >= 0) spans_[static_cast<std::size_t>(open.stored)].end_ns = end;
  auto it = totals_.begin();
  while (it != totals_.end() && it->first != open.name) ++it;
  if (it == totals_.end()) it = totals_.insert(it, {open.name, Totals{}});
  Totals& t = it->second;
  if (t.count == 0 || duration < t.min_ns) t.min_ns = duration;
  ++t.count;
  t.total_ns += duration;
  t.self_ns += duration - open.child_ns;
  if (!stack_.empty()) stack_.back().child_ns += duration;
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  std::map<std::string, Totals> merged;
  for (const auto& [name, t] : totals_) {
    Totals& m = merged[name];
    if (m.count == 0 || t.min_ns < m.min_ns) m.min_ns = t.min_ns;
    m.count += t.count;
    m.total_ns += t.total_ns;
    m.self_ns += t.self_ns;
  }
  return merged;
}

double Tracer::mean_self_ns(const std::string& name) const {
  const std::map<std::string, Totals> all = totals();
  const auto it = all.find(name);
  if (it == all.end() || it->second.count == 0) return 0.0;
  return static_cast<double>(it->second.self_ns) /
         static_cast<double>(it->second.count);
}

double Tracer::min_ns(const std::string& name) const {
  const std::map<std::string, Totals> all = totals();
  const auto it = all.find(name);
  if (it == all.end()) return 0.0;
  return static_cast<double>(it->second.min_ns);
}

bool Tracer::write(const std::string& path, const std::string& workload,
                   std::uint64_t seed) const {
  std::unique_ptr<FILE, int (*)(FILE*)> f(std::fopen(path.c_str(), "w"),
                                          &std::fclose);
  if (!f) return false;
  std::fprintf(f.get(),
               "{\"workload\": \"%s\", \"seed\": %llu, \"dropped\": %llu,\n"
               " \"totals\": {",
               workload.c_str(), static_cast<unsigned long long>(seed),
               static_cast<unsigned long long>(dropped_));
  bool first = true;
  for (const auto& [name, t] : totals()) {
    std::fprintf(f.get(),
                 "%s\n  \"%s\": {\"count\": %llu, \"total_ns\": %lld, "
                 "\"self_ns\": %lld, \"min_ns\": %lld}",
                 first ? "" : ",", name.c_str(),
                 static_cast<unsigned long long>(t.count),
                 static_cast<long long>(t.total_ns),
                 static_cast<long long>(t.self_ns),
                 static_cast<long long>(t.min_ns));
    first = false;
  }
  std::fprintf(f.get(), "},\n \"spans\": [");
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f.get(),
                 "%s\n  {\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": "
                 "%lld, \"parent\": %lld, \"op\": %llu}",
                 i == 0 ? "" : ",", s.name,
                 static_cast<long long>(s.start_ns - origin),
                 static_cast<long long>(s.end_ns - origin),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.op));
  }
  std::fprintf(f.get(), "\n]}\n");
  return std::ferror(f.get()) == 0;
}

}  // namespace aarsbench
