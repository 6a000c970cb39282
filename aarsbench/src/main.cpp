// aarsbench — one workload, one seed, one process.
//
//   aarsbench --workload relay|campaign|storm --seed N --seconds S
//             --trace 0|1 [--trace-out PATH]
//
// Prints progress and failed checks on stderr and, as the last line of
// stdout, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Untraced runs report the end-to-end metrics, traced runs the per-layer
// metrics.  Exits 1 when any output check failed, 2 on bad arguments.
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <set>
#include <string>

#include "common.h"
#include "workloads.h"

namespace aarsbench {
namespace {

// Every per-layer metric, in BENCHMARK.json order.  A workload reports the
// layers it exercises; the rest read 0 ("layer not exercised here").
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kPerLayer[] = {
    {"host.parallelism", "cores"},
    {"trace.ops_per_s", "op/s"},
    {"component.handler_ns", "ns"},
    {"connector.relay_ns", "ns"},
    {"adapt.interceptor_ns", "ns"},
    {"adapt.allocs_per_interceptor", "count"},
    {"runtime.queued_ns", "ns"},
    {"runtime.allocs_per_call", "count"},
    {"obs.ns_per_call", "ns"},
    {"obs.bytes_per_call", "B"},
    {"sim.network_ns", "ns"},
    {"sim.event_ns", "ns"},
    {"api.build_ms", "ms"},
    {"scenario.start_ms", "ms"},
    {"sim.events", "count"},
    {"sim.events_per_op", "count"},
    {"sim.ns_per_event", "ns"},
    {"shard.windows", "count"},
    {"shard.cross_delivered", "count"},
    {"shard.speedup", "x"},
    {"obs.share", "ratio"},
    {"sim.pending_peak", "count"},
    {"obs.samples_retained", "count"},
    {"telecom.sessions", "count"},
    {"telecom.frames", "count"},
    {"scenario.handovers", "count"},
    {"adl.compile_ms", "ms"},
    {"analysis.explore_ms", "ms"},
    {"analysis.explore_configs", "count"},
    {"analysis.verify_us", "us"},
    {"meta.rule_evaluations", "count"},
    {"reconfig.fired", "count"},
    {"reconfig.committed", "count"},
    {"reconfig.rolled_back", "count"},
    {"reconfig.undo_steps", "count"},
    {"reconfig.commit_ratio", "ratio"},
    {"reconfig.held_per_firing", "count"},
    {"runtime.calls_failed", "count"},
};

constexpr LayerMetric kEndToEnd[] = {
    {"setup_s", "s"},
    {"ops_per_s", "op/s"},
    {"sim_p99_ms", "ms"},
    {"peak_rss_mb", "MiB"},
};

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

int usage(const char* why) {
  std::fprintf(stderr,
               "aarsbench: %s\nusage: aarsbench --workload relay|campaign|"
               "storm --seed N --seconds S --trace 0|1 "
               "[--trace-out PATH]\n",
               why);
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  const char* end = s + std::strlen(s);
  const auto res = std::from_chars(s, end, out);
  return res.ec == std::errc{} && res.ptr == end;
}

// Orders the reported metrics as the contract lists them, fills the
// per-layer metrics a workload does not exercise with 0, and rejects
// names the contract does not know.
template <std::size_t N>
void conform(Outcome& out, const LayerMetric (&names)[N]) {
  std::vector<Metric> ordered;
  std::set<std::string> known;
  for (const LayerMetric& m : names) {
    known.insert(m.name);
    double value = 0.0;
    for (const Metric& got : out.metrics) {
      if (got.name == m.name) value = got.value;
    }
    ordered.push_back(Metric{m.name, value, m.unit});
  }
  for (const Metric& got : out.metrics) {
    out.check(known.count(got.name) == 1,
              "internal: unknown metric " + got.name);
  }
  out.metrics = std::move(ordered);
}

}  // namespace
}  // namespace aarsbench

int main(int argc, char** argv) {
  using namespace aarsbench;
  RunConfig config;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!parse_u64(value, n)) return usage("--seed takes an integer");
      config.seed = n;
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!parse_u64(value, n) || n < 1 || n > 600) {
        return usage("--seconds takes an integer in [1, 600]");
      }
      config.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return usage("--trace takes 0 or 1");
      }
      config.trace = value[0] == '1';
      have_trace = true;
    } else if (flag == "--trace-out") {
      config.trace_path = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }

  Outcome out;
  try {
    if (config.workload == "relay") {
      out = run_relay(config);
    } else if (config.workload == "campaign") {
      out = run_campaign(config);
    } else if (config.workload == "storm") {
      out = run_storm(config);
    } else {
      return usage(("unknown workload " + config.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "aarsbench: %s failed: %s\n",
                 config.workload.c_str(), e.what());
    return 1;
  }
  if (config.trace) {
    conform(out, kPerLayer);
  } else {
    conform(out, kEndToEnd);
  }
  out.check(out.attempted >= 1, "no operation was attempted");

  for (const std::string& e : out.errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  }
  std::string line = std::string("{\"correct\": ") +
                     (out.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(out.attempted) +
                     ", \"failed\": " + std::to_string(out.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    line += (i ? ", " : "") + std::string("\"") + m.name +
            "\": {\"value\": " + number(m.value) + ", \"unit\": \"" + m.unit +
            "\"}";
  }
  line += "}}";
  std::fflush(stderr);
  std::printf("%s\n", line.c_str());
  return out.correct ? 0 : 1;
}
