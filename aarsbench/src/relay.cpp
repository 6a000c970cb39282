// relay — one client in a closed loop of echo/ping calls over a 1 ms link
// to an EchoServer, through connectors carrying 0, 2 and 8 TagFilter
// interceptors, alternating sync runs and queued batches drained by the
// event loop.  It loads connector -> interceptor chain -> channel ->
// handler and barely touches sessions, rules or shards.
#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "adapt/filters.h"
#include "api/runtime.h"
#include "bench/testing_components.h"
#include "common.h"
#include "obs/metrics.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace aarsbench {
namespace {

using aars::Runtime;
using aars::bench_testing::EchoServer;
using aars::util::Duration;
using aars::util::Result;
using aars::util::Symbol;
using aars::util::Value;

constexpr std::size_t kInterceptors[] = {0, 2, 8};
constexpr std::size_t kConnectors = 3;
constexpr std::size_t kCallsPerRound = 16384;
// Untimed rounds in the set-up: pools, channel memos and allocator arenas
// reach their steady size before anything is measured.
constexpr std::uint64_t kWarmupRounds = 8;
constexpr Duration kLinkLatency = aars::util::milliseconds(1);

const Symbol kEcho{"echo"};
const Symbol kPing{"ping"};

struct Call {
  std::uint8_t conn = 0;
  bool echo = false;
  Value args;        // {"text": ...} for echo, null for ping
  std::string text;  // what echo must return
};

struct Segment {
  bool queued = false;
  std::size_t first = 0;
  std::size_t count = 0;
};

/// The seeded inputs of one round; every round replays them.
struct Plan {
  std::vector<Call> calls;
  std::vector<Segment> segments;
  std::array<std::uint64_t, kConnectors> per_conn{};
};

Plan make_plan(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto below = [&rng](std::uint64_t n) { return rng() % n; };
  Plan plan;
  plan.calls.reserve(kCallsPerRound);
  while (plan.calls.size() < kCallsPerRound) {
    Segment seg;
    seg.queued = below(2) == 1;
    seg.first = plan.calls.size();
    // Sync runs of 1..32 calls, queued batches of 1..64 outstanding calls.
    seg.count = std::min<std::size_t>(1 + below(seg.queued ? 64 : 32),
                                      kCallsPerRound - plan.calls.size());
    for (std::size_t i = 0; i < seg.count; ++i) {
      Call call;
      call.conn = static_cast<std::uint8_t>(below(kConnectors));
      call.echo = below(10) < 7;
      if (call.echo) {
        // Log-uniform text length in [8, 1024] bytes.
        const double u = static_cast<double>(below(1u << 20)) / (1u << 20);
        const auto len = static_cast<std::size_t>(8.0 * std::pow(128.0, u));
        call.text.resize(len);
        for (char& c : call.text) c = static_cast<char>('a' + below(26));
        call.args = Value::object({{"text", call.text}});
      }
      ++plan.per_conn[call.conn];
      plan.calls.push_back(std::move(call));
    }
    plan.segments.push_back(seg);
  }
  return plan;
}

struct World {
  std::unique_ptr<Runtime> rt;
  std::array<aars::util::ConnectorId, kConnectors> conns{};
  aars::util::NodeId client;
  aars::util::ComponentId server;
  // tags[k] holds the filters on connector k.
  std::array<std::vector<std::shared_ptr<aars::adapt::TagFilter>>,
             kConnectors>
      tags;
};

/// Client and server on two hosts joined by a 1 ms link (or both on one
/// host for the ladder's network-free rung); connector k carries
/// `interceptors[k]` TagFilters, each in its own FilterChain.
World make_world(std::uint64_t seed,
                 const std::vector<std::size_t>& interceptors,
                 bool same_host = false, bool metrics = true) {
  aars::sim::LinkSpec link;
  link.latency = kLinkLatency;
  auto builder = Runtime::builder();
  builder.metrics(metrics)
      .seed(seed)
      .host("client", 1e6)
      .host("server", 10000)
      .link("client", "server", link)
      .component_class<EchoServer>("EchoServer")
      .deploy("EchoServer", "echo", same_host ? "client" : "server");
  for (std::size_t k = 0; k < interceptors.size(); ++k) {
    aars::connector::ConnectorSpec spec;
    spec.name = "c" + std::to_string(k);
    builder.connect(spec, {"echo"});
  }
  World w;
  w.rt = builder.build().value();
  w.client = w.rt->host("client");
  w.server = w.rt->component("echo");
  for (std::size_t k = 0; k < interceptors.size(); ++k) {
    w.conns[k] = w.rt->connector("c" + std::to_string(k));
    aars::connector::Connector* conn = w.rt->app().find_connector(w.conns[k]);
    for (std::size_t i = 0; i < interceptors[k]; ++i) {
      auto chain = std::make_shared<aars::adapt::FilterChain>(
          "chain" + std::to_string(i));
      auto tag = std::make_shared<aars::adapt::TagFilter>(
          "tag" + std::to_string(i), "k" + std::to_string(i), Value{1});
      (void)chain->attach(tag);
      (void)conn->attach_interceptor(std::move(chain), static_cast<int>(i));
      w.tags[k].push_back(std::move(tag));
    }
  }
  return w;
}

struct Reply {
  bool done = false;
  bool ok = false;
  Value value;
  Duration latency = 0;
};

/// Runs one round of the plan; returns the main thread's CPU ns spent.
/// `replies` receives one entry per call.
std::int64_t run_round(World& w, const Plan& plan, std::vector<Reply>& replies,
                       Tracer& tracer, std::uint64_t op_base) {
  aars::runtime::Application& app = w.rt->app();
  replies.assign(plan.calls.size(), Reply{});
  const std::int64_t start = thread_cpu_ns();
  for (const Segment& seg : plan.segments) {
    if (!seg.queued) {
      for (std::size_t i = seg.first; i < seg.first + seg.count; ++i) {
        const Call& c = plan.calls[i];
        Reply& r = replies[i];
        {
          ScopedSpan span(tracer, "runtime.invoke_sync", op_base + i);
          auto out = app.invoke_sync(w.conns[c.conn], c.echo ? kEcho : kPing,
                                     c.args, w.client);
          r.done = true;
          r.ok = out.result.ok();
          if (r.ok) r.value = std::move(out.result).value();
          r.latency = out.latency;
        }
        // Closed loop: the client waits for the reply before its next call.
        ScopedSpan span(tracer, "sim.run_for", op_base + i);
        w.rt->run_for(r.latency);
      }
    } else {
      for (std::size_t i = seg.first; i < seg.first + seg.count; ++i) {
        const Call& c = plan.calls[i];
        Reply* r = &replies[i];
        ScopedSpan span(tracer, "runtime.invoke_async", op_base + i);
        app.invoke_async(w.conns[c.conn], c.echo ? kEcho : kPing, c.args,
                         w.client, [r](Result<Value> result, Duration lat) {
                           r->done = true;
                           r->ok = result.ok();
                           if (r->ok) r->value = std::move(result).value();
                           r->latency = lat;
                         });
      }
      ScopedSpan span(tracer, "sim.loop_run", op_base + seg.first);
      w.rt->run();
    }
  }
  return thread_cpu_ns() - start;
}

struct RoundCheck {
  std::int64_t latency_sum = 0;  // simulated latency over completed calls
  std::uint64_t failed = 0;      // calls never completed or answered wrongly
};

/// Checks one round's replies.
RoundCheck check_round(Outcome& out, const Plan& plan,
                       const std::vector<Reply>& replies) {
  std::uint64_t completed = 0, wrong = 0, fast = 0;
  std::int64_t latency_sum = 0;
  for (std::size_t i = 0; i < plan.calls.size(); ++i) {
    const Reply& r = replies[i];
    if (!r.done) continue;
    ++completed;
    const Call& c = plan.calls[i];
    const bool right =
        r.ok && (c.echo ? (r.value.is_string() && r.value.as_string() == c.text)
                        : (r.value.is_int() && r.value.as_int() == 1));
    if (!right) ++wrong;
    if (r.latency < 2 * kLinkLatency) ++fast;
    latency_sum += r.latency;
  }
  out.check(completed == plan.calls.size(),
            "relay: " + std::to_string(plan.calls.size() - completed) +
                " calls never completed");
  out.check(wrong == 0, "relay: " + std::to_string(wrong) +
                            " replies differ from what was sent");
  out.check(fast == 0, "relay: " + std::to_string(fast) +
                           " latencies below the round-trip link latency");
  return RoundCheck{latency_sum, plan.calls.size() - completed + wrong};
}

// --- per-layer ladder (traced runs) -------------------------------------------

const std::string kLadderText(64, 'x');
// The rungs take turns, one block each, for kLadderRounds turns (a few
// seconds), and each rung keeps its fastest block: a rung is then never
// measured only while the host happens to run this thread slowly.
constexpr int kLadderRounds = 200;

/// One configuration of the ladder and the block of work it times.
struct Rung {
  const char* span;
  std::size_t calls;           // calls (or events) per block
  std::function<void()> block;
  bool registry = true;        // the metrics registry's state in the block
  std::uint64_t allocs = 0;    // heap allocations over every block
  std::uint64_t samples = 0;   // histogram samples retained over every block
  std::uint64_t blocks = 0;

  double per_call(std::uint64_t total) const {
    return static_cast<double>(total) /
           static_cast<double>(calls * std::max<std::uint64_t>(blocks, 1));
  }
};

std::size_t registry_samples() {
  std::size_t n = 0;
  for (const auto& [key, h] : aars::obs::Registry::global().histograms()) {
    n += h->count();
  }
  return n;
}

/// Sync echo calls in a closed loop on connector 0 of `w`.
std::function<void()> sync_block(World& w, std::size_t calls) {
  return [&w, calls, args = Value::object({{"text", kLadderText}})] {
    aars::runtime::Application& app = w.rt->app();
    for (std::size_t i = 0; i < calls; ++i) {
      const auto out = app.invoke_sync(w.conns[0], kEcho, args, w.client);
      w.rt->run_for(out.latency);
    }
  };
}

void run_ladder(Outcome& out, std::uint64_t seed, Tracer& tracer) {
  constexpr std::size_t kSync = 2000;
  constexpr std::size_t kBatch = 32;
  constexpr std::size_t kBatches = 64;
  constexpr std::size_t kHandles = 20000;
  constexpr std::size_t kEvents = 100000;
  aars::obs::Registry& registry = aars::obs::Registry::global();

  World same = make_world(seed, {0}, /*same_host=*/true);
  World cross = make_world(seed, {0});
  World two = make_world(seed, {2});
  World eight = make_world(seed, {8});

  // Direct Component::handle on the echo server, no connector.
  aars::component::Component* server =
      same.rt->app().find_component(same.server);
  aars::component::Message msg;
  msg.operation = kEcho;
  msg.payload = Value::object({{"text", kLadderText}});
  // Queued echo calls on connector 0 in batches of kBatch, each drained by
  // the loop.
  const Value args = Value::object({{"text", kLadderText}});
  const auto queued = [&] {
    aars::runtime::Application& app = cross.rt->app();
    for (std::size_t b = 0; b < kBatches; ++b) {
      for (std::size_t i = 0; i < kBatch; ++i) {
        app.invoke_async(cross.conns[0], kEcho, args, cross.client,
                         [](Result<Value>, Duration) {});
      }
      cross.rt->run();
    }
  };
  // A bare sim::EventLoop with 64 self-rescheduling timers.
  aars::sim::EventLoop loop;
  struct Tick {
    aars::sim::EventLoop* loop;
    void operator()() const { loop->schedule_after(1, Tick{loop}); }
  };
  for (int i = 0; i < 64; ++i) loop.schedule_after(1, Tick{&loop});

  std::vector<Rung> rungs = {
      {"ladder.handler", kHandles,
       [&] {
         for (std::size_t i = 0; i < kHandles; ++i) (void)server->handle(msg);
       }},
      {"ladder.sync_same0", kSync, sync_block(same, kSync)},
      {"ladder.sync_cross0", kSync, sync_block(cross, kSync)},
      {"ladder.sync_cross0_obs_off", kSync, sync_block(cross, kSync), false},
      {"ladder.sync_cross2", kSync, sync_block(two, kSync)},
      {"ladder.sync_cross8", kSync, sync_block(eight, kSync)},
      {"ladder.queued_cross0", kBatch * kBatches, queued},
      {"ladder.event_loop", kEvents, [&] { loop.run(kEvents); }},
  };
  for (Rung& r : rungs) r.block();  // warm pools and caches
  set_alloc_counting(true);
  for (int turn = 0; turn < kLadderRounds; ++turn) {
    for (Rung& r : rungs) {
      registry.set_enabled(r.registry);
      registry.reset_values();
      const std::uint64_t allocs = alloc_count();
      {
        ScopedSpan span(tracer, r.span);
        r.block();
      }
      r.allocs += alloc_count() - allocs;
      r.samples += registry_samples();
      ++r.blocks;
    }
  }
  set_alloc_counting(false);
  registry.set_enabled(true);
  registry.reset_values();

  const auto ns = [&](std::size_t i) {
    return tracer.min_ns(rungs[i].span) / static_cast<double>(rungs[i].calls);
  };
  const auto allocs = [&](std::size_t i) {
    return rungs[i].per_call(rungs[i].allocs);
  };
  const double handler = ns(0), same0 = ns(1), cross0 = ns(2), off0 = ns(3);
  out.add("component.handler_ns", handler, "ns");
  out.add("connector.relay_ns", same0 - handler, "ns");
  out.add("sim.network_ns", cross0 - same0, "ns");
  out.add("adapt.interceptor_ns", slope({0, 2, 8}, {cross0, ns(4), ns(5)}),
          "ns");
  out.add("adapt.allocs_per_interceptor",
          slope({0, 2, 8}, {allocs(2), allocs(4), allocs(5)}), "count");
  out.add("runtime.queued_ns", ns(6) - cross0, "ns");
  out.add("runtime.allocs_per_call", allocs(2), "count");
  out.add("obs.ns_per_call", cross0 - off0, "ns");
  // Each retained histogram sample is one double until the registry resets.
  out.add("obs.bytes_per_call",
          (rungs[2].per_call(rungs[2].samples) -
           rungs[3].per_call(rungs[3].samples)) *
              static_cast<double>(sizeof(double)),
          "B");
  out.add("sim.event_ns", ns(7), "ns");
}

}  // namespace

Outcome run_relay(const RunConfig& config) {
  Outcome out;
  Tracer tracer(config.trace);
  aars::obs::Registry& registry = aars::obs::Registry::global();

  // --- set-up: world, seeded inputs, warm-up rounds ---------------------------
  World w = make_world(config.seed, {kInterceptors[0], kInterceptors[1],
                                     kInterceptors[2]});
  const Plan plan = make_plan(config.seed);
  std::vector<Reply> replies;
  std::int64_t expected_latency = 0;
  for (std::uint64_t i = 0; i < kWarmupRounds; ++i) {
    run_round(w, plan, replies, tracer, i * kCallsPerRound);
    const std::int64_t latency = check_round(out, plan, replies).latency_sum;
    if (i == 0) expected_latency = latency;
    out.check(latency == expected_latency,
              "relay: a replayed round gave other simulated latencies");
    registry.reset_values();
  }
  const double setup = process_cpu_seconds();

  // --- measured phase: whole rounds until the time is up ----------------------
  std::vector<double> rates;
  BestSlices best;  // one slice: the whole round
  std::vector<Duration> first_latencies;
  std::uint64_t rounds = 0;
  const std::int64_t phase_start = now_ns();
  do {
    ScopedSpan round_span(tracer, "relay.round", rounds);
    const std::int64_t ns = run_round(w, plan, replies, tracer,
                                      (rounds + kWarmupRounds) * kCallsPerRound);
    best.record(0, ns);
    rates.push_back(static_cast<double>(plan.calls.size()) * 1e9 /
                    static_cast<double>(ns));
    const RoundCheck checked = check_round(out, plan, replies);
    out.failed += checked.failed;
    out.check(checked.latency_sum == expected_latency,
              "relay: a replayed round gave other simulated latencies");
    if (rounds == 0) {
      for (const Reply& r : replies) first_latencies.push_back(r.latency);
    }
    // Scope the registry's samples to one round so memory tracks the round's
    // work, not how many rounds fit in the time.
    registry.reset_values();
    ++rounds;
  } while (seconds_since(phase_start) < config.seconds);
  const double rss = peak_rss_mb();
  log_rates(config.workload, rates);
  const double ops_per_s =
      static_cast<double>(plan.calls.size()) / best.round_seconds();

  for (std::size_t k = 0; k < kConnectors; ++k) {
    const std::uint64_t routed = plan.per_conn[k] * (rounds + kWarmupRounds);
    for (const auto& tag : w.tags[k]) {
      out.check(tag->tagged() == routed,
                "relay: connector c" + std::to_string(k) + " filter " +
                    tag->name() + " tagged " + std::to_string(tag->tagged()) +
                    " calls, " + std::to_string(routed) + " were routed");
    }
  }
  out.attempted = rounds * plan.calls.size();

  if (!config.trace) {
    out.add("setup_s", setup, "s");
    out.add("ops_per_s", ops_per_s, "op/s");
    out.add("sim_p99_ms",
            static_cast<double>(percentile(first_latencies, 99.0)) / 1000.0,
            "ms");
    out.add("peak_rss_mb", rss, "MiB");
    return out;
  }
  out.add("trace.ops_per_s", ops_per_s, "op/s");
  run_ladder(out, config.seed, tracer);
  out.add("host.parallelism", spin_parallelism(), "cores");
  if (!config.trace_path.empty()) {
    out.check(tracer.write(config.trace_path, config.workload, config.seed),
              "could not write " + config.trace_path);
  }
  return out;
}

}  // namespace aarsbench
