// storm — a world declared in ADL whose rules the install-time explore gate
// checks (enforce), with every plan verified (enforce), driven by an
// open-loop request pump and RAML under a seeded fault storm of crash,
// loss and fail-step windows spread over a long simulated horizon.  It
// holds, replays and rebinds connectors and channels during transactional
// swaps and rollbacks, and is the one workload that loads reconfig, meta,
// fault, adl and analysis.
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "adl/compiler.h"
#include "analysis/adl_screen.h"
#include "analysis/explorer.h"
#include "analysis/verifier.h"
#include "api/runtime.h"
#include "bench/testing_components.h"
#include "common.h"
#include "counts.h"
#include "fault/scenario.h"
#include "obs/metrics.h"
#include "reconfig/rules.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace aarsbench {
namespace {

using aars::Runtime;
using aars::bench_testing::EchoClient;
using aars::bench_testing::EchoServer;
using aars::util::Duration;
using aars::util::Result;
using aars::util::SimTime;
using aars::util::Value;

// Two hosts and two rule plans the storm can interrupt: `shuffle` moves the
// server between hosts every few ticks (a steady supply of commits), and
// `failover` answers host crashes with an add + reroute (commits once, then
// every re-firing collides with the standby and rolls back).  A spare pool
// with one shed rule per spare, fired by link degradation, which this storm
// never injects, makes the install-time exploration cover every subset of
// the spares: 2^kSpares times the configurations of the rules that do fire.
// The property block is what the exploration checks along every path.  The
// seed draws the edge-core link latency, in [1000, 1060] us.
constexpr std::size_t kSpares = 8;

std::string make_storm_world(std::uint64_t seed) {
  // A stream apart from the one make_storm() draws the faults from.
  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ULL);
  const std::uint64_t latency_us = 1000 + rng() % 61;
  std::string s = R"(interface Echo {
  service echo(text: string) -> string;
  service ping() -> int;
}
interface Trigger {
  service go(text: string) -> string;
}
component EchoServer provides Echo;
component EchoClient provides Trigger {
  requires out: Echo;
}
node edge { capacity 10000; }
node core { capacity 10000; }
link edge <-> core { latency )" +
                  std::to_string(latency_us) + R"(us; bandwidth 100mbps; }
instance server: EchoServer on core;
instance client: EchoClient on edge;
instance feeder: EchoClient on edge;
instance spare: EchoServer on core;
connector main { routing direct; delivery sync; }
bind client.out -> server via main;
connector pool { routing round_robin; delivery queued; capacity 64; }
)";
  for (std::size_t i = 0; i < kSpares; ++i) {
    s += "instance s" + std::to_string(i) + ": EchoServer on core;\n";
  }
  s += "bind feeder.out -> spare";
  for (std::size_t i = 0; i < kSpares; ++i) s += ", s" + std::to_string(i);
  s += " via pool;\n";
  for (std::size_t i = 0; i < kSpares; ++i) {
    s += "when event fault.degrade_start reconfigure shed_s" +
         std::to_string(i) + " { remove s" + std::to_string(i) + "; }\n";
  }
  s += R"(

when queue_depth(main) >= 0 reconfigure shuffle {
  cooldown 7ms;
  migrate server to edge;
  migrate server to core;
}
when event fault.host_down reconfigure failover {
  cooldown 15ms;
  add standby: EchoServer on edge;
  reroute server to standby;
}

property serving {
  always replicas(EchoServer) >= 1;
  always routed(main);
}
)";
  return s;
}

constexpr Duration kHorizon = aars::util::seconds(60);
// The set-up's warm-up storm: the same density over a tenth of the horizon,
// so the world's build, compile and exploration stay a visible share of it.
constexpr Duration kWarmupHorizon = aars::util::seconds(6);
constexpr Duration kPumpGap = aars::util::microseconds(400);
// A storm is run and timed in slices of this much simulated time (about
// 100 firings each); the drain after the horizon is one more slice.
constexpr Duration kSlice = aars::util::seconds(1);

/// Seeded storm over `horizon`, at the density of the 1 s e17 storm: per
/// second 3 host crashes, 2 loss bursts and 5 fail-step windows.  Every
/// window closes before the quiet tail so the final world must verify clean.
aars::fault::FaultScenario make_storm(std::uint64_t seed, Duration horizon) {
  std::mt19937_64 rng(seed);
  const auto between = [&rng](std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    rng() % static_cast<std::uint64_t>(hi - lo + 1));
  };
  const auto unit = [&rng] {
    return static_cast<double>(rng() >> 11) * 0x1.0p-53;
  };
  const Duration quiet = aars::util::milliseconds(60);
  const Duration ms = aars::util::milliseconds(1);
  const std::int64_t seconds = horizon / aars::util::kSecond;
  aars::fault::FaultScenario storm;
  storm.set_name("bench_storm");
  for (std::int64_t i = 0; i < 3 * seconds; ++i) {
    const SimTime at = between(10 * ms, horizon - quiet - 30 * ms);
    storm.crash(unit() < 0.5 ? "core" : "edge", at, between(5 * ms, 20 * ms));
  }
  for (std::int64_t i = 0; i < 2 * seconds; ++i) {
    const SimTime at = between(10 * ms, horizon - quiet - 30 * ms);
    storm.loss("edge", "core", at, between(5 * ms, 15 * ms),
               0.1 + 0.3 * unit());
  }
  for (std::int64_t i = 0; i < 5 * seconds; ++i) {
    const SimTime at = between(10 * ms, horizon - quiet - 40 * ms);
    storm.fail_step(static_cast<int>(between(1, 2)), at,
                    between(10 * ms, 25 * ms));
  }
  return storm;
}

/// A crashed host severs routes, so reachability errors while a window is
/// open are the network's state, not a broken reconfiguration.
bool is_reachability_code(const std::string& code) {
  return code == "no-route" || code == "unreachable-component";
}

struct StormRun {
  std::uint64_t fired = 0;
  std::uint64_t committed = 0;
  std::uint64_t rolled_back = 0;
  std::uint64_t evaluations = 0;
  std::uint64_t undo_steps = 0;
  std::uint64_t held = 0;
  std::uint64_t rollback_failures = 0;
  std::uint64_t failed = 0;  // firings that did not settle cleanly
  std::uint64_t structural_errors = 0;
  std::uint64_t final_errors = 0;
  std::uint64_t held_leaked = 0;
  std::uint64_t requests = 0;
  std::uint64_t replies_ok = 0;
  std::uint64_t replies_failed = 0;
  std::uint64_t events = 0;
  FiringFingerprint fingerprint;
  std::vector<Duration> durations;  // ReconfigReport::duration() per firing
  double run_s = 0;  // main-thread CPU time of the run
};

std::unique_ptr<Runtime> build_world(std::uint64_t seed, Duration horizon) {
  return Runtime::builder()
      .metrics()
      .seed(seed)
      .component_class<EchoServer>("EchoServer")
      .component_class<EchoClient>("EchoClient")
      .with_verification(aars::analysis::VerifyMode::kEnforce)
      .explore_rules(aars::analysis::VerifyMode::kEnforce)
      .adl(make_storm_world(seed))
      .with_faults(make_storm(seed, horizon))
      .build()
      .value();
}

/// One storm on a fresh world.  When `slices` is given, each slice's CPU
/// time is recorded in it.
StormRun run_storm_once(std::uint64_t seed, Duration horizon, Tracer& tracer,
                        BestSlices* slices = nullptr) {
  StormRun out;
  std::unique_ptr<Runtime> rt;
  {
    ScopedSpan span(tracer, "api.build");
    rt = build_world(seed, horizon);
  }
  aars::runtime::Application& app = rt->app();
  aars::sim::EventLoop& loop = rt->loop();
  aars::reconfig::RuleSet& rules = *rt->adl_rules();

  rules.set_firing_observer([&](aars::util::Symbol rule,
                                const aars::reconfig::ReconfigReport& report) {
    {
      // Every settle point, commit or rollback, must leave a structurally
      // sound architecture.
      ScopedSpan span(tracer, "analysis.verify");
      const aars::analysis::AnalysisReport verdict =
          aars::analysis::verify_architecture(aars::analysis::model_from(app));
      for (const aars::analysis::Diagnostic& d : verdict.diagnostics) {
        if (d.severity == aars::analysis::Severity::kError &&
            !is_reachability_code(d.code)) {
          ++out.structural_errors;
        }
      }
    }
    if (report.verdict == aars::reconfig::TxnVerdict::kRolledBack) {
      out.undo_steps += report.rollback_steps;
      out.rollback_failures += report.rollback_failures;
    }
    // A rollback is a settled outcome the storm forces; a firing fails when
    // it was not enacted as a transaction or its rollback left steps undone.
    if (report.verdict == aars::reconfig::TxnVerdict::kNone ||
        report.rollback_failures > 0) {
      ++out.failed;
    }
    out.held += report.held_messages;
    out.durations.push_back(report.duration());
    out.fingerprint.add(rule.str(), aars::reconfig::to_string(report.verdict),
                        report.steps.size(), report.rollback_steps);
  });

  // Open-loop pump: one ping every kPumpGap regardless of replies, so
  // swaps hold and replay traffic mid-flight.
  const aars::util::ConnectorId conn = rt->connector("main");
  const aars::util::NodeId origin = rt->host("edge");
  const aars::util::Symbol ping{"ping"};
  std::function<void()> pump = [&] {
    if (loop.now() >= horizon) return;
    ++out.requests;
    app.invoke_async(conn, ping, Value{}, origin,
                     [&out](Result<Value> r, Duration) {
                       ++(r.ok() ? out.replies_ok : out.replies_failed);
                     });
    loop.schedule_after(kPumpGap, [&pump] { pump(); });
  };
  loop.schedule_after(kPumpGap, [&pump] { pump(); });

  const std::size_t events0 = loop.executed();
  // The settle-point verification above is a public call into `analysis`
  // and counts in the run's time.
  SliceTimer timer(slices);
  {
    ScopedSpan span(tracer, "raml.run");
    rt->raml().start();
    for (SimTime t = kSlice; t <= horizon; t += kSlice) {
      timer.run([&] { loop.run_until(t); });
    }
    timer.run([&] {
      rt->raml().stop();
      loop.run();  // drain in-flight protocols and replies
    });
  }
  out.run_s = timer.seconds();
  out.events = loop.executed() - events0;

  const aars::reconfig::RuleSet::Stats stats = rules.stats();
  out.fired = stats.fired;
  out.committed = stats.committed;
  out.rolled_back = stats.rolled_back;
  out.evaluations = stats.evaluations;
  // Storm over, loop drained: the world must verify clean (crashed hosts
  // came back when their windows closed) with no message still held.
  out.final_errors = aars::analysis::verify_architecture(
                         aars::analysis::model_from(app))
                         .errors();
  for (const aars::util::ComponentId id : app.component_ids()) {
    out.held_leaked += app.held_to(id);
  }
  return out;
}

void check_run(Outcome& out, const std::string& label, const StormRun& r) {
  out.check(r.fired == r.committed + r.rolled_back,
            label + ": " + std::to_string(r.fired) + " fired != " +
                std::to_string(r.committed) + " committed + " +
                std::to_string(r.rolled_back) + " rolled back");
  out.check(r.committed > 0 && r.rolled_back > 0,
            label + ": the storm must force both outcomes");
  out.check(r.fingerprint.firings() == r.fired,
            label + ": settled firings observed != fired");
  out.check(r.structural_errors == 0,
            label + ": " + std::to_string(r.structural_errors) +
                " structural verifier errors at settle points");
  out.check(r.rollback_failures == 0 && r.failed == 0,
            label + ": " + std::to_string(r.failed) +
                " firings did not settle cleanly (" +
                std::to_string(r.rollback_failures) + " rollback failures)");
  out.check(r.final_errors == 0 && r.held_leaked == 0,
            label + ": final world not clean (" +
                std::to_string(r.final_errors) + " verifier errors, " +
                std::to_string(r.held_leaked) + " held messages)");
  out.check(r.replies_ok + r.replies_failed == r.requests,
            label + ": " +
                std::to_string(r.requests - r.replies_ok - r.replies_failed) +
                " pump requests never answered");
}

}  // namespace

Outcome run_storm(const RunConfig& config) {
  Outcome out;
  Tracer tracer(config.trace);
  aars::obs::Registry& registry = aars::obs::Registry::global();

  // --- set-up: the first world (ADL compile, explore gate, install) and a
  // short warm-up storm on it ---------------------------------------------------
  const StormRun warm = run_storm_once(config.seed, kWarmupHorizon, tracer);
  check_run(out, "warm-up", warm);
  registry.reset_values();
  const double setup = process_cpu_seconds();

  // --- measured phase: whole storms until the time is up, at least two so
  // that every run replays the seed ---------------------------------------------
  std::vector<double> rates;
  BestSlices best;
  StormRun first;
  std::uint64_t rounds = 0;
  std::uint64_t fired = 0, failed = 0;
  const std::int64_t phase_start = now_ns();
  do {
    StormRun r = run_storm_once(config.seed, kHorizon, tracer, &best);
    rates.push_back(static_cast<double>(r.fired) / r.run_s);
    fired += r.fired;
    failed += r.failed;
    if (rounds == 0) {
      check_run(out, "storm", r);
      first = std::move(r);
    } else {
      // Replaying the seed must reproduce the first round's firing sequence.
      out.check(r.fingerprint.digest() == first.fingerprint.digest() &&
                    r.fired == first.fired,
                "storm: replaying the seed gave another firing sequence");
    }
    registry.reset_values();
    ++rounds;
  } while (rounds < 2 || seconds_since(phase_start) < config.seconds);
  const double rss = peak_rss_mb();
  log_rates(config.workload, rates);
  const double ops_per_s =
      static_cast<double>(first.fired) / best.round_seconds();
  out.attempted = fired;
  out.failed = failed;

  const double p99_ms =
      static_cast<double>(percentile(first.durations, 99.0)) / 1000.0;
  if (!config.trace) {
    out.add("setup_s", setup, "s");
    out.add("ops_per_s", ops_per_s, "op/s");
    out.add("sim_p99_ms", p99_ms, "ms");
    out.add("peak_rss_mb", rss, "MiB");
    return out;
  }

  // --- per-layer metrics ------------------------------------------------------
  const double fired_d = static_cast<double>(first.fired);
  out.add("trace.ops_per_s", ops_per_s, "op/s");
  out.add("api.build_ms", tracer.min_ns("api.build") / 1e6, "ms");
  out.add("analysis.verify_us", tracer.mean_self_ns("analysis.verify") / 1e3,
          "us");
  out.add("meta.rule_evaluations", static_cast<double>(first.evaluations),
          "count");
  // The run's own time, without the settle-point verification it nests.
  out.add("sim.ns_per_event",
          tracer.mean_self_ns("raml.run") / static_cast<double>(first.events),
          "ns");
  out.add("sim.events", static_cast<double>(first.events), "count");
  out.add("sim.events_per_op", static_cast<double>(first.events) / fired_d,
          "count");
  out.add("reconfig.fired", fired_d, "count");
  out.add("reconfig.committed", static_cast<double>(first.committed), "count");
  out.add("reconfig.rolled_back", static_cast<double>(first.rolled_back),
          "count");
  out.add("reconfig.undo_steps", static_cast<double>(first.undo_steps),
          "count");
  out.add("reconfig.commit_ratio",
          static_cast<double>(first.committed) / fired_d, "ratio");
  out.add("reconfig.held_per_firing", static_cast<double>(first.held) / fired_d,
          "count");
  out.add("runtime.calls_failed", static_cast<double>(first.replies_failed),
          "count");

  // The install-time stages on their own: compile (with the analysis
  // screen the runtime installs) and exploration of the rule program.
  const std::string world = make_storm_world(config.seed);
  std::size_t configs = 0;
  for (int i = 0; i < 20; ++i) {
    aars::adl::CompilationResult compiled;
    {
      ScopedSpan span(tracer, "adl.compile");
      compiled = aars::adl::compile(
          world,
          aars::adl::CompileOptions{aars::analysis::make_compile_screen()});
    }
    out.check(compiled.ok(), "storm: the world's ADL does not compile");
    {
      ScopedSpan span(tracer, "analysis.explore");
      const aars::analysis::ExplorationResult explored =
          aars::analysis::explore(aars::analysis::model_from(compiled.config),
                                  compiled.program);
      configs = explored.graph.states.size();
      out.check(explored.report.errors() == 0,
                "storm: exploration found errors");
    }
  }
  out.add("adl.compile_ms", tracer.min_ns("adl.compile") / 1e6, "ms");
  out.add("analysis.explore_ms", tracer.min_ns("analysis.explore") / 1e6,
          "ms");
  // The server's two hosts times every subset of the spares.
  out.check(configs == (std::size_t{2} << kSpares),
            "storm: exploration reached " + std::to_string(configs) +
                " configurations, not 2^(spares+1)");
  out.add("analysis.explore_configs", static_cast<double>(configs), "count");
  out.add("host.parallelism", spin_parallelism(), "cores");
  if (!config.trace_path.empty()) {
    out.check(tracer.write(config.trace_path, config.workload, config.seed),
              "could not write " + config.trace_path);
  }
  return out;
}

}  // namespace aarsbench
