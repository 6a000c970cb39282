// campaign — a seeded mixed-tier telecom campaign (baseline population, a
// flash crowd, handover churn) on a 2-shard ShardedRuntime with exact
// per-session frame timers, below capacity so no frame fails.  It loads
// the event loop, network routing, the session slab, the shard barrier and
// the global metrics registry, and uses no interceptors and no
// reconfiguration.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "api/sharded_runtime.h"
#include "bench/testing_components.h"
#include "common.h"
#include "counts.h"
#include "obs/metrics.h"
#include "scenario/driver.h"
#include "stats.h"
#include "telecom/media.h"
#include "trace.h"
#include "workloads.h"

namespace aarsbench {
namespace {

using aars::ShardedRuntime;
using aars::bench_testing::EchoServer;
using aars::scenario::Campaign;
using aars::scenario::CampaignDriver;
using aars::scenario::CampaignSpec;
using aars::scenario::kTierCount;
using aars::scenario::Tier;
using aars::util::Duration;
using aars::util::Result;
using aars::util::SimTime;
using aars::util::Value;

// Two regions, each a core media server with two edge cells and a control
// host.  Region r lives on shard r % shards, so the 1-shard and 2-shard
// worlds are the same model partitioned differently.  The timed rounds run
// on one shard: on a shared host the 2-shard round time swings with the
// scheduling delay of every barrier hand-off (IQR over 10 runs was 25% of
// the median), while the 2-shard run outside the timed phase still checks
// the partitioning and feeds the shard.* per-layer metrics.
constexpr std::size_t kRegions = 2;
constexpr std::size_t kTimedShards = 1;
constexpr std::size_t kPairShards = 2;
constexpr Duration kSignalPeriod = aars::util::milliseconds(20);
// Latency of the inter-region fabric.  It is also the shards' conservative
// window, so it sets how often the two shard threads of the 2-shard run
// meet at a barrier: 400 barriers per 8 s campaign.  Each barrier is a
// condition-variable hand-off to both workers and back, whose cost grows
// with the host's scheduling delay.
constexpr Duration kFabricLatency = aars::util::milliseconds(20);
// A 1-shard run is timed in slices of this much simulated time (about 25k
// frames each); the drain after the horizon is one more slice.
constexpr Duration kSlice = aars::util::milliseconds(200);

/// The measured campaign: ~15k baseline users replenished as sessions end,
/// a 5k flash crowd at 3 s, handover churn, 8 s of simulated time.  The
/// seed varies who arrives when, for how long, in which tier and cell.
CampaignSpec measured_spec() {
  CampaignSpec spec;
  spec.name = "bench-campaign";
  spec.duration = aars::util::seconds(8);
  spec.mean_session = aars::util::seconds(6);
  spec.cells = 2;
  spec.tier_mix(0.1, 0.3, 0.6);
  spec.baseline(15000.0, aars::util::milliseconds(500));
  spec.flash_crowd(aars::util::seconds(3), 5000.0,
                   aars::util::milliseconds(300), aars::util::seconds(2));
  spec.handover(aars::util::seconds(3));
  return spec;
}

/// The warm-up campaign: the measured population for 2 s, without
/// handover, so no phase rehomes and frames attempted must equal F exactly.
CampaignSpec warmup_spec() {
  CampaignSpec spec;
  spec.name = "bench-warmup";
  spec.duration = aars::util::seconds(2);
  spec.mean_session = aars::util::seconds(6);
  spec.cells = 2;
  spec.tier_mix(0.1, 0.3, 0.6);
  spec.baseline(15000.0, aars::util::milliseconds(500));
  return spec;
}

/// Per-tier totals of one campaign run, summed over regions.
struct RunCounts {
  TierArray started{};
  TierArray attempted{};
  TierArray ok{};
  TierArray failed{};
  TierArray rehomes{};  // handovers of users of each tier
  std::uint64_t handovers = 0;
  std::uint64_t evacuated = 0;
  std::uint64_t signals_ok = 0;
  std::uint64_t signals_sent = 0;
  std::int64_t latency_sum = 0;

  bool operator==(const RunCounts&) const = default;
};

struct RunResult {
  RunCounts counts;
  std::vector<Duration> latencies;  // every delivered frame
  double run_s = 0;  // main-thread CPU time of the simulation run
  std::uint64_t events = 0;
  std::uint64_t windows = 0;
  std::uint64_t cross_delivered = 0;
  std::size_t pending_peak = 0;
  std::size_t samples_retained = 0;
};

std::unique_ptr<ShardedRuntime> build_world(std::size_t shards,
                                            std::uint64_t seed, bool metrics) {
  aars::sim::LinkSpec link;
  link.latency = aars::util::milliseconds(1);
  aars::sim::LinkSpec fabric;
  fabric.latency = kFabricLatency;
  auto builder = ShardedRuntime::builder();
  builder.with_shards(shards)
      .seed(seed)
      .metrics(metrics)
      .cross_shard_link(fabric)
      .component_type("MediaServer",
                      [](const std::string& n) {
                        return std::make_unique<aars::telecom::MediaServer>(n);
                      })
      .component_class<EchoServer>("EchoServer");
  for (std::size_t r = 0; r < kRegions; ++r) {
    const std::string tag = std::to_string(r);
    const std::size_t shard = r % shards;
    builder.host("core-" + tag, 200000, shard)
        .host("edge-a-" + tag, 200000, shard)
        .host("edge-b-" + tag, 200000, shard)
        .host("ctl-" + tag, 10000, shard)
        .link("edge-a-" + tag, "core-" + tag, link)
        .link("edge-b-" + tag, "core-" + tag, link)
        .deploy("MediaServer", "srv-" + tag, "core-" + tag)
        .deploy("EchoServer", "sig-" + tag, "ctl-" + tag);
    aars::connector::ConnectorSpec media;
    media.name = "media-" + tag;
    builder.connect(media, {"srv-" + tag});
    aars::connector::ConnectorSpec signal;
    signal.name = "signal-" + tag;
    builder.connect(signal, {"sig-" + tag});
  }
  return builder.build().value();
}

/// Region-to-region signalling: every kSignalPeriod each region pings the
/// other region's control host, over the shard fabric when they live on
/// different shards.  Counters are per region, so only the region's own
/// shard thread touches them.
struct Signaller {
  ShardedRuntime* world = nullptr;
  std::size_t region = 0;
  SimTime horizon = 0;
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;

  void start() { schedule(); }
  void schedule() {
    const std::size_t shard = region % world->shard_count();
    aars::sim::EventLoop& loop = world->shard(shard).loop();
    if (loop.now() + kSignalPeriod > horizon) return;
    loop.schedule_after(kSignalPeriod, [this] { fire(); });
  }
  void fire() {
    const std::size_t shard = region % world->shard_count();
    ++sent;
    world->call(shard, "signal-" + std::to_string((region + 1) % kRegions),
                "ping", Value{}, [this](Result<Value> r, Duration) {
                  if (r.ok() && r.value().is_int() && r.value().as_int() == 1) {
                    ++ok;
                  }
                });
    schedule();
  }
};

struct RunOptions {
  /// Name of the span around the simulation run; the ladder tells the kinds
  /// of run apart by it.
  const char* span = "campaign.round";
  std::size_t shards = kTimedShards;
  bool metrics = true;  // the builder enables the global registry
  bool probe = false;   // sample pending events at every barrier
  /// Receives each slice's CPU time (1-shard runs only).
  BestSlices* slices = nullptr;
};

RunResult run_campaign_once(const RunOptions& opt, std::uint64_t seed,
                            const Campaign& campaign, Tracer& tracer) {
  const std::size_t shards = opt.shards;
  RunResult result;
  std::unique_ptr<ShardedRuntime> world;
  {
    ScopedSpan span(tracer, "api.build");
    world = build_world(shards, seed, opt.metrics);
  }

  std::vector<std::unique_ptr<CampaignDriver>> drivers;
  // Frame latencies per region.  Kept across runs so their pages are
  // already mapped: the timed run pays no page faults for the benchmark's
  // own bookkeeping.  Region r's vector is touched only by its shard.
  static std::array<std::vector<Duration>, kRegions> latencies;
  for (auto& v : latencies) v.clear();
  std::array<Signaller, kRegions> signallers;
  {
    ScopedSpan span(tracer, "scenario.start");
    for (std::size_t r = 0; r < kRegions; ++r) {
      const std::string tag = std::to_string(r);
      aars::Runtime& rt = world->shard(r % shards);
      CampaignDriver::Options options;
      options.service = rt.connector("media-" + tag);
      options.cells = {rt.host("edge-a-" + tag), rt.host("edge-b-" + tag)};
      options.stride = kRegions;
      options.offset = r;
      drivers.push_back(
          std::make_unique<CampaignDriver>(rt.app(), campaign, options));
      std::vector<Duration>* sink = &latencies[r];
      for (std::size_t k = 0; k < kTierCount; ++k) {
        drivers.back()->sessions(static_cast<Tier>(k)).on_frame(
            [sink](aars::util::SessionId, Duration latency, bool ok, int) {
              if (ok) sink->push_back(latency);
            });
      }
      drivers.back()->start();
      signallers[r] =
          Signaller{world.get(), r, campaign.spec().duration, 0, 0};
      signallers[r].start();
    }
  }

  if (opt.probe && shards > 1) {
    // Peak of pending events across shards, sampled at every barrier.
    const SimTime horizon = campaign.spec().duration;
    aars::sim::ShardSet& set = world->shards();
    set.at_barrier([&result, &set, horizon](SimTime now) {
      std::size_t pending = 0;
      for (std::size_t s = 0; s < set.shard_count(); ++s) {
        pending += set.loop(s).pending();
      }
      result.pending_peak = std::max(result.pending_peak, pending);
      return now < horizon;
    });
  }

  // With one shard the run executes on this thread, so its CPU time is the
  // run's whole cost.  The 2-shard run is timed only by its span.
  {
    ScopedSpan span(tracer, opt.span);
    if (shards == 1) {
      SliceTimer timer(opt.slices);
      const SimTime horizon = campaign.spec().duration;
      for (SimTime t = kSlice; t <= horizon; t += kSlice) {
        timer.run([&] { world->run_until(t); });
      }
      timer.run([&] { world->run(); });
      result.run_s = timer.seconds();
    } else {
      world->run();
    }
  }
  result.events = world->shards().executed();
  result.windows = world->shards().windows();
  result.cross_delivered = world->shards().cross_shard_delivered();
  for (const auto& [key, h] : aars::obs::Registry::global().histograms()) {
    result.samples_retained += h->count();
  }

  RunCounts& c = result.counts;
  for (std::size_t r = 0; r < kRegions; ++r) {
    CampaignDriver& d = *drivers[r];
    for (std::size_t k = 0; k < kTierCount; ++k) {
      const auto tier = static_cast<Tier>(k);
      c.started[k] += d.tier_stats(tier).started;
      c.attempted[k] += d.sessions(tier).frames_attempted();
      c.ok[k] += d.tier_stats(tier).frames_ok;
      c.failed[k] += d.tier_stats(tier).frames_failed;
    }
    for (const CampaignDriver::UserRec& rec : d.records()) {
      // `moves` starts at 1 on admission and grows by 2 per handover.
      c.rehomes[rec.tier] += (rec.moves > 0 ? rec.moves - 1u : 0u) / 2u;
    }
    c.handovers += d.handovers();
    c.evacuated += d.evacuated_sessions();
    c.signals_sent += signallers[r].sent;
    c.signals_ok += signallers[r].ok;
    for (const Duration l : latencies[r]) c.latency_sum += l;
    result.latencies.insert(result.latencies.end(), latencies[r].begin(),
                            latencies[r].end());
  }
  return result;
}

/// Checks one run against the counts computed from the campaign alone.
/// `exact` demands attempted == F (no phase rehomes).
void check_run(Outcome& out, const std::string& label, const RunCounts& c,
               const CampaignCounts& expect, bool exact) {
  const char* names[] = {"premium", "standard", "best_effort"};
  std::uint64_t rehomes = 0;
  for (std::size_t k = 0; k < kTierCount; ++k) {
    const std::string tier = label + " " + names[k];
    rehomes += c.rehomes[k];
    out.check(c.started[k] == expect.sessions[k],
              tier + ": " + std::to_string(c.started[k]) +
                  " sessions started, campaign has " +
                  std::to_string(expect.sessions[k]) + " inside the horizon");
    // Each re-home (handover or evacuation) restarts the session's frame
    // clock and may drop at most one frame.
    const std::uint64_t f = expect.frames[k];
    const std::uint64_t slack = c.rehomes[k] + c.evacuated;
    const std::uint64_t lo = f > slack ? f - slack : 0;
    out.check(c.attempted[k] <= f && c.attempted[k] >= lo,
              tier + ": " + std::to_string(c.attempted[k]) +
                  " frames attempted outside [F - rehomes, F] = [" +
                  std::to_string(lo) + ", " + std::to_string(f) + "]");
    if (exact) {
      out.check(c.attempted[k] == f, tier + ": " +
                                         std::to_string(c.attempted[k]) +
                                         " frames attempted, F = " +
                                         std::to_string(f));
    }
    out.check(c.ok[k] + c.failed[k] == c.attempted[k],
              tier + ": frames ok + failed != frames attempted");
  }
  out.check(rehomes == c.handovers,
            label + ": per-user handover records disagree with the drivers");
  out.check(c.signals_ok == c.signals_sent,
            label + ": " + std::to_string(c.signals_sent - c.signals_ok) +
                " signalling calls failed");
}

}  // namespace

Outcome run_campaign(const RunConfig& config) {
  Outcome out;
  Tracer tracer(config.trace);
  aars::obs::Registry& registry = aars::obs::Registry::global();

  // --- set-up: the measured campaign's model, then a warm-up campaign -------
  const Campaign campaign(measured_spec(), config.seed);
  const CampaignCounts expect = expected_counts(campaign);
  {
    const Campaign warm(warmup_spec(), config.seed);
    const RunResult r =
        run_campaign_once({"campaign.warmup"}, config.seed, warm, tracer);
    check_run(out, "warm-up", r.counts, expected_counts(warm), true);
  }
  registry.reset_values();
  const double setup = process_cpu_seconds();

  // --- measured phase: whole campaigns until the time is up -----------------
  std::vector<double> rates;
  BestSlices best;
  RunOptions timed;
  timed.slices = &best;
  RunResult first;
  std::uint64_t rounds = 0;
  std::uint64_t attempted = 0, failed = 0;
  const std::int64_t phase_start = now_ns();
  do {
    RunResult r = run_campaign_once(timed, config.seed, campaign, tracer);
    std::uint64_t ok = 0;
    for (std::size_t k = 0; k < kTierCount; ++k) {
      ok += r.counts.ok[k];
      attempted += r.counts.attempted[k];
      failed += r.counts.failed[k];
    }
    rates.push_back(static_cast<double>(ok) / r.run_s);
    if (rounds == 0) {
      check_run(out, "campaign", r.counts, expect, false);
      first = std::move(r);
    } else {
      out.check(r.counts == first.counts,
                "campaign: a replayed run gave other counts or latencies");
    }
    registry.reset_values();
    ++rounds;
  } while (seconds_since(phase_start) < config.seconds);
  const double rss = peak_rss_mb();
  log_rates(config.workload, rates);
  std::uint64_t frames = 0;
  for (std::size_t k = 0; k < kTierCount; ++k) frames += first.counts.ok[k];
  const double ops_per_s = static_cast<double>(frames) / best.round_seconds();
  out.attempted = attempted;
  out.failed = failed;

  // --- outside the timed phase: the same campaign on two shards -------------
  const RunResult pair =
      run_campaign_once({"campaign.pair", kPairShards, true, config.trace},
                        config.seed, campaign, tracer);
  check_run(out, "2-shard", pair.counts, expect, false);
  for (std::size_t k = 0; k < kTierCount; ++k) {
    out.check(pair.counts.started[k] == first.counts.started[k] &&
                  pair.counts.attempted[k] == first.counts.attempted[k] &&
                  pair.counts.ok[k] == first.counts.ok[k],
              "campaign: 1-shard and 2-shard runs differ in tier " +
                  std::to_string(k) + " session or frame counts");
  }
  registry.reset_values();

  if (!config.trace) {
    out.add("setup_s", setup, "s");
    out.add("ops_per_s", ops_per_s, "op/s");
    out.add("sim_p99_ms",
            static_cast<double>(percentile(first.latencies, 99.0)) / 1000.0,
            "ms");
    out.add("peak_rss_mb", rss, "MiB");
    return out;
  }

  // --- per-layer ladder ------------------------------------------------------
  std::uint64_t sessions = 0;
  for (std::size_t k = 0; k < kTierCount; ++k) {
    sessions += first.counts.started[k];
  }
  const double events = static_cast<double>(first.events);
  const double round_ns = tracer.min_ns("campaign.round");
  out.add("trace.ops_per_s", ops_per_s, "op/s");
  out.add("api.build_ms", tracer.min_ns("api.build") / 1e6, "ms");
  out.add("scenario.start_ms", tracer.min_ns("scenario.start") / 1e6, "ms");
  out.add("sim.events", events, "count");
  out.add("sim.events_per_op", events / static_cast<double>(frames), "count");
  out.add("sim.ns_per_event", round_ns / events, "ns");
  out.add("shard.windows", static_cast<double>(pair.windows), "count");
  out.add("shard.cross_delivered", static_cast<double>(pair.cross_delivered),
          "count");
  out.add("shard.speedup", round_ns / tracer.min_ns("campaign.pair"), "x");
  out.add("sim.pending_peak", static_cast<double>(pair.pending_peak),
          "count");
  out.add("obs.samples_retained", static_cast<double>(first.samples_retained),
          "count");
  out.add("telecom.sessions", static_cast<double>(sessions), "count");
  out.add("telecom.frames", static_cast<double>(frames), "count");
  out.add("scenario.handovers", static_cast<double>(first.counts.handovers),
          "count");
  {
    // The same campaign with the registry on and off, in turns, so that both
    // kinds of run see the same host: the share of a run's time the registry
    // costs, fastest against fastest.
    for (int i = 0; i < 4; ++i) {
      for (const bool on : {true, false}) {
        registry.set_enabled(on);
        const RunResult r = run_campaign_once(
            {on ? "ladder.obs_on" : "ladder.obs_off", kTimedShards, on},
            config.seed, campaign, tracer);
        out.check(r.counts == first.counts,
                  "campaign: the registry changed the model's outcome");
        registry.reset_values();
      }
    }
    registry.set_enabled(true);
    const double on_ns = tracer.min_ns("ladder.obs_on");
    out.add("obs.share", (on_ns - tracer.min_ns("ladder.obs_off")) / on_ns,
            "ratio");
  }
  out.add("host.parallelism", spin_parallelism(), "cores");
  if (!config.trace_path.empty()) {
    out.check(tracer.write(config.trace_path, config.workload, config.seed),
              "could not write " + config.trace_path);
  }
  return out;
}

}  // namespace aarsbench
