// Tests of the benchmark's own computations, on small cases worked out by
// hand: the percentile, the per-slice best round time, the campaign counts
// derived from user lifetimes and the tier table, and the firing fingerprint.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "api/runtime.h"
#include "common.h"
#include "counts.h"
#include "scenario/driver.h"
#include "stats.h"
#include "telecom/media.h"

namespace aarsbench {
namespace {

using aars::scenario::Tier;
using aars::scenario::UserLife;
using aars::util::milliseconds;
using aars::util::seconds;

// --- percentile ------------------------------------------------------------------

TEST(Stats, NearestRankPercentile) {
  std::vector<int> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  EXPECT_EQ(percentile(hundred, 99.0), 99);  // rank ceil(0.99 * 100) = 99
  EXPECT_EQ(percentile(hundred, 100.0), 100);
  EXPECT_EQ(percentile(hundred, 50.0), 50);
  EXPECT_EQ(percentile(hundred, 0.5), 1);  // rank ceil(0.5) = 1
  // 3 samples: rank ceil(0.99 * 3) = 3, the largest.
  EXPECT_EQ(percentile(std::vector<int>{5, 1, 3}, 99.0), 5);
  // 200 samples 1..200: rank ceil(198) = 198.
  std::vector<long> two_hundred;
  for (long i = 1; i <= 200; ++i) two_hundred.push_back(i);
  EXPECT_EQ(percentile(two_hundred, 99.0), 198);
  EXPECT_THROW(percentile(std::vector<int>{}, 99.0), std::invalid_argument);
  EXPECT_THROW(percentile(std::vector<int>{1}, 0.0), std::invalid_argument);
}

// --- per-slice best round time ----------------------------------------------------

TEST(BestSlices, SumsTheFastestReplayOfEachSlice) {
  BestSlices best;
  EXPECT_DOUBLE_EQ(best.round_seconds(), 0.0);
  // Round 1: slices 3 s and 5 s; round 2: 4 s and 2 s; round 3 only slice 0.
  best.record(0, 3'000'000'000);
  best.record(1, 5'000'000'000);
  best.record(0, 4'000'000'000);
  best.record(1, 2'000'000'000);
  best.record(0, 1'000'000'000);
  EXPECT_DOUBLE_EQ(best.round_seconds(), 1.0 + 2.0);
  // A slice first seen late counts from then on.
  best.record(2, 500'000'000);
  EXPECT_DOUBLE_EQ(best.round_seconds(), 3.5);
}

// --- campaign counts -------------------------------------------------------------

UserLife life(Tier tier, aars::util::SimTime arrival,
              aars::util::Duration session) {
  UserLife l;
  l.tier = tier;
  l.arrival = arrival;
  l.session = session;
  return l;
}

TEST(CampaignCounts, FrameGapsFollowTheTierTable) {
  const auto& tiers = aars::scenario::standard_tiers();
  EXPECT_EQ(frame_gap(tiers[0]), milliseconds(100));   // premium, 10 fps
  EXPECT_EQ(frame_gap(tiers[1]), milliseconds(500));   // standard, 2 fps
  EXPECT_EQ(frame_gap(tiers[2]), milliseconds(2000));  // best effort, 0.5 fps
}

TEST(CampaignCounts, UsersCountedByHand) {
  CampaignCounts c;
  const auto horizon = seconds(8);
  // Premium, 1 s + 350 ms: frames at 1.1, 1.2, 1.3 s -> 3.
  add_user(c, life(Tier::kPremium, seconds(1), milliseconds(350)), horizon);
  // Premium, life exactly 300 ms: the frame at the departure instant counts.
  add_user(c, life(Tier::kPremium, seconds(2), milliseconds(300)), horizon);
  // Standard from 7.2 s for 5 s, clamped at 8 s: 800 ms -> 1 frame.
  add_user(c, life(Tier::kStandard, milliseconds(7200), seconds(5)), horizon);
  // Best effort for 1.9 s: shorter than its 2 s gap -> a session, 0 frames.
  add_user(c, life(Tier::kBestEffort, 0, milliseconds(1900)), horizon);
  // Best effort for 4 s from 3 s: frames at 5 and 7 s -> 2.
  add_user(c, life(Tier::kBestEffort, seconds(3), seconds(4)), horizon);
  // Arrives at the horizon, or with an empty session: never admitted.
  add_user(c, life(Tier::kStandard, horizon, seconds(1)), horizon);
  add_user(c, life(Tier::kPremium, seconds(1), 0), horizon);

  EXPECT_EQ(c.sessions, (TierArray{2, 1, 2}));
  EXPECT_EQ(c.frames, (TierArray{6, 1, 2}));
}

TEST(CampaignCounts, MatchTheDriverWithExactTimers) {
  // A small campaign without rehoming phases: a driver with exact frame
  // timers must start every counted session and attempt exactly F frames.
  aars::scenario::CampaignSpec spec;
  spec.duration = seconds(3);
  spec.mean_session = seconds(1);
  spec.cells = 2;
  spec.tier_mix(0.2, 0.3, 0.5);
  spec.baseline(300.0, milliseconds(200));
  const aars::scenario::Campaign campaign(spec, 11);
  const CampaignCounts expect = expected_counts(campaign);

  aars::sim::LinkSpec link;
  aars::connector::ConnectorSpec media;
  media.name = "media";
  auto rt = aars::Runtime::builder()
                .host("core", 200000)
                .host("edge-a", 200000)
                .host("edge-b", 200000)
                .link("edge-a", "core", link)
                .link("edge-b", "core", link)
                .component_type("MediaServer",
                                [](const std::string& n) {
                                  return std::make_unique<
                                      aars::telecom::MediaServer>(n);
                                })
                .deploy("MediaServer", "srv", "core")
                .connect(media, {"srv"})
                .build()
                .value();
  aars::scenario::CampaignDriver::Options options;
  options.service = rt->connector("media");
  options.cells = {rt->host("edge-a"), rt->host("edge-b")};
  aars::scenario::CampaignDriver driver(rt->app(), campaign, options);
  driver.start();
  rt->run();
  std::uint64_t sessions = 0;
  for (std::size_t k = 0; k < aars::scenario::kTierCount; ++k) {
    const auto tier = static_cast<Tier>(k);
    EXPECT_EQ(driver.tier_stats(tier).started, expect.sessions[k]);
    EXPECT_EQ(driver.sessions(tier).frames_attempted(), expect.frames[k]);
    sessions += expect.sessions[k];
  }
  EXPECT_GT(sessions, 250u);
}

// --- firing fingerprint ------------------------------------------------------------

TEST(FiringFingerprint, IsFnv1aOverTheFiringRecords) {
  FiringFingerprint empty;
  EXPECT_EQ(empty.digest(), 0xcbf29ce484222325ULL);  // FNV-1a of ""
  EXPECT_EQ(empty.firings(), 0u);

  // FNV-1a 64 of "shuffle:committed:2:0;".
  FiringFingerprint one;
  one.add("shuffle", "committed", 2, 0);
  EXPECT_EQ(one.digest(), 0xfdc28903bd594c39ULL);

  // ... followed by "failover:rolled_back:2:1;".
  one.add("failover", "rolled_back", 2, 1);
  EXPECT_EQ(one.digest(), 0xa09d8904563f9aadULL);
  EXPECT_EQ(one.firings(), 2u);
}

TEST(FiringFingerprint, DependsOnOrder) {
  FiringFingerprint ab, ba;
  ab.add("shuffle", "committed", 2, 0);
  ab.add("failover", "rolled_back", 2, 1);
  ba.add("failover", "rolled_back", 2, 1);
  ba.add("shuffle", "committed", 2, 0);
  EXPECT_NE(ab.digest(), ba.digest());
}

}  // namespace
}  // namespace aarsbench
