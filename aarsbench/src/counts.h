// Expected outputs the benchmark computes apart from the program: the
// sessions and frames a campaign must produce (from Campaign::user() and
// the tier table alone), and the digest that identifies a storm's firing
// sequence.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "scenario/campaign.h"

namespace aarsbench {

using TierArray = std::array<std::uint64_t, aars::scenario::kTierCount>;

struct CampaignCounts {
  TierArray sessions{};  // users admitted inside the horizon, per tier
  TierArray frames{};    // F: Σ ⌊life / gap⌋ per tier
};

/// Frame gap of a tier in simulated µs, as a session manager derives it
/// from the tier's frame rate.
aars::util::Duration frame_gap(const aars::scenario::QosTier& tier);

/// Adds one user's lifetime to `counts`.  A user is admitted when its
/// session, clamped to `horizon`, ends after its arrival; an admitted user
/// with exact frame timers sends one frame every gap after arrival while
/// the frame instant does not pass the clamped departure.
void add_user(CampaignCounts& counts, const aars::scenario::UserLife& life,
              aars::util::Duration horizon);

/// Counts over every user of the campaign.
CampaignCounts expected_counts(const aars::scenario::Campaign& campaign);

/// Order-sensitive digest of a sequence of settled rule firings: FNV-1a
/// (64-bit) over "rule:verdict:steps:undo;" for each firing in turn.
class FiringFingerprint {
 public:
  void add(std::string_view rule, std::string_view verdict,
           std::uint64_t steps, std::uint64_t undo_steps);
  std::uint64_t digest() const { return hash_; }
  std::uint64_t firings() const { return firings_; }

 private:
  void feed(std::string_view bytes);

  std::uint64_t hash_ = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  std::uint64_t firings_ = 0;
};

}  // namespace aarsbench
