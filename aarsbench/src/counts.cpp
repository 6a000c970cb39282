#include "counts.h"

#include <algorithm>
#include <string>

namespace aarsbench {

using aars::scenario::standard_tiers;
using aars::util::Duration;
using aars::util::SimTime;

Duration frame_gap(const aars::scenario::QosTier& tier) {
  return std::max<Duration>(
      static_cast<Duration>(aars::util::kSecond / tier.fps), 1);
}

void add_user(CampaignCounts& counts, const aars::scenario::UserLife& life,
              Duration horizon) {
  const SimTime until = std::min<SimTime>(life.arrival + life.session, horizon);
  if (until <= life.arrival) return;
  const auto k = static_cast<std::size_t>(life.tier);
  ++counts.sessions[k];
  counts.frames[k] += static_cast<std::uint64_t>(
      (until - life.arrival) / frame_gap(standard_tiers()[k]));
}

CampaignCounts expected_counts(const aars::scenario::Campaign& campaign) {
  CampaignCounts counts;
  const Duration horizon = campaign.spec().duration;
  for (std::uint64_t i = 0; i < campaign.total_users(); ++i) {
    add_user(counts, campaign.user(i), horizon);
  }
  return counts;
}

void FiringFingerprint::feed(std::string_view bytes) {
  for (const char c : bytes) {
    hash_ ^= static_cast<unsigned char>(c);
    hash_ *= 0x100000001b3ULL;  // FNV-1a prime
  }
}

void FiringFingerprint::add(std::string_view rule, std::string_view verdict,
                            std::uint64_t steps, std::uint64_t undo_steps) {
  feed(rule);
  feed(":");
  feed(verdict);
  feed(":");
  feed(std::to_string(steps));
  feed(":");
  feed(std::to_string(undo_steps));
  feed(";");
  ++firings_;
}

}  // namespace aarsbench
