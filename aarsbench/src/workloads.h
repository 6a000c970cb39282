// The three workloads.  Each runs in one process: a timed cold set-up, a
// measured phase of whole rounds for RunConfig::seconds, output checks, and
// (when tracing) a ladder of extra configurations for the per-layer
// metrics.  Each fills an Outcome; main prints it.
#pragma once

#include "common.h"

namespace aarsbench {

/// Closed-loop echo/ping calls over sync and queued connectors carrying
/// 0, 2 and 8 interceptors.
Outcome run_relay(const RunConfig& config);
/// Seeded mixed-tier telecom campaign on a 2-shard ShardedRuntime.
Outcome run_campaign(const RunConfig& config);
/// ADL-declared world under RAML and a seeded fault storm.
Outcome run_storm(const RunConfig& config);

}  // namespace aarsbench
