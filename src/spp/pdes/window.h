// Lookahead window sizing for the multi-node phase/fusion schedule.
//
// The conductor advances the shards in "phases": a phase's horizon is the
// globally earliest runnable clock plus the lookahead window, and all
// deferred cross-shard events are fused at the rendezvous that ends the
// phase.  The window base is the provable minimum cross-node transit cost
// (sci/lookahead.h); the multiplier trades rendezvous frequency for bounded
// causality slack.  The window is part of the multi-node timing model:
// changing it moves every multi-node digest.
#pragma once

#include "spp/arch/cost_model.h"
#include "spp/sci/lookahead.h"
#include "spp/sim/time.h"

namespace spp::pdes {

/// Horizon = min runnable clock + kWindowMultiplier * L, where L is the
/// minimum SCI transit latency.  8 keeps the causality slack within ~8 us
/// of ring latency while batching enough work per phase to amortize the
/// rendezvous.
inline constexpr unsigned kWindowMultiplier = 8;

/// The lookahead window: kWindowMultiplier times the minimum cross-node
/// transit latency from the cost model.
inline sim::Time lookahead_window(const arch::CostModel& cm) {
  return kWindowMultiplier * sci::min_transit_latency(cm);
}

}  // namespace spp::pdes
