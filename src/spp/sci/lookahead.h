// Conservative lookahead extraction from the SCI cost model.
//
// The multi-node phase/fusion schedule (spp::pdes, docs/PERFORMANCE.md
// "Multi-node schedule") lets each hypernode shard advance its local
// virtual clock freely inside a window, because no cross-node effect can
// land on another hypernode sooner than the cheapest possible ring
// traversal.  This header derives that bound from the same CostModel
// constants the ring fabric charges, so the window can never silently
// drift from the machine model:
//
//   * every cross-node transaction enters the sender's ring interface
//     (ring_if cycles of SCI engine + entry/exit cost, sci/ring.h), and
//   * traverses at least one inter-node link hop (ring_hop cycles;
//     Topology::ring_hops() is >= 1 whenever from != to on the
//     unidirectional rings).
//
// Contended-resource queueing (link/bank/directory busy-until) only ever
// ADDS latency on top, so ring_if + ring_hop is a true lower bound on the
// simulated time between a shard issuing a remote operation and that
// operation first touching remote state.
#pragma once

#include "spp/arch/cost_model.h"
#include "spp/sim/time.h"

namespace spp::sci {

/// Minimum simulated latency of any cross-hypernode transit: ring-interface
/// entry plus one mandatory link hop.  This is the PDES lookahead base.
inline sim::Time min_transit_latency(const arch::CostModel& cm) {
  return sim::cycles(cm.ring_if) + sim::cycles(cm.ring_hop);
}

}  // namespace spp::sci
