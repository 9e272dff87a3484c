// Cross-shard event ordering for the multi-node phase/fusion schedule.
//
// Every cross-shard mutation (remote memory access completion, SCI
// back-pointer updates, PVM delivery, fault events) is deferred at a gate,
// recorded on its source shard's event list, and replayed at the next
// fusion point in a single global order.  That order is the total order over
// EventKey below, and it is a pure function of simulated state -- it never
// depends on host timing -- which is what keeps PerfCounters::digest
// bit-identical from run to run (docs/PERFORMANCE.md "Multi-node
// schedule").
#pragma once

#include <cstdint>

#include "spp/sim/time.h"

namespace spp::pdes {

/// Deterministic tie-break key for cross-shard events:
///   1. simulated timestamp of the deferred operation,
///   2. source shard (hypernode) id,
///   3. per-shard monotonic sequence number.
/// The sequence number is assigned in the shard's own deterministic dispatch
/// order, so two same-timestamp events from the SAME shard replay in program
/// order, and same-timestamp events from DIFFERENT shards replay in shard-id
/// order -- both host-timing independent.
struct EventKey {
  sim::Time ts = 0;
  unsigned shard = 0;
  std::uint64_t seq = 0;
};

constexpr bool operator<(const EventKey& a, const EventKey& b) {
  if (a.ts != b.ts) return a.ts < b.ts;
  if (a.shard != b.shard) return a.shard < b.shard;
  return a.seq < b.seq;
}

constexpr bool operator==(const EventKey& a, const EventKey& b) {
  return a.ts == b.ts && a.shard == b.shard && a.seq == b.seq;
}

}  // namespace spp::pdes
