// The "scatter-add problem" (section 5.2.1 calls it critical to any parallel
// FEM implementation; section 6 lists it among the missing fine-tuned
// libraries): accumulate m (index, value) contributions into a target array
// under concurrent threads.
//
// Three strategies with different NUMA behaviour:
//   * kPrivate -- per-thread private staging + locality-ordered tree combine
//                 (no synchronization in the hot loop; memory ~ P x n);
//   * kLocked  -- direct accumulation under striped locks (lock per block of
//                 targets; the hot loop pays lock traffic and line
//                 ping-pong, the 1995 failure mode);
//   * kOwner   -- each thread re-scans the whole contribution stream and
//                 applies only the indices it owns (zero conflicts, P x read
//                 amplification) -- the point-centric aggregation the
//                 paper's FEM code uses.
//
// The `scatter_strategies` entry of sppsim-bench compares them; the FEM and
// PIC codes embody kOwner and kPrivate respectively.
#pragma once

#include <cstdint>
#include <vector>

#include "spp/rt/garray.h"
#include "spp/rt/runtime.h"

namespace spp::lib {

enum class ScatterStrategy { kPrivate, kLocked, kOwner };

struct ScatterStats {
  sim::Time sim_time = 0;
};

/// target[idx[k]] += val[k] for all k, in parallel.  `idx`/`val` are host
/// vectors describing the contribution stream (charged as streaming reads);
/// `target` is the shared array.  Deterministic for every strategy.
ScatterStats scatter_add(rt::Runtime& rt, rt::GlobalArray<double>& target,
                         const std::vector<std::int32_t>& idx,
                         const std::vector<double>& val, unsigned nthreads,
                         rt::Placement placement, ScatterStrategy strategy);

}  // namespace spp::lib
