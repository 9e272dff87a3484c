// The two time loops the applications run under (docs/RECOVERY.md,
// "Per-app recovery" and "Bit-exact resume"), written once; an application
// supplies its step.
//
//   * run_chunks is the durable chunk loop: a DurableSession over the
//     app's Store, one parallel/spawn region per chunk of spec.interval
//     steps, and a session boundary (capture, disk commit, machine
//     power-cycle) before each chunk and after the last.  One region per
//     chunk with a cold machine between chunks is what makes a resumed run
//     bit-exact.
//   * run_steps is a shared-memory app's whole time loop.  With a durable
//     spec it is run_chunks with one parallel region per chunk.  Without
//     one it is a single parallel region -- the shape the paper's numbers
//     come from -- carrying the in-memory migrate-and-restore loop when a
//     checkpoint interval is set.
//
// The durable path never reads the in-memory checkpoint interval and never
// rolls back: a thread that migrates off a fail-stopped CPU finishes its
// step on the new CPU, and migration alone keeps the answer.
#pragma once

#include <cstdint>
#include <functional>

#include "spp/ckpt/ckpt.h"
#include "spp/ckpt/durable.h"
#include "spp/rt/runtime.h"
#include "spp/rt/sync.h"

namespace spp::ckpt {

/// Runs steps [begin, end) as one parallel or spawn region.
using ChunkFn = std::function<void(std::uint64_t begin, std::uint64_t end)>;

/// The durable chunk loop, on the calling (main) simulated thread with every
/// region of `store` registered.  Starts at step 0, or at the newest valid
/// disk epoch when spec.resume; returns once `steps` steps have run or a
/// shutdown request stopped the run at a boundary with its epoch on disk.
void run_chunks(rt::Runtime& rt, Store& store, const DurableSpec& spec,
                std::uint64_t steps, const ChunkFn& chunk);

/// One time step, run by each thread `tid` of a shared-memory team.
using StepFn =
    std::function<void(unsigned tid, unsigned nthreads, std::uint64_t step)>;

/// A shared-memory app's time loop: `steps` steps of `step` on `nthreads`
/// threads placed by `placement`, with `barrier` as the team's barrier.
/// Durable when `spec` is enabled.  Otherwise, with `interval` > 0, thread 0
/// captures every `interval`th step's epoch into `store` (a replay does not
/// re-capture), and after a step in which a thread migrated off a
/// fail-stopped CPU it restores the latest epoch and the team replays from
/// there.  With `interval` 0 the loop adds no barrier, capture or charge.
void run_steps(rt::Runtime& rt, unsigned nthreads, rt::Placement placement,
               rt::Barrier& barrier, Store& store, unsigned interval,
               const DurableSpec& spec, std::uint64_t steps,
               const StepFn& step);

}  // namespace spp::ckpt
