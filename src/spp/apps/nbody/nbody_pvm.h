// PVM (message-passing) version of the gravitational tree code, following
// the Olson & Packer structure the paper describes in section 5.3.2:
//
//   "A message passing version of this code has also been developed using
//    the PVM library ... The single processor performance of the code was
//    quite good ... The overheads of packing and sending messages, however,
//    are prohibitive and overall performance is degraded relative to the
//    shared memory version of the code."
//
// Replicated-tree organization: each task owns a particle slice; per step
// the slices' positions are gathered to task 0, which builds the oct-tree
// and broadcasts it (with the particle coordinates) to every task; tasks
// then compute forces for their own slices against their private tree copy
// and push.  The tree+particle broadcast is the prohibitive packing traffic:
// every unpack streams the whole structure through the receiver's cache at
// per-line rates.
//
// With NbodyConfig::ckpt_interval > 0 the run is survivable: tasks subscribe
// to failure notification, ship their slices to rank 0 for a coordinated
// spp::ckpt snapshot every K steps, and recover from a CPU fail-stop by
// shrinking the group, rolling back to the last epoch, and redistributing
// the surviving work (docs/RECOVERY.md).
#pragma once

#include "spp/apps/nbody/nbody.h"
#include "spp/pvm/pvm.h"

namespace spp::nbody {

class NbodyPvm {
 public:
  NbodyPvm(rt::Runtime& rt, const NbodyConfig& cfg, unsigned ntasks,
           rt::Placement placement);

  /// Loads the same deterministic Plummer sphere as NbodyShared and runs
  /// cfg.steps steps (docs/RECOVERY.md).  Without `spec` the tasks run in
  /// one spawn, with shrink-and-rollback recovery when cfg.ckpt_interval is
  /// set.  An enabled `spec` makes the run durable: one spawn per
  /// epoch-sized chunk, the slices gathered back to the host mirror at every
  /// chunk end so each boundary's capture and disk commit see the current
  /// state; with spec.resume it continues from the newest valid disk epoch
  /// to the uninterrupted run's digest.  The durable path ignores
  /// cfg.ckpt_interval and never rolls back: after a CPU fail-stop, thread
  /// migration alone keeps the answer.
  NbodyResult run(const ckpt::DurableSpec& spec = {});

 private:
  rt::Runtime& rt_;
  NbodyConfig cfg_;
  unsigned ntasks_;
  rt::Placement placement_;
};

}  // namespace spp::nbody
