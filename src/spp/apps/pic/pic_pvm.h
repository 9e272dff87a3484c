// PVM (message-passing) implementation of the 3D electrostatic PIC code.
//
// Classic replicated-grid PVM PIC, the style the paper's message-passing
// version follows: each task owns a fixed share of the particles and a full
// private copy of the mesh.  Per step:
//   1. every task deposits its particles on its private charge mesh;
//   2. partial meshes are combined on task 0 (pvm sends), which solves the
//      Poisson equation once and broadcasts the electric field;
//   3. every task gathers/pushes its own particles against its private E.
//
// The combine/broadcast traffic is proportional to mesh size x tasks, which
// is what makes this version roughly half the speed of the shared-memory
// implementation in Figure 6.
//
// Task-private data is charged as NearShared traffic homed on the task's own
// hypernode (a PVM process's pages are node-local); message costs go through
// spp::pvm.
//
// The numerics are pic.h's: the same particle load fills the host mirror,
// every task's deposit and gather use the CIC stencil and its push the
// leapfrog, and task 0's solve uses the Poisson divisor.  Only the charges,
// the particle slices and the messages are this coding's own.
//
// A CPU fail-stop needs no protocol here: the victim task's thread migrates
// to a surviving CPU with its particles and private mesh intact, and the run
// ends at the fault-free answer (docs/RECOVERY.md).
#pragma once

#include <memory>
#include <vector>

#include "spp/apps/pic/pic.h"
#include "spp/ckpt/durable.h"
#include "spp/pvm/pvm.h"

namespace spp::pic {

/// Runs the PVM PIC with `ntasks` tasks; same numerics as PicShared.
class PicPvm {
 public:
  PicPvm(rt::Runtime& rt, const PicConfig& cfg, unsigned ntasks,
         rt::Placement placement);

  /// Runs cfg.steps steps (docs/RECOVERY.md).  Without `spec` the tasks run
  /// in one spawn.  An enabled `spec` makes the run durable: one spawn per
  /// epoch-sized chunk, the slices gathered back to the host mirror at every
  /// chunk end so each boundary's capture and disk commit see the current
  /// state; with spec.resume it continues from the newest valid disk epoch
  /// to the uninterrupted run's digest.
  PicResult run(const ckpt::DurableSpec& spec = {});

 private:
  rt::Runtime& rt_;
  PicConfig cfg_;
  unsigned ntasks_;
  rt::Placement placement_;
};

}  // namespace spp::pic
