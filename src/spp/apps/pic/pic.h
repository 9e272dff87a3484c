// 3D electrostatic particle-in-cell plasma code (section 5.1).
//
// Reproduces the paper's test problem: a monoenergetic electron beam
// propagating through a Maxwellian background plasma, with periodic
// boundaries, CIC (cloud-in-cell) charge deposit, an FFT Poisson solve
// (spp::fft standing in for VECLIB), central-difference field gradient, and
// a second-order leapfrog push.  "Each calculation began with 8 plasma
// electrons and 1 beam electron in each mesh cell" -- the beam carries
// roughly 1/10th of the background density.
//
// Two parallel implementations run the same numerics:
//   * PicShared  -- compiler-directive-style threads on the Runtime
//                   (per-thread charge staging + parallel reduction);
//   * PicPvm     -- PVM tasks with slab decomposition (pic_pvm.h).
//
// Every kernel both computes the real physics and charges its memory traffic
// and flops against the simulated machine, so Figure 6's scaling emerges
// from NUMA behaviour.
#pragma once

#include <complex>
#include <cstdint>
#include <memory>
#include <vector>

#include "spp/ckpt/durable.h"
#include "spp/rt/garray.h"
#include "spp/rt/runtime.h"
#include "spp/rt/sync.h"
#include "spp/sim/rng.h"

namespace spp::pic {

struct PicConfig {
  std::size_t nx = 16, ny = 16, nz = 16;  ///< mesh (powers of two).
  unsigned plasma_per_cell = 8;
  unsigned beam_per_cell = 1;
  double vth = 1.0;            ///< background thermal velocity.
  double beam_velocity = 5.0;  ///< beam drift along z, in vth units.
  double dt = 0.1;
  unsigned steps = 10;
  std::uint64_t seed = 12345;
  /// Checkpoint the particle state every K steps (0 = off, see
  /// docs/RECOVERY.md).  PicShared recovers from a CPU fail-stop by
  /// migrate-and-restore (bit-exact with the fault-free run); PicPvm by
  /// ULFM-style shrink + rollback (small tolerance: the charge combine
  /// order changes with the group).
  unsigned ckpt_interval = 0;

  std::size_t cells() const { return nx * ny * nz; }
  std::size_t particles() const {
    return cells() * (plasma_per_cell + beam_per_cell);
  }
  /// The paper's "11 data words to specify [a particle's] properties".
  static constexpr unsigned kWordsPerParticle = 11;
};

/// Per-step diagnostics (all from the real computed state).
struct PicDiagnostics {
  double kinetic_energy = 0;
  double field_energy = 0;
  double total_charge = 0;    ///< sum of rho over the mesh.
  double momentum_z = 0;      ///< total z momentum.
};

/// Result of a full run.
struct PicResult {
  sim::Time sim_time = 0;        ///< simulated wall time of the stepping loop.
  double flops = 0;              ///< charged floating point operations.
  double mflops = 0;             ///< flops / sim_time.
  /// Per-phase simulated wall time: deposit, reduce, solve, gather/push.
  sim::Time phase_time[4] = {0, 0, 0, 0};
  PicDiagnostics initial;
  PicDiagnostics final;
  std::vector<double> field_energy_history;
};

/// Analytic flop counts per step (used for charging and for the C90 line).
double flops_per_step(const PicConfig& cfg);

/// Shared-memory threaded PIC on the simulated machine.
class PicShared {
 public:
  PicShared(rt::Runtime& rt, const PicConfig& cfg, unsigned nthreads,
            rt::Placement placement);

  /// Runs cfg.steps timesteps inside the current Runtime::run context
  /// (docs/RECOVERY.md).  Without `spec` the steps run in one parallel
  /// region, with migrate-and-restore recovery when cfg.ckpt_interval is
  /// set.  An enabled `spec` makes the run durable: epoch-sized chunks with a
  /// capture, disk commit and machine power-cycle at every boundary, the
  /// host-side running results checkpointed with the particles; with
  /// spec.resume it continues from the newest valid disk epoch to the
  /// uninterrupted run's result and digest.  The durable path ignores
  /// cfg.ckpt_interval and never rolls back: after a CPU fail-stop, thread
  /// migration alone keeps the answer.
  PicResult run(const ckpt::DurableSpec& spec = {});

  /// Diagnostics of the current particle/field state (uncharged).
  PicDiagnostics diagnostics() const;

 private:
  void load_particles();
  void deposit(unsigned tid, unsigned nthreads);
  void reduce_charge(unsigned tid, unsigned nthreads);
  void solve_fields(unsigned tid, unsigned nthreads);
  void gather_push(unsigned tid, unsigned nthreads);
  /// Time step `s` of thread `tid`: all phases, then thread 0 records the
  /// step's diagnostics.
  void step(unsigned tid, unsigned nthreads, std::uint64_t s);

  std::size_t cell_index(std::size_t ix, std::size_t iy, std::size_t iz) const {
    return (iz * cfg_.ny + iy) * cfg_.nx + ix;
  }

  rt::Runtime& rt_;
  PicConfig cfg_;
  unsigned nthreads_;
  rt::Placement placement_;

  // Particle state: structure-of-arrays, far-shared (block-distributed so a
  // thread's contiguous slice is mostly node-local under uniform placement).
  std::unique_ptr<rt::GlobalArray<double>> px_, py_, pz_;
  std::unique_ptr<rt::GlobalArray<double>> vx_, vy_, vz_;

  // Mesh state.
  std::unique_ptr<rt::GlobalArray<double>> rho_;        ///< charge density.
  std::unique_ptr<rt::GlobalArray<double>> stage_;      ///< per-thread deposit staging.
  std::unique_ptr<rt::GlobalArray<double>> ex_, ey_, ez_;
  std::vector<std::complex<double>> work_;              ///< FFT workspace (host).
  std::unique_ptr<rt::GlobalArray<std::complex<double>>> phik_;

  std::unique_ptr<rt::Barrier> barrier_;

  /// Host-side running results of a run, recorded by thread 0; a durable
  /// run checkpoints them with the fixed-size history.  history_[s] holds
  /// step s's field energy, so a replay rewrites what it rolled back.
  struct Tally {
    sim::Time phase_time[4] = {0, 0, 0, 0};
    PicDiagnostics initial;
    std::uint64_t history_count = 0;
  };
  Tally tally_;
  std::vector<double> history_;
};

}  // namespace spp::pic
