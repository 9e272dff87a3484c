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
//   * PicPvm     -- PVM tasks, each with a slice of the particles and a
//                   replicated mesh (pic_pvm.h).
// The numerics are written once, below, and both call them: the particle
// load, the CIC stencil of the deposit and the gather, the leapfrog push and
// the spectral Poisson divisor.  The codings differ only in how they charge,
// decompose and communicate.
//
// Every kernel both computes the real physics and charges its memory traffic
// and flops against the simulated machine, so Figure 6's scaling emerges
// from NUMA behaviour.
#pragma once

#include <cmath>
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

  std::size_t cells() const { return nx * ny * nz; }
  std::size_t particles() const {
    return cells() * (plasma_per_cell + beam_per_cell);
  }
  /// The paper's "11 data words to specify [a particle's] properties".
  static constexpr unsigned kWordsPerParticle = 11;

  /// Index of mesh cell (ix, iy, iz), x fastest.
  std::size_t cell_index(std::size_t ix, std::size_t iy, std::size_t iz) const {
    return (iz * ny + iy) * nx + ix;
  }
};

// Flop estimates per kernel, per item (counted once here so both codings and
// the C90 comparator agree).
inline constexpr double kDepositFlops = 33;  // CIC weights + 8 accumulates.
inline constexpr double kPushFlops = 70;     // gather interpolation + leapfrog.
inline constexpr double kFieldFlopsPerCell = 16;  // spectral divide + gradient.

/// Fills cfg.particles() particles in place with the beam-plasma load of
/// cfg.seed: in each mesh cell, x fastest, plasma_per_cell Maxwellian
/// electrons and then beam_per_cell beam electrons drifting along z, all at
/// uniform random positions in the cell.
void fill_beam_plasma(const PicConfig& cfg, double* x, double* y, double* z,
                      double* vx, double* vy, double* vz);

/// The cloud-in-cell stencil of a position in the periodic mesh: the 8
/// cells around it and their weights, corner (a, b, c) at index 4a + 2b + c.
/// The deposit adds charge q * w[k] to cell[k]; the gather sums w[k] times
/// the field at cell[k].
struct Cic {
  std::size_t cell[8];
  double w[8];
};

inline Cic cic_stencil(const PicConfig& cfg, double x, double y, double z) {
  const auto ix = static_cast<std::size_t>(x);
  const auto iy = static_cast<std::size_t>(y);
  const auto iz = static_cast<std::size_t>(z);
  const double fx = x - static_cast<double>(ix);
  const double fy = y - static_cast<double>(iy);
  const double fz = z - static_cast<double>(iz);
  const double wx[2] = {1 - fx, fx}, wy[2] = {1 - fy, fy}, wz[2] = {1 - fz, fz};
  const std::size_t cx[2] = {ix, (ix + 1) % cfg.nx};
  const std::size_t cy[2] = {iy, (iy + 1) % cfg.ny};
  const std::size_t cz[2] = {iz, (iz + 1) % cfg.nz};
  Cic s{};
  for (int a = 0; a < 2; ++a) {
    for (int b = 0; b < 2; ++b) {
      for (int c = 0; c < 2; ++c) {
        s.cell[4 * a + 2 * b + c] = cfg.cell_index(cx[a], cy[b], cz[c]);
        s.w[4 * a + 2 * b + c] = wx[a] * wy[b] * wz[c];
      }
    }
  }
  return s;
}

/// The leapfrog push of one electron (charge/mass -1) in field `e`: kick,
/// then drift with periodic wrap.
inline void leapfrog(const PicConfig& cfg, const double (&e)[3], double& x,
                     double& y, double& z, double& vx, double& vy,
                     double& vz) {
  const double qm = -1.0;
  const double dt = cfg.dt;
  const double lx = static_cast<double>(cfg.nx);
  const double ly = static_cast<double>(cfg.ny);
  const double lz = static_cast<double>(cfg.nz);
  vx += dt * qm * e[0];
  vy += dt * qm * e[1];
  vz += dt * qm * e[2];
  x += dt * vx;
  y += dt * vy;
  z += dt * vz;
  x -= lx * std::floor(x / lx);
  y -= ly * std::floor(y / ly);
  z -= lz * std::floor(z / lz);
  // Guard against fp edge landing exactly on the box bound.
  if (x >= lx) x = 0;
  if (y >= ly) y = 0;
  if (z >= lz) z = 0;
}

/// The spectral Poisson solve of mode `c`: phi_hat = rho_hat / k2, with k2
/// the finite-difference-consistent eigenvalue (it matches the central-
/// difference field gradient, which keeps the scheme momentum-conserving).
/// The mean mode, whose k2 is 0, gets phi_hat = 0.
std::complex<double> poisson_mode(const PicConfig& cfg, std::size_t c,
                                  std::complex<double> rho_hat);

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
  /// region.  An enabled `spec` makes the run durable: epoch-sized chunks
  /// with a capture, disk commit and machine power-cycle at every boundary,
  /// the host-side running results checkpointed with the particles; with
  /// spec.resume it continues from the newest valid disk epoch to the
  /// uninterrupted run's result and digest.  Either way a thread whose CPU
  /// fail-stops migrates and finishes the run, which ends at the fault-free
  /// answer.
  PicResult run(const ckpt::DurableSpec& spec = {});

  /// Diagnostics of the current particle/field state (uncharged).
  PicDiagnostics diagnostics() const;

 private:
  void deposit(unsigned tid, unsigned nthreads);
  void reduce_charge(unsigned tid, unsigned nthreads);
  void solve_fields(unsigned tid, unsigned nthreads);
  void gather_push(unsigned tid, unsigned nthreads);
  /// Time step `s` of thread `tid`: all phases, then thread 0 records the
  /// step's diagnostics.
  void step(unsigned tid, unsigned nthreads, std::uint64_t s);

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
  /// run checkpoints them with the fixed-size history (history_[s] holds
  /// step s's field energy).
  struct Tally {
    sim::Time phase_time[4] = {0, 0, 0, 0};
    PicDiagnostics initial;
    std::uint64_t history_count = 0;
  };
  Tally tally_;
  std::vector<double> history_;
};

}  // namespace spp::pic
