// 2D unstructured FEM gas dynamics (section 5.2): first-order in space
// (lumped mass matrix) and time, compressible Euler equations on linear
// triangles, with the three classes of global communication the paper calls
// out:
//
//   1. a global MAX reduction for the stable time step;
//   2. gathers from mesh points to element vertices (element phase);
//   3. aggregation from element vertices back to points -- the "scatter-add
//      problem" -- implemented point-centrically via the point->element
//      adjacency so it is deterministic and lock-free.
//
// The discrete scheme is a Galerkin element residual with Rusanov (local
// Lax-Friedrichs) stabilization:
//
//   r_k^T = -A_T (Fbar_x bx_k + Fbar_y by_k) + alpha_T (ubar - u_k) / 3
//
// which conserves mass/momentum/energy exactly on a periodic mesh (element
// residuals sum to zero) and preserves free streams (constant states have
// zero residual).  Update: u_k += dt / m_k * sum_{T incident to k} r_k^T.
//
// Two codings of the same numerics are provided, matching Figure 7's
// "small1" and "small2" curves:
//   * kStoreResiduals  -- element phase writes residuals to an element
//                         array; point phase gathers them (more traffic,
//                         less compute);
//   * kRecompute       -- the point phase recomputes each incident element's
//                         residual (redundant flux calculations, the
//                         transformation section 5.2.2 describes applying on
//                         the C90).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "spp/apps/fem/mesh.h"
#include "spp/ckpt/durable.h"
#include "spp/rt/garray.h"
#include "spp/rt/runtime.h"
#include "spp/rt/sync.h"

namespace spp::fem {

enum class Coding { kStoreResiduals, kRecompute };

struct FemConfig {
  std::uint32_t nx = 96, ny = 64;  ///< quad grid (mesh has 2*nx*ny elements).
  double gamma = 1.4;
  double cfl = 0.35;
  unsigned steps = 10;
  Coding coding = Coding::kStoreResiduals;
  bool morton = true;
  /// Checkpoint the point state every K steps (0 = off); with faults
  /// injected the run rolls back to the last epoch after a CPU fail-stop
  /// and replays, ending bit-exact with the fault-free run
  /// (docs/RECOVERY.md).
  unsigned ckpt_interval = 0;
};

struct FemDiagnostics {
  double total_mass = 0;
  double total_mom_x = 0;
  double total_mom_y = 0;
  double total_energy = 0;
  double min_density = 0;
  double min_pressure = 0;
};

struct FemResult {
  sim::Time sim_time = 0;
  double flops = 0;
  double mflops = 0;
  double point_updates = 0;
  /// The paper's headline metric: point updates per microsecond.
  double updates_per_usec = 0;
  FemDiagnostics initial;
  FemDiagnostics final;
};

/// The paper's measured conversion factor: "437 floating point operations
/// per point update (220 floating point operations/element update)".
inline constexpr double kFlopsPerPointUpdate = 437.0;
inline constexpr double kFlopsPerElementUpdate = 220.0;

class FemGas {
 public:
  FemGas(rt::Runtime& rt, const FemConfig& cfg, unsigned nthreads,
         rt::Placement placement);

  /// Uniform flow (free-stream preservation tests).
  void init_uniform(double rho, double ux, double uy, double pressure);
  /// Gaussian pressure blast in a quiescent medium.
  void init_blast(double p_peak, double radius);

  /// Runs cfg.steps time steps (docs/RECOVERY.md).  Without `spec` the
  /// steps run in one parallel region, with migrate-and-restore recovery
  /// when cfg.ckpt_interval is set.  An enabled `spec` makes the run durable:
  /// epoch-sized chunks with a capture, disk commit and machine power-cycle
  /// at every boundary; with spec.resume it continues from the newest valid
  /// disk epoch to the uninterrupted run's digest.  The durable path ignores
  /// cfg.ckpt_interval and never rolls back: after a CPU fail-stop, thread
  /// migration alone keeps the answer.
  FemResult run(const ckpt::DurableSpec& spec = {});

  FemDiagnostics diagnostics() const;

  const Mesh& mesh() const { return mesh_; }
  /// Conserved state of point p (uncharged), components rho, mx, my, E.
  std::array<double, 4> state(std::size_t p) const;

 private:
  double wave_speed_phase(unsigned tid, unsigned nthreads);  ///< local max.
  void element_phase(unsigned tid, unsigned nthreads);
  void point_phase(unsigned tid, unsigned nthreads, double dt);
  /// Residual of element e at its k-th vertex (pure function of the state).
  /// `from_old` reads the frozen copy of u (kRecompute coding), keeping the
  /// update Jacobi-style and conservative regardless of thread count.
  std::array<double, 4> element_residual(std::size_t e, int k, bool charged,
                                         bool from_old = false) const;
  void copy_state_phase(unsigned tid, unsigned nthreads);
  /// One time step of thread `tid`: all phases, ending at a barrier.
  void step(unsigned tid, unsigned nthreads);

  rt::Runtime& rt_;
  FemConfig cfg_;
  unsigned nthreads_;
  rt::Placement placement_;
  Mesh mesh_;

  // Point state (4 conserved components) and geometry, globally shared.
  std::unique_ptr<rt::GlobalArray<double>> u_;     ///< 4 * npoints.
  std::unique_ptr<rt::GlobalArray<double>> uold_;  ///< frozen copy (kRecompute).
  std::unique_ptr<rt::GlobalArray<double>> res_;   ///< 12 * nelements.
  std::unique_ptr<rt::GlobalArray<std::int32_t>> conn_;  ///< 3 * nelements.
  std::unique_ptr<rt::GlobalArray<std::int32_t>> p2e_;   ///< CSR adjacency.
  std::unique_ptr<rt::GlobalArray<double>> reduce_;      ///< per-thread maxima.
  std::unique_ptr<rt::Barrier> barrier_;
  double dt_ = 0;  ///< set by thread 0 each step.
};

}  // namespace spp::fem
