// Tiled 2D PPM hydrodynamics (section 5.4): the simulator's PROMETHEUS.
//
// Solves the 2D compressible Euler equations (7)-(9) on a logically
// rectangular grid with:
//   * PPM parabolic reconstruction with Colella-Woodward monotonization,
//   * the two-shock approximate Riemann solver (riemann.h),
//   * directional (Strang-alternating) splitting, and
//   * domain decomposition into rectangular tiles, each surrounded by a
//     4-deep frame of ghost points exchanged ONCE per time step -- possible
//     because the scheme is compact enough that the x-sweep can also update
//     the frame rows the y-sweep will consume (the paper's argument for the
//     low communication-to-computation ratio).
//
// Simplification vs. full PPM, documented in DESIGN.md: interface states are
// the monotonized parabola edge values without characteristic time-centering
// (formally first-order in time, same spatial stencil, same communication
// pattern and flop count class -- "a few thousand floating point operations
// ... to update each zone").
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "spp/apps/ppm/riemann.h"
#include "spp/ckpt/durable.h"
#include "spp/rt/garray.h"
#include "spp/rt/runtime.h"
#include "spp/rt/sync.h"

namespace spp::ppm {

enum class Boundary { kPeriodic, kOutflow };

struct PpmConfig {
  std::size_t nx = 120, ny = 480;   ///< Table 2's grid.
  unsigned tiles_x = 4, tiles_y = 16;
  double gamma = 1.4;
  double cfl = 0.4;
  unsigned steps = 4;
  Boundary bc = Boundary::kPeriodic;
  /// Number of tracked fluids (PROMETHEUS "capability of following an
  /// arbitrary number of different fluids"); 0 disables multifluid.
  /// Species are stored as partial densities, advected with the contact.
  unsigned nspecies = 0;

  std::size_t zones() const { return nx * ny; }
  unsigned tiles() const { return tiles_x * tiles_y; }
  unsigned fields() const { return 4 + nspecies; }
};

struct PpmDiagnostics {
  double mass = 0, mom_x = 0, mom_y = 0, energy = 0;
  double min_rho = 0, min_p = 0;
};

struct PpmResult {
  sim::Time sim_time = 0;
  double flops = 0;
  double mflops = 0;
  double zone_updates = 0;
  PpmDiagnostics initial;
  PpmDiagnostics final;
};

/// Ghost frame depth ("the frame is four grid points wide").
inline constexpr std::size_t kGhost = 4;
/// Charged flop count per zone per directional sweep ("a few thousand
/// floating point operations are needed to update each zone" per step).
inline constexpr double kFlopsPerZoneSweep = 1400.0;

class PpmTiled {
 public:
  PpmTiled(rt::Runtime& rt, const PpmConfig& cfg, unsigned nprocs,
           rt::Placement placement);

  /// Uniform ambient state.
  void init_uniform(double rho, double ux, double uy, double p);
  /// Sod shock tube along x (discontinuity at nx/2), uniform in y.
  void init_sod_x();
  /// Pressure blast at the domain center.
  void init_blast(double p_peak, double radius);
  /// Multifluid setup: fluid 0 fills x < nx/2, fluid 1 fills the rest, on a
  /// uniform flow (requires nspecies >= 2).  Exercises contact advection.
  void init_two_fluid(double rho, double ux, double p);
  /// Tags the current density field as two fluids split at x = nx/2 without
  /// touching the hydrodynamic state (requires nspecies >= 2).
  void tag_two_fluids();

  /// Runs cfg.steps time steps (docs/RECOVERY.md).  Without `spec` the
  /// steps run in one parallel region.  An enabled `spec` makes the run
  /// durable: epoch-sized chunks with a capture, disk commit and machine
  /// power-cycle at every boundary; with spec.resume it continues from the
  /// newest valid disk epoch to the uninterrupted run's digest.  Either way
  /// a thread whose CPU fail-stops migrates and finishes the run, which
  /// ends at the fault-free answer.
  PpmResult run(const ckpt::DurableSpec& spec = {});

  PpmDiagnostics diagnostics() const;
  /// Conserved state (rho, mx, my, E) of global zone (i, j); uncharged.
  std::array<double, 4> zone(std::size_t i, std::size_t j) const;
  /// Partial density of species `s` at global zone (i, j); uncharged.
  double species(std::size_t i, std::size_t j, unsigned s) const;
  /// Total mass of species `s` over the interior.
  double species_mass(unsigned s) const;

  const PpmConfig& config() const { return cfg_; }

 private:
  struct Tile {
    std::size_t gx0, gy0;  ///< global origin of the interior.
    std::size_t w, h;      ///< interior size.
    unsigned owner;        ///< owning processor index.
    std::unique_ptr<rt::GlobalArray<double>> u;  ///< fields() planes w/ frames.

    std::size_t stride() const { return w + 2 * kGhost; }
    std::size_t rows() const { return h + 2 * kGhost; }
    std::size_t at(int field, std::size_t i, std::size_t j) const {
      return (static_cast<std::size_t>(field) * rows() + j) * stride() + i;
    }
  };

  Tile& tile_at(unsigned tx, unsigned ty) { return tiles_[ty * cfg_.tiles_x + tx]; }
  const Tile& tile_at(unsigned tx, unsigned ty) const {
    return tiles_[ty * cfg_.tiles_x + tx];
  }
  /// Tile owning global zone (i, j) and the local ghost-frame coordinates.
  const Tile& locate(std::size_t i, std::size_t j, std::size_t& li,
                     std::size_t& lj) const;

  double wave_speed_tile(const Tile& t, bool charged) const;
  void exchange_ghosts(const Tile& t);
  void sweep_x(Tile& t, double dt);
  void sweep_y(Tile& t, double dt);
  /// One time step of processor `proc`: dt reduction, ghost exchange, and
  /// both sweeps of every tile it owns.
  void step(unsigned proc, unsigned nprocs);

  rt::Runtime& rt_;
  PpmConfig cfg_;
  unsigned nprocs_;
  rt::Placement placement_;
  std::vector<Tile> tiles_;
  std::unique_ptr<rt::GlobalArray<double>> reduce_;
  std::unique_ptr<rt::Barrier> barrier_;
  double dt_ = 0;
};

}  // namespace spp::ppm
