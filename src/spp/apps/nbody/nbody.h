// Gravitational N-body tree code (section 5.3).
//
// A Barnes-Hut style oct-tree code following the structure of the
// Olson-Dorband implementation the paper ported to the SPP-1000: particles
// are distributed evenly among threads, intermediate force variables are
// thread-private, and every thread traverses the tree -- which lives in
// global shared memory -- with fine-grained indirect reads in the innermost
// loop.  The force on each particle is the monopole approximation with a
// Plummer softening:
//
//   F_i = sum_j G m_i m_j r_ij / (r_ij^2 + eps^2)^(3/2)      (equation 6)
//
// pruned by the standard opening-angle criterion s/d < theta.
//
// The tree build runs on thread 0 (charged); the O(N log N) force phase is
// the parallel section whose scaling Figure 8 reports.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "spp/ckpt/durable.h"
#include "spp/rt/garray.h"
#include "spp/rt/runtime.h"
#include "spp/rt/sync.h"

namespace spp::nbody {

struct NbodyConfig {
  std::size_t n = 4096;        ///< particle count.
  double theta = 0.7;          ///< opening angle.
  double eps = 0.05;           ///< Plummer softening length.
  double dt = 0.01;
  unsigned steps = 2;
  unsigned leaf_capacity = 8;  ///< particles per leaf before splitting.
  std::uint64_t seed = 777;
  /// Checkpoint positions/velocities every K steps (0 = off, see
  /// docs/RECOVERY.md).  NbodyShared recovers from a CPU fail-stop by
  /// migrate-and-restore (bit-exact with the fault-free run); NbodyPvm by
  /// ULFM-style shrink + rollback (small tolerance: the final diagnostics
  /// reduction order changes with the group).
  unsigned ckpt_interval = 0;
};

/// Oct-tree node, stored in globally shared memory.
struct TreeNode {
  double cx = 0, cy = 0, cz = 0;  ///< cell center.
  double half = 0;                ///< half edge length.
  double mass = 0;
  double mx = 0, my = 0, mz = 0;  ///< center of mass.
  std::int32_t child[8] = {-1, -1, -1, -1, -1, -1, -1, -1};
  std::int32_t first = -1;  ///< first particle index (leaves).
  std::int32_t count = 0;   ///< particle count (leaves); -1 for internal.
};

struct NbodyDiagnostics {
  double kinetic = 0;
  double potential = 0;
  double px = 0, py = 0, pz = 0;  ///< total momentum.
  double mass = 0;
};

struct NbodyResult {
  sim::Time sim_time = 0;
  sim::Time force_time = 0;  ///< simulated time of the force phases only.
  double flops = 0;
  double mflops = 0;
  std::uint64_t interactions = 0;
  NbodyDiagnostics initial;
  NbodyDiagnostics final;
};

/// Shared-memory tree code on the simulated machine.
class NbodyShared {
 public:
  NbodyShared(rt::Runtime& rt, const NbodyConfig& cfg, unsigned nthreads,
              rt::Placement placement);

  /// Loads a Plummer sphere (virial-ish velocities).
  void load_plummer();
  /// Loads two Plummer spheres on a collision course (galaxy_collision
  /// example).
  void load_collision(double separation, double approach_speed);

  /// Runs cfg.steps time steps (docs/RECOVERY.md).  Without `spec` the
  /// steps run in one parallel region, with migrate-and-restore recovery
  /// when cfg.ckpt_interval is set.  An enabled `spec` makes the run durable:
  /// epoch-sized chunks with a capture, disk commit and machine power-cycle
  /// at every boundary; with spec.resume it continues from the newest valid
  /// disk epoch to the uninterrupted run's digest.  The durable path ignores
  /// cfg.ckpt_interval and never rolls back: after a CPU fail-stop, thread
  /// migration alone keeps the answer.
  NbodyResult run(const ckpt::DurableSpec& spec = {});

  /// Direct O(N^2) force on particle `i` (verification; uncharged).
  std::array<double, 3> direct_force(std::size_t i) const;
  /// Tree force on particle `i` (uncharged replay of the same traversal).
  std::array<double, 3> tree_force_host(std::size_t i) const;

  NbodyDiagnostics diagnostics() const;

  /// Position of particle `i` (uncharged host access).
  std::array<double, 3> position(std::size_t i) const {
    return {px_->raw(i), py_->raw(i), pz_->raw(i)};
  }

 private:
  void build_tree();  ///< thread 0, charged.
  void compute_moments(std::int32_t node);
  std::array<double, 3> tree_force(std::size_t i, bool charged);
  void force_phase(unsigned tid, unsigned nthreads);
  void push_phase(unsigned tid, unsigned nthreads);
  /// One time step of thread `tid`: tree build, forces, push.
  void step(unsigned tid, unsigned nthreads);

  rt::Runtime& rt_;
  NbodyConfig cfg_;
  unsigned nthreads_;
  rt::Placement placement_;

  std::unique_ptr<rt::GlobalArray<double>> px_, py_, pz_;
  std::unique_ptr<rt::GlobalArray<double>> vx_, vy_, vz_;
  std::unique_ptr<rt::GlobalArray<double>> fx_, fy_, fz_;
  std::unique_ptr<rt::GlobalArray<double>> mass_;
  std::unique_ptr<rt::GlobalArray<TreeNode>> nodes_;
  std::vector<std::int32_t> order_;  ///< particle order within leaves.
  std::int32_t node_count_ = 0;
  std::unique_ptr<rt::Barrier> barrier_;
  /// Host-side running totals of a run; a durable run checkpoints them.
  /// Replays after a rollback keep counting: they report work performed.
  struct Tally {
    std::uint64_t interactions = 0;  ///< force terms evaluated.
    sim::Time force_time = 0;        ///< simulated time of the force phases.
  };
  Tally tally_;
};

}  // namespace spp::nbody
