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
//
// The numerics are written once, for this coding and the PVM one
// (nbody_pvm.h): the Plummer load, the oct-tree build and the Barnes-Hut
// walk.  Each coding passes the tree what it charges, so the two differ
// only in how they charge, decompose and communicate.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
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
};

/// Oct-tree cell (NbodyShared keeps its cells in globally shared memory).
struct TreeNode {
  double cx = 0, cy = 0, cz = 0;  ///< cell center.
  double half = 0;                ///< half edge length.
  double mass = 0;
  double mx = 0, my = 0, mz = 0;  ///< center of mass.
  std::int32_t child[8] = {-1, -1, -1, -1, -1, -1, -1, -1};
  std::int32_t first = -1;  ///< first particle index (leaves).
  std::int32_t count = 0;   ///< particle count (leaves); -1 for internal.
};

/// Charged flops of one tree-walk step and of one body's push.
inline constexpr double kInteractFlops = 22;  // r^2, sqrt, 3 force components.
inline constexpr double kNodeVisitFlops = 8;  // distance + opening test.
inline constexpr double kPushFlops = 18;

/// Cells a tree over n bodies may use; more is an error.
inline std::size_t tree_capacity(std::size_t n) { return 2 * n + 4096; }

/// Fills cfg.n bodies in place with the deterministic Plummer sphere of
/// cfg.seed: positions, velocities with the total momentum zeroed exactly,
/// and masses 1/n.
void fill_plummer(const NbodyConfig& cfg, double* x, double* y, double* z,
                  double* vx, double* vy, double* vz, double* m);

/// The host arrays a tree is built over and walked through.
struct Bodies {
  const double* x;
  const double* y;
  const double* z;
  const double* m;
};

/// The tree's charge hooks, all empty: what a caller that charges nothing
/// passes.  A coding's charges define the same hooks; one that charges only
/// some derives from NoCharges and hides those.
struct NoCharges {
  // Build.
  void cell(std::int32_t) {}                    ///< a cell is written.
  void partition(std::int32_t, std::size_t) {}  ///< first body, count.
  void moment_flops(double) {}
  void moment(std::int32_t) {}  ///< a cell's monopole is written.
  // Walk.
  void visit(std::int32_t) {}  ///< a cell is read and tested.
  void open(std::int32_t) {}   ///< its child pointers are read.
  void body(std::size_t) {}    ///< a leaf body is read.
  void interaction() {}        ///< a force term is evaluated.
};

/// The oct-tree both codings build and walk: cells in pre-order, and the
/// body order whose ranges the leaves hold.  `Charges` is the coding's
/// NoCharges-shaped set of hooks.
struct Octree {
  std::vector<TreeNode> cells;
  std::vector<std::int32_t> order;

  /// Builds the tree over cfg.n bodies: the cells and the partition in
  /// pre-order, then the monopoles in a post-order pass.
  template <class Charges>
  void build(Bodies b, const NbodyConfig& cfg, Charges& charge);

  /// Barnes-Hut force on body `i`, skipping `i` itself.
  template <class Charges>
  std::array<double, 3> force(Bodies b, std::size_t i, const NbodyConfig& cfg,
                              Charges& charge) const;

 private:
  template <class Charges>
  std::int32_t make_cell(Bodies b, std::size_t first, std::size_t count,
                         double cx, double cy, double cz, double h,
                         int depth, const NbodyConfig& cfg, Charges& charge);
  template <class Charges>
  void moments(Bodies b, std::int32_t node, Charges& charge);
};

/// The O(N) conserved sums.  The potential energy is O(N^2) and has its own
/// call, NbodyShared::potential().
struct NbodyDiagnostics {
  double kinetic = 0;
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
  /// Allocates the bodies and loads a Plummer sphere (virial-ish
  /// velocities; fill_plummer).
  NbodyShared(rt::Runtime& rt, const NbodyConfig& cfg, unsigned nthreads,
              rt::Placement placement);

  /// Loads two Plummer spheres on a collision course instead
  /// (galaxy_collision example).
  void load_collision(double separation, double approach_speed);

  /// Runs cfg.steps time steps (docs/RECOVERY.md).  Without `spec` the
  /// steps run in one parallel region.  An enabled `spec` makes the run
  /// durable: epoch-sized chunks with a capture, disk commit and machine
  /// power-cycle at every boundary; with spec.resume it continues from the
  /// newest valid disk epoch to the uninterrupted run's digest.  Either way
  /// a thread whose CPU fail-stops migrates and finishes the run, which
  /// ends at the fault-free answer.
  NbodyResult run(const ckpt::DurableSpec& spec = {});

  /// Direct O(N^2) force on particle `i` (verification; uncharged).
  std::array<double, 3> direct_force(std::size_t i) const;
  /// Tree force on particle `i` (uncharged replay of the same traversal).
  std::array<double, 3> tree_force_host(std::size_t i) const;

  NbodyDiagnostics diagnostics() const;
  /// Softened gravitational potential energy by direct sum, O(N^2)
  /// (verification; uncharged).  run() never calls it.
  double potential() const;

  /// Position of particle `i` (uncharged host access).
  std::array<double, 3> position(std::size_t i) const {
    return {px_->raw(i), py_->raw(i), pz_->raw(i)};
  }

 private:
  struct Charges;  ///< this coding's tree charges (nbody.cc).
  /// Loads a Plummer sphere (fill_plummer).
  void load_plummer();
  Bodies bodies() const {
    return {&px_->raw(0), &py_->raw(0), &pz_->raw(0), &mass_->raw(0)};
  }
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
  arch::VAddr tree_va_ = 0;  ///< the tree's simulated cells ("nb.tree").
  Octree tree_;              ///< its host copy, built by thread 0.
  std::unique_ptr<rt::Barrier> barrier_;
  /// Host-side running totals of a run; a durable run checkpoints them.
  struct Tally {
    std::uint64_t interactions = 0;  ///< force terms evaluated.
    sim::Time force_time = 0;        ///< simulated time of the force phases.
  };
  Tally tally_;
};

// ---------------------------------------------------------------------------
// The oct-tree, written once for both codings
// ---------------------------------------------------------------------------

template <class Charges>
void Octree::build(Bodies b, const NbodyConfig& cfg, Charges& charge) {
  const std::size_t n = cfg.n;
  // Bounding cube.
  double lo = b.x[0], hi = lo;
  for (std::size_t i = 0; i < n; ++i) {
    lo = std::min({lo, b.x[i], b.y[i], b.z[i]});
    hi = std::max({hi, b.x[i], b.y[i], b.z[i]});
  }
  const double half = 0.5 * (hi - lo) + 1e-9;
  const double c = 0.5 * (hi + lo);

  order.resize(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<std::int32_t>(i);
  cells.clear();
  make_cell(b, 0, n, c, c, c, half, 0, cfg, charge);
  moments(b, 0, charge);
}

/// Makes the cell of order[first, first+count) and, unless it is a leaf,
/// partitions that range over its octants and recurses into them.
template <class Charges>
std::int32_t Octree::make_cell(Bodies b, std::size_t first,
                               std::size_t count, double cx, double cy,
                               double cz, double h, int depth,
                               const NbodyConfig& cfg, Charges& charge) {
  if (cells.size() >= tree_capacity(cfg.n)) {
    throw std::runtime_error("nbody: tree node pool exhausted");
  }
  const auto me = static_cast<std::int32_t>(cells.size());
  TreeNode& nd = cells.emplace_back();
  nd.cx = cx;
  nd.cy = cy;
  nd.cz = cz;
  nd.half = h;
  charge.cell(me);
  if (count <= cfg.leaf_capacity || depth > 48) {
    nd.first = static_cast<std::int32_t>(first);
    nd.count = static_cast<std::int32_t>(count);
    return me;
  }
  nd.count = -1;

  // Count each octant's bodies, then scatter the range in octant order,
  // keeping the bodies' relative order within each octant.
  auto octant_of = [&](std::int32_t p) {
    return (b.x[p] >= cx ? 1 : 0) | (b.y[p] >= cy ? 2 : 0) |
           (b.z[p] >= cz ? 4 : 0);
  };
  std::array<std::size_t, 9> start{};
  {
    std::array<std::size_t, 8> cnt{};
    for (std::size_t k = first; k < first + count; ++k) {
      ++cnt[octant_of(order[k])];
    }
    start[0] = first;
    for (int o = 0; o < 8; ++o) start[o + 1] = start[o] + cnt[o];
    std::array<std::size_t, 8> cursor;
    for (int o = 0; o < 8; ++o) cursor[o] = start[o];
    const std::vector<std::int32_t> tmp(order.begin() + first,
                                        order.begin() + first + count);
    for (const std::int32_t p : tmp) order[cursor[octant_of(p)]++] = p;
  }
  charge.partition(order[first], count);

  const double q = h / 2;
  for (int o = 0; o < 8; ++o) {
    const std::size_t c_count = start[o + 1] - start[o];
    if (c_count == 0) continue;
    const std::int32_t child =
        make_cell(b, start[o], c_count, cx + ((o & 1) ? q : -q),
                  cy + ((o & 2) ? q : -q), cz + ((o & 4) ? q : -q), q,
                  depth + 1, cfg, charge);
    cells[me].child[o] = child;
  }
  return me;
}

/// The monopole (mass and center of mass) of `node`'s subtree.
template <class Charges>
void Octree::moments(Bodies b, std::int32_t node, Charges& charge) {
  TreeNode& nd = cells[node];
  nd.mass = 0;
  nd.mx = nd.my = nd.mz = 0;
  if (nd.count >= 0) {
    for (std::int32_t k = nd.first; k < nd.first + nd.count; ++k) {
      const std::int32_t p = order[k];
      const double m = b.m[p];
      nd.mass += m;
      nd.mx += m * b.x[p];
      nd.my += m * b.y[p];
      nd.mz += m * b.z[p];
    }
    charge.moment_flops(8.0 * nd.count);
  } else {
    for (int o = 0; o < 8; ++o) {
      if (nd.child[o] < 0) continue;
      moments(b, nd.child[o], charge);
      const TreeNode& c = cells[nd.child[o]];
      nd.mass += c.mass;
      nd.mx += c.mass * c.mx;
      nd.my += c.mass * c.my;
      nd.mz += c.mass * c.mz;
      charge.moment_flops(8.0);
    }
  }
  if (nd.mass > 0) {
    nd.mx /= nd.mass;
    nd.my /= nd.mass;
    nd.mz /= nd.mass;
  }
  charge.moment(node);
}

template <class Charges>
std::array<double, 3> Octree::force(Bodies b, std::size_t i,
                                    const NbodyConfig& cfg,
                                    Charges& charge) const {
  const TreeNode* const cell = cells.data();
  const std::int32_t* const ord = order.data();
  const double xi = b.x[i], yi = b.y[i], zi = b.z[i];
  const double eps2 = cfg.eps * cfg.eps;
  const double theta2 = cfg.theta * cfg.theta;
  double ax = 0, ay = 0, az = 0;

  // Thread-private traversal stack (the paper's "intermediate variables in
  // the force calculation thread-private").
  std::int32_t stack[512];
  int top = 0;
  stack[top++] = 0;
  while (top > 0) {
    const std::int32_t idx = stack[--top];
    const TreeNode& nd = cell[idx];
    charge.visit(idx);
    const double dx = nd.mx - xi, dy = nd.my - yi, dz = nd.mz - zi;
    const double d2 = dx * dx + dy * dy + dz * dz;
    const double size = 2 * nd.half;
    if (nd.count < 0 && size * size > theta2 * d2) {
      // Open the cell.
      charge.open(idx);
      for (int o = 0; o < 8; ++o) {
        if (nd.child[o] >= 0) stack[top++] = nd.child[o];
      }
      continue;
    }
    if (nd.count < 0) {
      // Accept the monopole.
      const double r2 = d2 + eps2;
      const double inv = 1.0 / (r2 * std::sqrt(r2));
      ax += nd.mass * dx * inv;
      ay += nd.mass * dy * inv;
      az += nd.mass * dz * inv;
      charge.interaction();
      continue;
    }
    // Leaf: direct interactions.
    for (std::int32_t k = nd.first; k < nd.first + nd.count; ++k) {
      const auto p = static_cast<std::size_t>(ord[k]);
      if (p == i) continue;
      charge.body(p);
      const double ddx = b.x[p] - xi, ddy = b.y[p] - yi, ddz = b.z[p] - zi;
      const double r2 = ddx * ddx + ddy * ddy + ddz * ddz + eps2;
      const double inv = 1.0 / (r2 * std::sqrt(r2));
      ax += b.m[p] * ddx * inv;
      ay += b.m[p] * ddy * inv;
      az += b.m[p] * ddz * inv;
      charge.interaction();
    }
  }
  return {ax, ay, az};
}

}  // namespace spp::nbody
