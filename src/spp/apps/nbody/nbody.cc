#include "spp/apps/nbody/nbody.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <numbers>
#include <stdexcept>

#include "spp/ckpt/loop.h"
#include "spp/sim/rng.h"

namespace spp::nbody {

namespace {

constexpr double kInteractFlops = 22;  // r^2, sqrt, 3 force components.
constexpr double kNodeVisitFlops = 8;  // distance + opening test.
constexpr double kPushFlops = 18;

std::pair<std::size_t, std::size_t> split(std::size_t n, unsigned parts,
                                          unsigned p) {
  const std::size_t base = n / parts, rem = n % parts;
  const std::size_t begin = p * base + std::min<std::size_t>(p, rem);
  return {begin, begin + base + (p < rem ? 1 : 0)};
}

}  // namespace

NbodyShared::NbodyShared(rt::Runtime& rt, const NbodyConfig& cfg,
                         unsigned nthreads, rt::Placement placement)
    : rt_(rt), cfg_(cfg), nthreads_(nthreads), placement_(placement) {
  using arch::MemClass;
  const std::size_t n = cfg.n;
  auto farr = [&](const char* label) {
    return std::make_unique<rt::GlobalArray<double>>(
        rt_, n, MemClass::kFarShared, label);
  };
  px_ = farr("nb.px");
  py_ = farr("nb.py");
  pz_ = farr("nb.pz");
  vx_ = farr("nb.vx");
  vy_ = farr("nb.vy");
  vz_ = farr("nb.vz");
  fx_ = farr("nb.fx");
  fy_ = farr("nb.fy");
  fz_ = farr("nb.fz");
  mass_ = farr("nb.mass");
  const std::size_t max_nodes = 2 * n + 4096;
  nodes_ = std::make_unique<rt::GlobalArray<TreeNode>>(
      rt_, max_nodes, MemClass::kFarShared, "nb.tree");
  order_.resize(n);
  barrier_ = std::make_unique<rt::Barrier>(rt_, nthreads_);
  load_plummer();
}

void NbodyShared::load_plummer() {
  sim::Rng rng(cfg_.seed);
  const std::size_t n = cfg_.n;
  const double m = 1.0 / static_cast<double>(n);
  double mvx = 0, mvy = 0, mvz = 0;
  for (std::size_t i = 0; i < n; ++i) {
    // Plummer radius by inverse transform sampling, capped at 8 scale radii.
    double r;
    do {
      const double u = std::max(rng.next_double(), 1e-10);
      r = 1.0 / std::sqrt(std::pow(u, -2.0 / 3.0) - 1.0);
    } while (r > 8.0);
    const double ct = rng.uniform(-1, 1);
    const double st = std::sqrt(std::max(0.0, 1 - ct * ct));
    const double phi = rng.uniform(0, 2 * std::numbers::pi);
    px_->raw(i) = r * st * std::cos(phi);
    py_->raw(i) = r * st * std::sin(phi);
    pz_->raw(i) = r * ct;
    // Isotropic velocities with the local Plummer dispersion (approximate).
    const double sigma = std::sqrt(1.0 / (6.0 * std::sqrt(1.0 + r * r)));
    vx_->raw(i) = rng.gaussian(0, sigma);
    vy_->raw(i) = rng.gaussian(0, sigma);
    vz_->raw(i) = rng.gaussian(0, sigma);
    mvx += vx_->raw(i);
    mvy += vy_->raw(i);
    mvz += vz_->raw(i);
    mass_->raw(i) = m;
  }
  // Zero the total momentum exactly.
  for (std::size_t i = 0; i < n; ++i) {
    vx_->raw(i) -= mvx / static_cast<double>(n);
    vy_->raw(i) -= mvy / static_cast<double>(n);
    vz_->raw(i) -= mvz / static_cast<double>(n);
  }
}

void NbodyShared::load_collision(double separation, double approach_speed) {
  load_plummer();
  const std::size_t n = cfg_.n;
  for (std::size_t i = 0; i < n; ++i) {
    const bool left = i < n / 2;
    px_->raw(i) += left ? -separation / 2 : separation / 2;
    vx_->raw(i) += left ? approach_speed / 2 : -approach_speed / 2;
  }
}

// ---------------------------------------------------------------------------
// Tree construction (thread 0, charged)
// ---------------------------------------------------------------------------

void NbodyShared::build_tree() {
  const std::size_t n = cfg_.n;
  // Bounding cube.
  double lo = px_->raw(0), hi = lo;
  for (std::size_t i = 0; i < n; ++i) {
    lo = std::min({lo, px_->raw(i), py_->raw(i), pz_->raw(i)});
    hi = std::max({hi, px_->raw(i), py_->raw(i), pz_->raw(i)});
  }
  const double half = 0.5 * (hi - lo) + 1e-9;
  const double cx = 0.5 * (hi + lo);

  for (std::size_t i = 0; i < n; ++i) order_[i] = static_cast<std::int32_t>(i);
  node_count_ = 0;

  // Recursive in-place partition of order_[first, first+count).
  std::function<std::int32_t(std::size_t, std::size_t, double, double, double,
                             double, int)>
      build = [&](std::size_t first, std::size_t count, double ccx, double ccy,
                  double ccz, double h, int depth) -> std::int32_t {
    if (node_count_ >= static_cast<std::int32_t>(nodes_->size())) {
      throw std::runtime_error("nbody: tree node pool exhausted");
    }
    const std::int32_t me = node_count_++;
    TreeNode& nd = nodes_->raw(me);
    nd = TreeNode{};
    nd.cx = ccx;
    nd.cy = ccy;
    nd.cz = ccz;
    nd.half = h;
    // Charge the node write (thread 0 builds the shared tree).
    rt_.write(nodes_->vaddr(me), sizeof(TreeNode));

    if (count <= cfg_.leaf_capacity || depth > 48) {
      nd.first = static_cast<std::int32_t>(first);
      nd.count = static_cast<std::int32_t>(count);
      return me;
    }
    nd.count = -1;

    // Partition the 8 octants with three stable partitions (x, then y, z).
    auto octant_of = [&](std::int32_t p) {
      return (px_->raw(p) >= ccx ? 1 : 0) | (py_->raw(p) >= ccy ? 2 : 0) |
             (pz_->raw(p) >= ccz ? 4 : 0);
    };
    std::array<std::size_t, 9> start{};
    {
      std::array<std::size_t, 8> cnt{};
      for (std::size_t k = first; k < first + count; ++k) {
        ++cnt[octant_of(order_[k])];
      }
      start[0] = first;
      for (int o = 0; o < 8; ++o) start[o + 1] = start[o] + cnt[o];
      std::array<std::size_t, 8> cursor;
      for (int o = 0; o < 8; ++o) cursor[o] = start[o];
      std::vector<std::int32_t> tmp(order_.begin() + first,
                                    order_.begin() + first + count);
      for (const std::int32_t p : tmp) order_[cursor[octant_of(p)]++] = p;
    }
    // Charge the particle reorder pass: one read per particle.
    rt_.work_ops(static_cast<double>(count) * 4);
    rt_.read(px_->vaddr(order_[first]),
             std::min<std::uint64_t>(count * sizeof(double), 4096));

    const double q = h / 2;
    for (int o = 0; o < 8; ++o) {
      const std::size_t c_first = start[o];
      const std::size_t c_count = start[o + 1] - start[o];
      if (c_count == 0) continue;
      const double ox = ccx + ((o & 1) ? q : -q);
      const double oy = ccy + ((o & 2) ? q : -q);
      const double oz = ccz + ((o & 4) ? q : -q);
      nodes_->raw(me).child[o] =
          build(c_first, c_count, ox, oy, oz, q, depth + 1);
    }
    return me;
  };
  build(0, n, cx, cx, cx, half, 0);
  compute_moments(0);
}

void NbodyShared::compute_moments(std::int32_t node) {
  TreeNode& nd = nodes_->raw(node);
  nd.mass = 0;
  nd.mx = nd.my = nd.mz = 0;
  if (nd.count >= 0) {
    for (std::int32_t k = nd.first; k < nd.first + nd.count; ++k) {
      const std::int32_t p = order_[k];
      const double m = mass_->raw(p);
      nd.mass += m;
      nd.mx += m * px_->raw(p);
      nd.my += m * py_->raw(p);
      nd.mz += m * pz_->raw(p);
    }
    rt_.work_flops(8.0 * nd.count);
  } else {
    for (int o = 0; o < 8; ++o) {
      if (nd.child[o] < 0) continue;
      compute_moments(nd.child[o]);
      const TreeNode& c = nodes_->raw(nd.child[o]);
      nd.mass += c.mass;
      nd.mx += c.mass * c.mx;
      nd.my += c.mass * c.my;
      nd.mz += c.mass * c.mz;
      rt_.work_flops(8.0);
    }
  }
  if (nd.mass > 0) {
    nd.mx /= nd.mass;
    nd.my /= nd.mass;
    nd.mz /= nd.mass;
  }
  rt_.write(nodes_->vaddr(node), 48);
}

// ---------------------------------------------------------------------------
// Force evaluation
// ---------------------------------------------------------------------------

std::array<double, 3> NbodyShared::tree_force(std::size_t i, bool charged) {
  const double xi = px_->raw(i), yi = py_->raw(i), zi = pz_->raw(i);
  const double eps2 = cfg_.eps * cfg_.eps;
  const double theta2 = cfg_.theta * cfg_.theta;
  double ax = 0, ay = 0, az = 0;

  // Thread-private traversal stack (the paper's "intermediate variables in
  // the force calculation thread-private").
  std::int32_t stack[512];
  int top = 0;
  stack[top++] = 0;
  while (top > 0) {
    const std::int32_t idx = stack[--top];
    const TreeNode& nd = nodes_->raw(idx);
    if (charged) {
      // Indirect read of the node's summary data (com + mass + geometry).
      rt_.read(nodes_->vaddr(idx), 48);
      rt_.work_flops(kNodeVisitFlops);
    }
    const double dx = nd.mx - xi, dy = nd.my - yi, dz = nd.mz - zi;
    const double d2 = dx * dx + dy * dy + dz * dz;
    const double size = 2 * nd.half;
    if (nd.count < 0 && size * size > theta2 * d2) {
      // Open the cell.
      if (charged) rt_.read(nodes_->vaddr(idx) + 64, 32);  // child pointers
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
      if (charged) {
        rt_.work_flops(kInteractFlops);
        ++tally_.interactions;
      }
      continue;
    }
    // Leaf: direct interactions.
    for (std::int32_t k = nd.first; k < nd.first + nd.count; ++k) {
      const auto p = static_cast<std::size_t>(order_[k]);
      if (p == i) continue;
      double pxp, pyp, pzp, mp;
      if (charged) {
        pxp = px_->read(p);
        pyp = py_->read(p);
        pzp = pz_->read(p);
        mp = mass_->read(p);
      } else {
        pxp = px_->raw(p);
        pyp = py_->raw(p);
        pzp = pz_->raw(p);
        mp = mass_->raw(p);
      }
      const double ddx = pxp - xi, ddy = pyp - yi, ddz = pzp - zi;
      const double r2 = ddx * ddx + ddy * ddy + ddz * ddz + eps2;
      const double inv = 1.0 / (r2 * std::sqrt(r2));
      ax += mp * ddx * inv;
      ay += mp * ddy * inv;
      az += mp * ddz * inv;
      if (charged) {
        rt_.work_flops(kInteractFlops);
        ++tally_.interactions;
      }
    }
  }
  return {ax, ay, az};
}

std::array<double, 3> NbodyShared::tree_force_host(std::size_t i) const {
  return const_cast<NbodyShared*>(this)->tree_force(i, /*charged=*/false);
}

std::array<double, 3> NbodyShared::direct_force(std::size_t i) const {
  const double xi = px_->raw(i), yi = py_->raw(i), zi = pz_->raw(i);
  const double eps2 = cfg_.eps * cfg_.eps;
  double ax = 0, ay = 0, az = 0;
  for (std::size_t j = 0; j < cfg_.n; ++j) {
    if (j == i) continue;
    const double dx = px_->raw(j) - xi, dy = py_->raw(j) - yi,
                 dz = pz_->raw(j) - zi;
    const double r2 = dx * dx + dy * dy + dz * dz + eps2;
    const double inv = 1.0 / (r2 * std::sqrt(r2));
    ax += mass_->raw(j) * dx * inv;
    ay += mass_->raw(j) * dy * inv;
    az += mass_->raw(j) * dz * inv;
  }
  return {ax, ay, az};
}

void NbodyShared::force_phase(unsigned tid, unsigned nthreads) {
  const auto [pb, pe] = split(cfg_.n, nthreads, tid);
  for (std::size_t i = pb; i < pe; ++i) {
    // Read own position (charged), compute, store force (charged).
    rt_.read(px_->vaddr(i));
    rt_.read(py_->vaddr(i));
    rt_.read(pz_->vaddr(i));
    const auto f = tree_force(i, /*charged=*/true);
    fx_->write(i, f[0]);
    fy_->write(i, f[1]);
    fz_->write(i, f[2]);
  }
}

void NbodyShared::push_phase(unsigned tid, unsigned nthreads) {
  const auto [pb, pe] = split(cfg_.n, nthreads, tid);
  for (std::size_t i = pb; i < pe; ++i) {
    vx_->write(i, vx_->read(i) + cfg_.dt * fx_->read(i));
    vy_->write(i, vy_->read(i) + cfg_.dt * fy_->read(i));
    vz_->write(i, vz_->read(i) + cfg_.dt * fz_->read(i));
    px_->write(i, px_->read(i) + cfg_.dt * vx_->raw(i));
    py_->write(i, py_->read(i) + cfg_.dt * vy_->raw(i));
    pz_->write(i, pz_->read(i) + cfg_.dt * vz_->raw(i));
    rt_.work_flops(kPushFlops);
  }
}

NbodyDiagnostics NbodyShared::diagnostics() const {
  NbodyDiagnostics d;
  const std::size_t n = cfg_.n;
  for (std::size_t i = 0; i < n; ++i) {
    const double m = mass_->raw(i);
    d.kinetic += 0.5 * m *
                 (vx_->raw(i) * vx_->raw(i) + vy_->raw(i) * vy_->raw(i) +
                  vz_->raw(i) * vz_->raw(i));
    d.px += m * vx_->raw(i);
    d.py += m * vy_->raw(i);
    d.pz += m * vz_->raw(i);
    d.mass += m;
  }
  // Potential by direct sum only for small problems (O(N^2)).
  if (n <= 16384) {
    const double eps2 = cfg_.eps * cfg_.eps;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        const double dx = px_->raw(j) - px_->raw(i);
        const double dy = py_->raw(j) - py_->raw(i);
        const double dz = pz_->raw(j) - pz_->raw(i);
        d.potential -= mass_->raw(i) * mass_->raw(j) /
                       std::sqrt(dx * dx + dy * dy + dz * dz + eps2);
      }
    }
  }
  return d;
}

void NbodyShared::step(unsigned tid, unsigned nthreads) {
  if (tid == 0) build_tree();
  barrier_->wait();
  const sim::Time f0 = rt_.now();
  force_phase(tid, nthreads);
  barrier_->wait();
  if (tid == 0) tally_.force_time += rt_.now() - f0;
  push_phase(tid, nthreads);
  barrier_->wait();
}

NbodyResult NbodyShared::run(const ckpt::DurableSpec& spec) {
  NbodyResult res;
  rt_.machine().reset_stats();
  tally_ = {};
  res.initial = diagnostics();
  const sim::Time t0 = rt_.now();

  // Positions and velocities carry all step-to-step state (the tree and
  // forces are rebuilt every step), so an epoch of them is enough to resume
  // from disk, bit-exactly.  A resumed run must also report the same
  // totals, so the durable epochs carry the tally too.
  ckpt::Store store(rt_);
  store.registrar().add("nbody.px", *px_);
  store.registrar().add("nbody.py", *py_);
  store.registrar().add("nbody.pz", *pz_);
  store.registrar().add("nbody.vx", *vx_);
  store.registrar().add("nbody.vy", *vy_);
  store.registrar().add("nbody.vz", *vz_);
  if (spec.enabled()) store.registrar().add_pod("nbody.tally", tally_);
  ckpt::run_steps(rt_, nthreads_, placement_, store, spec, cfg_.steps,
                  [&](unsigned tid, unsigned n, std::uint64_t) {
                    step(tid, n);
                  });

  res.sim_time = rt_.now() - t0;
  res.force_time = tally_.force_time;
  const auto total = rt_.machine().perf().total();
  res.flops = total.flops;
  res.mflops = res.flops / (sim::to_seconds(res.sim_time) * 1e6);
  res.interactions = tally_.interactions;
  res.final = diagnostics();
  return res;
}

}  // namespace spp::nbody
