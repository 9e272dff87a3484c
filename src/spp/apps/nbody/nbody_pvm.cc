#include "spp/apps/nbody/nbody_pvm.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <numbers>
#include <vector>

#include "spp/ckpt/loop.h"
#include "spp/rt/garray.h"
#include "spp/sim/rng.h"

namespace spp::nbody {

namespace {

constexpr int kTagGather = 100;
constexpr int kTagTree = 200;
constexpr int kTagDiag = 300;
constexpr int kTagCkpt = 400;  ///< slice -> rank 0 at a chunk end.

constexpr double kInteractFlops = 22;
constexpr double kNodeVisitFlops = 8;
constexpr double kPushFlops = 18;

std::pair<std::size_t, std::size_t> split(std::size_t n, unsigned parts,
                                          unsigned p) {
  const std::size_t base = n / parts, rem = n % parts;
  const std::size_t begin = p * base + std::min<std::size_t>(p, rem);
  return {begin, begin + base + (p < rem ? 1 : 0)};
}

/// Host-side oct-tree over replicated coordinates (task-private data).
struct HostTree {
  std::vector<TreeNode> nodes;
  std::vector<std::int32_t> order;

  void build(const std::vector<double>& x, const std::vector<double>& y,
             const std::vector<double>& z, const std::vector<double>& m,
             unsigned leaf_capacity) {
    const std::size_t n = x.size();
    nodes.clear();
    nodes.reserve(2 * n + 64);
    order.resize(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<std::int32_t>(i);

    double lo = x[0], hi = lo;
    for (std::size_t i = 0; i < n; ++i) {
      lo = std::min({lo, x[i], y[i], z[i]});
      hi = std::max({hi, x[i], y[i], z[i]});
    }
    const double half = 0.5 * (hi - lo) + 1e-9;
    const double c = 0.5 * (hi + lo);

    std::function<std::int32_t(std::size_t, std::size_t, double, double,
                               double, double, int)>
        rec = [&](std::size_t first, std::size_t count, double cx, double cy,
                  double cz, double h, int depth) -> std::int32_t {
      const auto me = static_cast<std::int32_t>(nodes.size());
      nodes.emplace_back();
      nodes[me].cx = cx;
      nodes[me].cy = cy;
      nodes[me].cz = cz;
      nodes[me].half = h;
      if (count <= leaf_capacity || depth > 48) {
        nodes[me].first = static_cast<std::int32_t>(first);
        nodes[me].count = static_cast<std::int32_t>(count);
      } else {
        nodes[me].count = -1;
        auto oct = [&](std::int32_t p) {
          return (x[p] >= cx ? 1 : 0) | (y[p] >= cy ? 2 : 0) |
                 (z[p] >= cz ? 4 : 0);
        };
        std::array<std::size_t, 9> start{};
        {
          std::array<std::size_t, 8> cnt{};
          for (std::size_t k = first; k < first + count; ++k) {
            ++cnt[oct(order[k])];
          }
          start[0] = first;
          for (int o = 0; o < 8; ++o) start[o + 1] = start[o] + cnt[o];
          std::array<std::size_t, 8> cur;
          for (int o = 0; o < 8; ++o) cur[o] = start[o];
          std::vector<std::int32_t> tmp(order.begin() + first,
                                        order.begin() + first + count);
          for (const std::int32_t p : tmp) order[cur[oct(p)]++] = p;
        }
        const double q = h / 2;
        for (int o = 0; o < 8; ++o) {
          const std::size_t cc = start[o + 1] - start[o];
          if (cc == 0) continue;
          const std::int32_t child =
              rec(start[o], cc, cx + ((o & 1) ? q : -q),
                  cy + ((o & 2) ? q : -q), cz + ((o & 4) ? q : -q), q,
                  depth + 1);
          nodes[me].child[o] = child;
        }
      }
      // Moments.
      TreeNode& nd = nodes[me];
      nd.mass = 0;
      nd.mx = nd.my = nd.mz = 0;
      if (nd.count >= 0) {
        for (std::int32_t k = nd.first; k < nd.first + nd.count; ++k) {
          const std::int32_t p = order[k];
          nd.mass += m[p];
          nd.mx += m[p] * x[p];
          nd.my += m[p] * y[p];
          nd.mz += m[p] * z[p];
        }
      } else {
        for (int o = 0; o < 8; ++o) {
          if (nd.child[o] < 0) continue;
          const TreeNode& ch = nodes[nd.child[o]];
          nd.mass += ch.mass;
          nd.mx += ch.mass * ch.mx;
          nd.my += ch.mass * ch.my;
          nd.mz += ch.mass * ch.mz;
        }
      }
      if (nd.mass > 0) {
        nd.mx /= nd.mass;
        nd.my /= nd.mass;
        nd.mz /= nd.mass;
      }
      return me;
    };
    rec(0, n, c, c, c, half, 0);
  }
};

/// The full particle state, host-side.  It starts as the initial load.  In
/// durable runs it is also the checkpoint mirror: the state as of the last
/// chunk boundary, which every capture snapshots and every chunk's tasks
/// load their slices from.  Masses are constant (1/n), so slices re-derive
/// them from `m` instead of checkpointing them.
struct Mirror {
  std::vector<double> x, y, z, vx, vy, vz, m;
};

/// The deterministic Plummer load, identical to NbodyShared's.
Mirror load_plummer_host(const NbodyConfig& cfg) {
  const std::size_t n = cfg.n;
  Mirror g{std::vector<double>(n), std::vector<double>(n),
           std::vector<double>(n), std::vector<double>(n),
           std::vector<double>(n), std::vector<double>(n),
           std::vector<double>(n)};
  sim::Rng rng(cfg.seed);
  double mvx = 0, mvy = 0, mvz = 0;
  for (std::size_t i = 0; i < n; ++i) {
    double r;
    do {
      const double u = std::max(rng.next_double(), 1e-10);
      r = 1.0 / std::sqrt(std::pow(u, -2.0 / 3.0) - 1.0);
    } while (r > 8.0);
    const double ct = rng.uniform(-1, 1);
    const double st = std::sqrt(std::max(0.0, 1 - ct * ct));
    const double phi = rng.uniform(0, 2 * std::numbers::pi);
    g.x[i] = r * st * std::cos(phi);
    g.y[i] = r * st * std::sin(phi);
    g.z[i] = r * ct;
    const double sigma = std::sqrt(1.0 / (6.0 * std::sqrt(1.0 + r * r)));
    g.vx[i] = rng.gaussian(0, sigma);
    g.vy[i] = rng.gaussian(0, sigma);
    g.vz[i] = rng.gaussian(0, sigma);
    mvx += g.vx[i];
    mvy += g.vy[i];
    mvz += g.vz[i];
    g.m[i] = 1.0 / static_cast<double>(n);
  }
  for (std::size_t i = 0; i < n; ++i) {
    g.vx[i] -= mvx / static_cast<double>(n);
    g.vy[i] -= mvy / static_cast<double>(n);
    g.vz[i] -= mvz / static_cast<double>(n);
  }
  return g;
}

/// Host-side running results the tasks update (one SThread runs at a time,
/// so unsynchronized host updates are safe and deterministic).  A durable
/// run checkpoints it with the mirror.
struct Tally {
  std::uint64_t interactions = 0;
  double fin_kin = 0, fin_px = 0, fin_py = 0, fin_pz = 0;
};

/// The charged window a task's private tree copy is read through.
std::unique_ptr<rt::GlobalArray<double>> make_tree_window(rt::Runtime& rt,
                                                          std::size_t n,
                                                          unsigned node) {
  return std::make_unique<rt::GlobalArray<double>>(
      rt, (2 * n + 64) * 6, arch::MemClass::kNearShared, "nbpvm.tree", node);
}

/// One task of the replicated-tree code: its particle slice, and the
/// replicated coordinates and tree it computes forces against.
struct Task {
  pvm::Pvm& vm;
  const NbodyConfig& cfg;
  Mirror& mirror;
  Tally& tally;
  rt::GlobalArray<double>& tree_window;
  const int me, ntasks;
  std::size_t pb = 0, mine = 0;
  std::vector<double> x, y, z, vx, vy, vz, mass;  ///< task-private slice.
  std::vector<double> ax, ay, az, am;             ///< replicated coordinates.
  HostTree tree;

  /// Loads task `id`'s slice of the mirror.
  Task(pvm::Pvm& v, const NbodyConfig& c, Mirror& mir, Tally& tal,
       rt::GlobalArray<double>& window, int id, int count)
      : vm(v), cfg(c), mirror(mir), tally(tal), tree_window(window), me(id),
        ntasks(count), ax(c.n), ay(c.n), az(c.n), am(c.n) {
    const auto [b, e] = split(cfg.n, static_cast<unsigned>(ntasks),
                              static_cast<unsigned>(me));
    pb = b;
    mine = e - b;
    x.assign(mirror.x.begin() + b, mirror.x.begin() + e);
    y.assign(mirror.y.begin() + b, mirror.y.begin() + e);
    z.assign(mirror.z.begin() + b, mirror.z.begin() + e);
    vx.assign(mirror.vx.begin() + b, mirror.vx.begin() + e);
    vy.assign(mirror.vy.begin() + b, mirror.vy.begin() + e);
    vz.assign(mirror.vz.begin() + b, mirror.vz.begin() + e);
    mass.assign(mirror.m.begin() + b, mirror.m.begin() + e);
  }

  /// One time step: positions gathered to rank 0, which builds the tree and
  /// broadcasts it with the coordinates; then force + push on the slice.
  void step() {
    rt::Runtime& rt = vm.runtime();
    const std::size_t n = cfg.n;
    if (me == 0) {
      std::copy(x.begin(), x.end(), ax.begin() + pb);
      std::copy(y.begin(), y.end(), ay.begin() + pb);
      std::copy(z.begin(), z.end(), az.begin() + pb);
      std::copy(mass.begin(), mass.end(), am.begin() + pb);
      for (int t = 1; t < ntasks; ++t) {
        pvm::Message m = vm.recv(-1, kTagGather);
        const auto [tb, te] = split(n, static_cast<unsigned>(ntasks),
                                    static_cast<unsigned>(m.sender));
        m.unpack(&ax[tb], te - tb);
        m.unpack(&ay[tb], te - tb);
        m.unpack(&az[tb], te - tb);
        m.unpack(&am[tb], te - tb);
      }
      // Build the tree (flops + node writes charged).
      tree.build(ax, ay, az, am, cfg.leaf_capacity);
      rt.work_flops(10.0 * static_cast<double>(n) *
                    std::log2(std::max<double>(2.0, double(n))));
      tree_window.touch_range(0, tree.nodes.size() * 6, true);

      // Broadcast tree + coordinates.
      for (int t = 1; t < ntasks; ++t) {
        pvm::Message m;
        const auto nn = static_cast<std::int64_t>(tree.nodes.size());
        m.pack(&nn, 1);
        m.pack(reinterpret_cast<const double*>(tree.nodes.data()),
               tree.nodes.size() * sizeof(TreeNode) / sizeof(double));
        m.pack(tree.order.data(), tree.order.size());
        m.pack(ax.data(), n);
        m.pack(ay.data(), n);
        m.pack(az.data(), n);
        m.pack(am.data(), n);
        vm.send(t, kTagTree, std::move(m));
      }
    } else {
      pvm::Message m;
      m.pack(x.data(), mine);
      m.pack(y.data(), mine);
      m.pack(z.data(), mine);
      m.pack(mass.data(), mine);
      vm.send(0, kTagGather, std::move(m));

      pvm::Message t = vm.recv(0, kTagTree);
      std::int64_t nn = 0;
      t.unpack(&nn, 1);
      tree.nodes.resize(static_cast<std::size_t>(nn));
      t.unpack(reinterpret_cast<double*>(tree.nodes.data()),
               tree.nodes.size() * sizeof(TreeNode) / sizeof(double));
      tree.order.resize(n);
      t.unpack(tree.order.data(), n);
      t.unpack(ax.data(), n);
      t.unpack(ay.data(), n);
      t.unpack(az.data(), n);
      t.unpack(am.data(), n);
    }

    // Force + push on the private slice.
    const double eps2 = cfg.eps * cfg.eps;
    const double th2 = cfg.theta * cfg.theta;
    for (std::size_t q = 0; q < mine; ++q) {
      const double xi = x[q], yi = y[q], zi = z[q];
      double fx = 0, fy = 0, fz = 0;
      std::int32_t stack[512];
      int top = 0;
      stack[top++] = 0;
      while (top > 0) {
        const TreeNode& nd = tree.nodes[stack[--top]];
        rt.read(tree_window.vaddr(
                    (static_cast<std::size_t>(&nd - tree.nodes.data())) * 6),
                48);
        rt.work_flops(kNodeVisitFlops);
        const double dx = nd.mx - xi, dy = nd.my - yi, dz = nd.mz - zi;
        const double d2 = dx * dx + dy * dy + dz * dz;
        const double size = 2 * nd.half;
        if (nd.count < 0 && size * size > th2 * d2) {
          for (int o = 0; o < 8; ++o) {
            if (nd.child[o] >= 0) stack[top++] = nd.child[o];
          }
          continue;
        }
        if (nd.count < 0) {
          const double r2 = d2 + eps2;
          const double inv = 1.0 / (r2 * std::sqrt(r2));
          fx += nd.mass * dx * inv;
          fy += nd.mass * dy * inv;
          fz += nd.mass * dz * inv;
          rt.work_flops(kInteractFlops);
          ++tally.interactions;
          continue;
        }
        for (std::int32_t k = nd.first; k < nd.first + nd.count; ++k) {
          const auto p = static_cast<std::size_t>(tree.order[k]);
          if (p == pb + q) continue;
          const double ddx = ax[p] - xi, ddy = ay[p] - yi, ddz = az[p] - zi;
          const double r2 = ddx * ddx + ddy * ddy + ddz * ddz + eps2;
          const double inv = 1.0 / (r2 * std::sqrt(r2));
          fx += am[p] * ddx * inv;
          fy += am[p] * ddy * inv;
          fz += am[p] * ddz * inv;
          rt.work_flops(kInteractFlops);
          ++tally.interactions;
        }
      }
      vx[q] += cfg.dt * fx;
      vy[q] += cfg.dt * fy;
      vz[q] += cfg.dt * fz;
      x[q] += cfg.dt * vx[q];
      y[q] += cfg.dt * vy[q];
      z[q] += cfg.dt * vz[q];
      rt.work_flops(kPushFlops);
    }
  }

  /// Every slice to rank 0, which assembles them in the mirror (charged
  /// messages): the state a capture then snapshots.
  void gather_to_mirror() {
    if (me == 0) {
      std::copy(x.begin(), x.end(), mirror.x.begin() + pb);
      std::copy(y.begin(), y.end(), mirror.y.begin() + pb);
      std::copy(z.begin(), z.end(), mirror.z.begin() + pb);
      std::copy(vx.begin(), vx.end(), mirror.vx.begin() + pb);
      std::copy(vy.begin(), vy.end(), mirror.vy.begin() + pb);
      std::copy(vz.begin(), vz.end(), mirror.vz.begin() + pb);
      for (int r = 1; r < ntasks; ++r) {
        pvm::Message m = vm.recv(-1, kTagCkpt);
        const auto [sb, se] = split(cfg.n, static_cast<unsigned>(ntasks),
                                    static_cast<unsigned>(m.sender));
        m.unpack(mirror.x.data() + sb, se - sb);
        m.unpack(mirror.y.data() + sb, se - sb);
        m.unpack(mirror.z.data() + sb, se - sb);
        m.unpack(mirror.vx.data() + sb, se - sb);
        m.unpack(mirror.vy.data() + sb, se - sb);
        m.unpack(mirror.vz.data() + sb, se - sb);
      }
    } else {
      pvm::Message m;
      m.pack(x.data(), mine);
      m.pack(y.data(), mine);
      m.pack(z.data(), mine);
      m.pack(vx.data(), mine);
      m.pack(vy.data(), mine);
      m.pack(vz.data(), mine);
      vm.send(0, kTagCkpt, std::move(m));
    }
  }

  /// The final diagnostics: every task's partial sums, combined on rank 0.
  void combine_diagnostics() {
    double local[4] = {0, 0, 0, 0};
    for (std::size_t q = 0; q < mine; ++q) {
      local[0] +=
          0.5 * mass[q] * (vx[q] * vx[q] + vy[q] * vy[q] + vz[q] * vz[q]);
      local[1] += mass[q] * vx[q];
      local[2] += mass[q] * vy[q];
      local[3] += mass[q] * vz[q];
    }
    if (me == 0) {
      tally.fin_kin = local[0];
      tally.fin_px = local[1];
      tally.fin_py = local[2];
      tally.fin_pz = local[3];
      for (int t = 1; t < ntasks; ++t) {
        pvm::Message m = vm.recv(-1, kTagDiag);
        double other[4];
        m.unpack(other, 4);
        tally.fin_kin += other[0];
        tally.fin_px += other[1];
        tally.fin_py += other[2];
        tally.fin_pz += other[3];
      }
    } else {
      pvm::Message m;
      m.pack(local, 4);
      vm.send(0, kTagDiag, std::move(m));
    }
  }
};

}  // namespace

NbodyPvm::NbodyPvm(rt::Runtime& rt, const NbodyConfig& cfg, unsigned ntasks,
                   rt::Placement placement)
    : rt_(rt), cfg_(cfg), ntasks_(ntasks), placement_(placement) {}

NbodyResult NbodyPvm::run(const ckpt::DurableSpec& spec) {
  NbodyResult res;
  rt_.machine().reset_stats();
  const std::size_t n = cfg_.n;
  const sim::Time t0 = rt_.now();

  Mirror mirror = load_plummer_host(cfg_);
  pvm::Pvm root(rt_);
  Tally tally;

  if (spec.enabled()) {
    // One spawn per chunk, every chunk ending with the slices gathered back
    // to the mirror, so each boundary's capture (and the disk epoch
    // committed from it) holds the current particle state.  The tree
    // windows are hoisted out of the tasks and homed where the in-task
    // allocation would land them: the simulated address layout is then
    // independent of how many chunks (or resumes) the run is divided into.
    ckpt::Store store(rt_);
    store.registrar().add_host("nbpvm.px", mirror.x);
    store.registrar().add_host("nbpvm.py", mirror.y);
    store.registrar().add_host("nbpvm.pz", mirror.z);
    store.registrar().add_host("nbpvm.vx", mirror.vx);
    store.registrar().add_host("nbpvm.vy", mirror.vy);
    store.registrar().add_host("nbpvm.vz", mirror.vz);
    store.registrar().add_pod("nbpvm.tally", tally);
    std::vector<std::unique_ptr<rt::GlobalArray<double>>> windows;
    windows.reserve(ntasks_);
    for (unsigned t = 0; t < ntasks_; ++t) {
      windows.push_back(make_tree_window(
          rt_, n,
          rt_.topo().node_of_cpu(rt_.place_cpu(t, ntasks_, placement_))));
    }
    ckpt::run_chunks(
        rt_, store, spec, cfg_.steps,
        [&](std::uint64_t begin, std::uint64_t end) {
          root.spawn(ntasks_, placement_,
                     [&](pvm::Pvm& vm, int me, int ntasks) {
                       Task task(vm, cfg_, mirror, tally, *windows[me], me,
                                 ntasks);
                       for (std::uint64_t s = begin; s < end; ++s) task.step();
                       task.gather_to_mirror();
                       if (end == cfg_.steps) task.combine_diagnostics();
                     });
        });
  } else {
    root.spawn(ntasks_, placement_, [&](pvm::Pvm& vm, int me, int ntasks) {
      rt::Runtime& rt = vm.runtime();
      const auto window =
          make_tree_window(rt, n, rt.topo().node_of_cpu(rt.cpu()));
      Task task(vm, cfg_, mirror, tally, *window, me, ntasks);
      for (std::uint64_t s = 0; s < cfg_.steps; ++s) task.step();
      task.combine_diagnostics();
    });
  }

  res.sim_time = rt_.now() - t0;
  const auto total = rt_.machine().perf().total();
  res.flops = total.flops;
  res.mflops = res.flops / (sim::to_seconds(res.sim_time) * 1e6);
  res.interactions = tally.interactions;
  res.final.kinetic = tally.fin_kin;
  res.final.px = tally.fin_px;
  res.final.py = tally.fin_py;
  res.final.pz = tally.fin_pz;
  res.final.mass = 1.0;
  return res;
}

}  // namespace spp::nbody
