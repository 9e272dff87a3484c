#include "spp/apps/nbody/nbody_pvm.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "spp/ckpt/loop.h"
#include "spp/rt/garray.h"
#include "spp/rt/loops.h"

namespace spp::nbody {

namespace {

constexpr int kTagGather = 100;
constexpr int kTagTree = 200;
constexpr int kTagDiag = 300;
constexpr int kTagCkpt = 400;  ///< slice -> rank 0 at a chunk end.

/// The full particle state, host-side.  It starts as the initial load.  In
/// durable runs it is also the checkpoint mirror: the state as of the last
/// chunk boundary, which every capture snapshots and every chunk's tasks
/// load their slices from.  Masses are constant (1/n), so slices re-derive
/// them from `m` instead of checkpointing them.
struct Mirror {
  explicit Mirror(std::size_t n)
      : x(n), y(n), z(n), vx(n), vy(n), vz(n), m(n) {}
  std::vector<double> x, y, z, vx, vy, vz, m;
};

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

/// A task's tree charges.  The tree is built uncharged (rank 0 charges the
/// build in bulk); the walk reads each visited cell through the task's tree
/// window, and the replicated bodies cost nothing to read.
struct WalkCharges : NoCharges {
  rt::Runtime& rt;
  rt::GlobalArray<double>& window;
  std::uint64_t& interactions;

  WalkCharges(rt::Runtime& r, rt::GlobalArray<double>& w, std::uint64_t& i)
      : rt(r), window(w), interactions(i) {}
  void visit(std::int32_t c) {
    rt.read(window.vaddr(static_cast<std::size_t>(c) * 6), 48);
    rt.work_flops(kNodeVisitFlops);
  }
  void interaction() {
    rt.work_flops(kInteractFlops);
    ++interactions;
  }
};

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
  Octree tree;

  /// Loads task `id`'s slice of the mirror.
  Task(pvm::Pvm& v, const NbodyConfig& c, Mirror& mir, Tally& tal,
       rt::GlobalArray<double>& window, int id, int count)
      : vm(v), cfg(c), mirror(mir), tally(tal), tree_window(window), me(id),
        ntasks(count), ax(c.n), ay(c.n), az(c.n), am(c.n) {
    const auto [b, e] = rt::block_range(
        cfg.n, static_cast<unsigned>(ntasks), static_cast<unsigned>(me));
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

  /// The replicated coordinates the tree is built over and walked through.
  Bodies bodies() const {
    return {ax.data(), ay.data(), az.data(), am.data()};
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
        const auto [tb, te] = rt::block_range(
            n, static_cast<unsigned>(ntasks), static_cast<unsigned>(m.sender));
        m.unpack(&ax[tb], te - tb);
        m.unpack(&ay[tb], te - tb);
        m.unpack(&az[tb], te - tb);
        m.unpack(&am[tb], te - tb);
      }
      // Build the tree, charging its flops and cell writes in bulk.
      NoCharges none;
      tree.build(bodies(), cfg, none);
      rt.work_flops(10.0 * static_cast<double>(n) *
                    std::log2(std::max<double>(2.0, double(n))));
      tree_window.touch_range(0, tree.cells.size() * 6, true);

      // Broadcast tree + coordinates.
      for (int t = 1; t < ntasks; ++t) {
        pvm::Message m;
        const auto nn = static_cast<std::int64_t>(tree.cells.size());
        m.pack(&nn, 1);
        m.pack(reinterpret_cast<const double*>(tree.cells.data()),
               tree.cells.size() * sizeof(TreeNode) / sizeof(double));
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
      tree.cells.resize(static_cast<std::size_t>(nn));
      t.unpack(reinterpret_cast<double*>(tree.cells.data()),
               tree.cells.size() * sizeof(TreeNode) / sizeof(double));
      tree.order.resize(n);
      t.unpack(tree.order.data(), n);
      t.unpack(ax.data(), n);
      t.unpack(ay.data(), n);
      t.unpack(az.data(), n);
      t.unpack(am.data(), n);
    }

    // Force + push on the private slice.
    WalkCharges charge(rt, tree_window, tally.interactions);
    for (std::size_t q = 0; q < mine; ++q) {
      const auto f = tree.force(bodies(), pb + q, cfg, charge);
      vx[q] += cfg.dt * f[0];
      vy[q] += cfg.dt * f[1];
      vz[q] += cfg.dt * f[2];
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
        const auto [sb, se] =
            rt::block_range(cfg.n, static_cast<unsigned>(ntasks),
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

  Mirror mirror(n);
  fill_plummer(cfg_, mirror.x.data(), mirror.y.data(), mirror.z.data(),
               mirror.vx.data(), mirror.vy.data(), mirror.vz.data(),
               mirror.m.data());
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
