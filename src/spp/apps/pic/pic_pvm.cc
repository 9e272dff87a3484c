#include "spp/apps/pic/pic_pvm.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "spp/ckpt/loop.h"
#include "spp/fft/fft.h"
#include "spp/rt/garray.h"
#include "spp/rt/loops.h"

namespace spp::pic {

namespace {

constexpr int kTagRho = 100;
constexpr int kTagField = 200;
constexpr int kTagDiag = 300;
constexpr int kTagCkpt = 400;  ///< slice -> rank 0 at a chunk end.

/// The full particle population, host-side.  It starts as the initial load.
/// In durable runs it is also the checkpoint mirror: the state as of the
/// last chunk boundary, which every capture snapshots and every chunk's
/// tasks load their slices from.
struct Mirror {
  explicit Mirror(std::size_t np)
      : x(np), y(np), z(np), vx(np), vy(np), vz(np) {}
  std::vector<double> x, y, z, vx, vy, vz;
};

/// Host-side running results rank 0 records; a durable run checkpoints them
/// with the mirror and the fixed-size history (history[s] holds step s's
/// field energy).
struct Tally {
  double final_kinetic = 0, final_momentum = 0, final_field = 0,
         final_charge = 0;
  PicDiagnostics initial;
  std::uint64_t history_count = 0;
};

/// One task: its particle slice, its full private copy of the mesh, and the
/// charged NearShared windows over both (particles dominate traffic; both
/// are charged).
struct Task {
  pvm::Pvm& vm;
  const PicConfig& cfg;
  Mirror& mirror;
  Tally& tally;
  std::vector<double>& history;
  rt::GlobalArray<double>& mesh_window;  ///< rho, ex, ey, ez.
  rt::GlobalArray<double>& part_window;  ///< the 6 particle arrays.
  const int me, ntasks;
  std::size_t pb = 0, my_np = 0;
  std::vector<double> px, py, pz, vx, vy, vz;
  std::vector<double> rho, ex, ey, ez;

  /// Loads task `id`'s slice of the mirror.
  Task(pvm::Pvm& v, const PicConfig& c, Mirror& mir, Tally& tal,
       std::vector<double>& hist, rt::GlobalArray<double>& mesh,
       rt::GlobalArray<double>& part, int id, int count)
      : vm(v), cfg(c), mirror(mir), tally(tal), history(hist),
        mesh_window(mesh), part_window(part), me(id), ntasks(count),
        rho(c.cells(), 0.0), ex(c.cells(), 0.0), ey(c.cells(), 0.0),
        ez(c.cells(), 0.0) {
    const auto [b, e] =
        rt::block_range(cfg.particles(), static_cast<unsigned>(ntasks),
                        static_cast<unsigned>(me));
    pb = b;
    my_np = e - b;
    px.assign(mirror.x.begin() + b, mirror.x.begin() + e);
    py.assign(mirror.y.begin() + b, mirror.y.begin() + e);
    pz.assign(mirror.z.begin() + b, mirror.z.begin() + e);
    vx.assign(mirror.vx.begin() + b, mirror.vx.begin() + e);
    vy.assign(mirror.vy.begin() + b, mirror.vy.begin() + e);
    vz.assign(mirror.vz.begin() + b, mirror.vz.begin() + e);
  }

  /// Time step `s`: deposit, combine and solve on rank 0, field broadcast,
  /// gather + push, and the step's diagnostics combined on rank 0.
  void step(std::uint64_t s) {
    rt::Runtime& rt = vm.runtime();
    const std::size_t nx = cfg.nx, ny = cfg.ny, nz = cfg.nz;
    const std::size_t nc = cfg.cells();

    // ----- deposit on the private mesh -------------------------------------
    std::fill(rho.begin(), rho.end(), 0.0);
    mesh_window.touch_range(0, nc, true);
    for (std::size_t q = 0; q < my_np; ++q) {
      // SoA particle record, like the shared-memory coding: one read per
      // coordinate component array.
      rt.read(part_window.vaddr(0 * my_np + q));
      rt.read(part_window.vaddr(1 * my_np + q));
      rt.read(part_window.vaddr(2 * my_np + q));
      const Cic st = cic_stencil(cfg, px[q], py[q], pz[q]);
      for (int k = 0; k < 8; ++k) {
        rho[st.cell[k]] -= st.w[k];
        rt.read(mesh_window.vaddr(st.cell[k]));
        rt.write(mesh_window.vaddr(st.cell[k]));
      }
      rt.work_flops(kDepositFlops);
    }

    // ----- combine on task 0, solve, broadcast E ---------------------------
    if (me == 0) {
      for (int t = 1; t < ntasks; ++t) {
        pvm::Message m = vm.recv(-1, kTagRho);
        std::vector<double> other(nc);
        m.unpack(other.data(), nc);
        for (std::size_t c = 0; c < nc; ++c) rho[c] += other[c];
        rt.work_flops(static_cast<double>(nc));
      }
      // Neutralizing background.
      const double bg =
          static_cast<double>(cfg.plasma_per_cell + cfg.beam_per_cell);
      for (std::size_t c = 0; c < nc; ++c) rho[c] += bg;

      // Serial FFT Poisson solve on task 0 (the PVM version has no shared
      // field solver; this is one of its structural handicaps).
      std::vector<fft::Complex> work(nc);
      for (std::size_t c = 0; c < nc; ++c) work[c] = {rho[c], 0.0};
      mesh_window.touch_range(0, nc, false);
      fft::transform_3d(work.data(), nx, ny, nz, -1);
      rt.work_flops(fft::flops_3d(nx, ny, nz));
      for (std::size_t c = 0; c < nc; ++c) {
        work[c] = poisson_mode(cfg, c, work[c]);
      }
      rt.work_flops(kFieldFlopsPerCell * 0.5 * static_cast<double>(nc));
      fft::transform_3d(work.data(), nx, ny, nz, +1);
      rt.work_flops(fft::flops_3d(nx, ny, nz));

      for (std::size_t c = 0; c < nc; ++c) {
        const std::size_t x = c % nx, y = (c / nx) % ny, z = c / (nx * ny);
        const std::size_t xm = (x + nx - 1) % nx, xp = (x + 1) % nx;
        const std::size_t ym = (y + ny - 1) % ny, yp = (y + 1) % ny;
        const std::size_t zm = (z + nz - 1) % nz, zp = (z + 1) % nz;
        ex[c] = -0.5 * (work[cfg.cell_index(xp, y, z)].real() -
                        work[cfg.cell_index(xm, y, z)].real());
        ey[c] = -0.5 * (work[cfg.cell_index(x, yp, z)].real() -
                        work[cfg.cell_index(x, ym, z)].real());
        ez[c] = -0.5 * (work[cfg.cell_index(x, y, zp)].real() -
                        work[cfg.cell_index(x, y, zm)].real());
      }
      rt.work_flops(kFieldFlopsPerCell * 0.5 * static_cast<double>(nc));
      mesh_window.touch_range(nc, 3 * nc, true);

      for (int t = 1; t < ntasks; ++t) {
        pvm::Message m;
        m.pack(ex.data(), nc);
        m.pack(ey.data(), nc);
        m.pack(ez.data(), nc);
        vm.send(t, kTagField, std::move(m));
      }
    } else {
      pvm::Message m;
      m.pack(rho.data(), nc);
      vm.send(0, kTagRho, std::move(m));
      pvm::Message f = vm.recv(0, kTagField);
      f.unpack(ex.data(), nc);
      f.unpack(ey.data(), nc);
      f.unpack(ez.data(), nc);
      mesh_window.touch_range(nc, 3 * nc, true);
    }

    // ----- gather + push on private particles ------------------------------
    for (std::size_t q = 0; q < my_np; ++q) {
      const Cic st = cic_stencil(cfg, px[q], py[q], pz[q]);
      double e[3] = {0, 0, 0};
      for (int k = 0; k < 8; ++k) {
        e[0] += st.w[k] * ex[st.cell[k]];
        e[1] += st.w[k] * ey[st.cell[k]];
        e[2] += st.w[k] * ez[st.cell[k]];
        rt.read(mesh_window.vaddr(nc + st.cell[k]));
        rt.read(mesh_window.vaddr(2 * nc + st.cell[k]));
        rt.read(mesh_window.vaddr(3 * nc + st.cell[k]));
      }
      leapfrog(cfg, e, px[q], py[q], pz[q], vx[q], vy[q], vz[q]);
      for (int c = 0; c < 3; ++c) {
        rt.read(part_window.vaddr((3 + c) * my_np + q));   // velocity
        rt.write(part_window.vaddr((3 + c) * my_np + q));
        rt.write(part_window.vaddr(c * my_np + q));        // position
      }
      rt.work_flops(kPushFlops);
    }

    // ----- diagnostics gathered to task 0 ----------------------------------
    double local[3] = {0, 0, 0};  // kinetic, momentum_z, (unused)
    for (std::size_t q = 0; q < my_np; ++q) {
      local[0] += 0.5 * (vx[q] * vx[q] + vy[q] * vy[q] + vz[q] * vz[q]);
      local[1] += vz[q];
    }
    if (me == 0) {
      double kin = local[0], mom = local[1];
      for (int t = 1; t < ntasks; ++t) {
        pvm::Message m = vm.recv(-1, kTagDiag);
        double other[2];
        m.unpack(other, 2);
        kin += other[0];
        mom += other[1];
      }
      double fld = 0, chg = 0;
      for (std::size_t c = 0; c < nc; ++c) {
        fld += 0.5 * (ex[c] * ex[c] + ey[c] * ey[c] + ez[c] * ez[c]);
        chg += rho[c];
      }
      history[s] = fld;
      tally.history_count = s + 1;
      if (s == 0) tally.initial = {kin, fld, chg, mom};
      if (s + 1 == cfg.steps) {
        tally.final_kinetic = kin;
        tally.final_momentum = mom;
        tally.final_field = fld;
        tally.final_charge = chg;
      }
    } else {
      pvm::Message m;
      m.pack(local, 2);
      vm.send(0, kTagDiag, std::move(m));
    }
  }

  /// Every slice to rank 0, which assembles them in the mirror (charged
  /// messages): the state a capture then snapshots.
  void gather_to_mirror() {
    if (me == 0) {
      std::copy(px.begin(), px.end(), mirror.x.begin() + pb);
      std::copy(py.begin(), py.end(), mirror.y.begin() + pb);
      std::copy(pz.begin(), pz.end(), mirror.z.begin() + pb);
      std::copy(vx.begin(), vx.end(), mirror.vx.begin() + pb);
      std::copy(vy.begin(), vy.end(), mirror.vy.begin() + pb);
      std::copy(vz.begin(), vz.end(), mirror.vz.begin() + pb);
      part_window.touch_range(0, 6 * my_np, false);
      for (int r = 1; r < ntasks; ++r) {
        pvm::Message m = vm.recv(-1, kTagCkpt);
        const auto [sb, se] =
            rt::block_range(cfg.particles(), static_cast<unsigned>(ntasks),
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
      m.pack(px.data(), my_np);
      m.pack(py.data(), my_np);
      m.pack(pz.data(), my_np);
      m.pack(vx.data(), my_np);
      m.pack(vy.data(), my_np);
      m.pack(vz.data(), my_np);
      vm.send(0, kTagCkpt, std::move(m));
    }
  }
};

}  // namespace

PicPvm::PicPvm(rt::Runtime& rt, const PicConfig& cfg, unsigned ntasks,
               rt::Placement placement)
    : rt_(rt), cfg_(cfg), ntasks_(ntasks), placement_(placement) {}

PicResult PicPvm::run(const ckpt::DurableSpec& spec) {
  PicResult res;
  rt_.machine().reset_stats();
  const sim::Time t0 = rt_.now();
  const std::size_t nc = cfg_.cells();
  const std::size_t np = cfg_.particles();

  pvm::Pvm root(rt_);
  Mirror mirror(np);
  fill_beam_plasma(cfg_, mirror.x.data(), mirror.y.data(), mirror.z.data(),
                   mirror.vx.data(), mirror.vy.data(), mirror.vz.data());
  Tally tally;
  std::vector<double> history(cfg_.steps, 0.0);

  if (spec.enabled()) {
    // One spawn per chunk, every chunk ending with the slices gathered back
    // to the mirror, so each boundary's capture (and the disk epoch
    // committed from it) holds the current particle state.  Rank 0's
    // diagnostics must survive a kill too, so the tally and the fixed-size
    // history are regions as well (the arena must never regrow,
    // docs/RECOVERY.md).  The charged windows are hoisted out of the tasks
    // and homed where each task will run, so the simulated address layout
    // is identical in a fresh and a resumed process.
    ckpt::Store store(rt_);
    store.registrar().add_host("picpvm.px", mirror.x);
    store.registrar().add_host("picpvm.py", mirror.y);
    store.registrar().add_host("picpvm.pz", mirror.z);
    store.registrar().add_host("picpvm.vx", mirror.vx);
    store.registrar().add_host("picpvm.vy", mirror.vy);
    store.registrar().add_host("picpvm.vz", mirror.vz);
    store.registrar().add_pod("picpvm.tally", tally);
    store.registrar().add_host("picpvm.history", history);
    std::vector<std::unique_ptr<rt::GlobalArray<double>>> mesh_windows;
    std::vector<std::unique_ptr<rt::GlobalArray<double>>> part_windows;
    for (unsigned t = 0; t < ntasks_; ++t) {
      const unsigned node =
          rt_.topo().node_of_cpu(rt_.place_cpu(t, ntasks_, placement_));
      mesh_windows.push_back(std::make_unique<rt::GlobalArray<double>>(
          rt_, 4 * nc, arch::MemClass::kNearShared, "picpvm.mesh", node));
      const auto [sb, se] = rt::block_range(np, ntasks_, t);
      part_windows.push_back(std::make_unique<rt::GlobalArray<double>>(
          rt_, 6 * (se - sb), arch::MemClass::kNearShared, "picpvm.part",
          node));
    }
    ckpt::run_chunks(
        rt_, store, spec, cfg_.steps,
        [&](std::uint64_t begin, std::uint64_t end) {
          root.spawn(ntasks_, placement_,
                     [&](pvm::Pvm& vm, int me, int ntasks) {
                       Task task(vm, cfg_, mirror, tally, history,
                                 *mesh_windows[me], *part_windows[me], me,
                                 ntasks);
                       for (std::uint64_t s = begin; s < end; ++s) {
                         task.step(s);
                       }
                       task.gather_to_mirror();
                     });
        });
  } else {
    root.spawn(ntasks_, placement_, [&](pvm::Pvm& vm, int me, int ntasks) {
      rt::Runtime& rt = vm.runtime();
      const unsigned my_node = rt.topo().node_of_cpu(rt.cpu());
      const auto [pb, pe] = rt::block_range(
          np, static_cast<unsigned>(ntasks), static_cast<unsigned>(me));
      rt::GlobalArray<double> mesh_window(
          rt, 4 * nc, arch::MemClass::kNearShared, "picpvm.mesh", my_node);
      rt::GlobalArray<double> part_window(rt, 6 * (pe - pb),
                                          arch::MemClass::kNearShared,
                                          "picpvm.part", my_node);
      Task task(vm, cfg_, mirror, tally, history, mesh_window, part_window,
                me, ntasks);
      for (std::uint64_t s = 0; s < cfg_.steps; ++s) task.step(s);
    });
  }

  res.sim_time = rt_.now() - t0;
  const auto total = rt_.machine().perf().total();
  res.flops = total.flops;
  res.mflops = res.flops / (sim::to_seconds(res.sim_time) * 1e6);
  res.initial = tally.initial;
  res.final = {tally.final_kinetic, tally.final_field, tally.final_charge,
               tally.final_momentum};
  res.field_energy_history.assign(
      history.begin(),
      history.begin() + static_cast<std::ptrdiff_t>(tally.history_count));
  return res;
}

}  // namespace spp::pic
