#include "spp/apps/pic/pic_pvm.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numbers>
#include <vector>

#include "spp/ckpt/loop.h"
#include "spp/fft/fft.h"
#include "spp/rt/garray.h"

namespace spp::pic {

namespace {

constexpr int kTagRho = 100;
constexpr int kTagField = 200;
constexpr int kTagDiag = 300;
// Recovery-protocol tags (docs/RECOVERY.md).  Every application tag is
// offset by the group generation (initial ntasks - live tasks) so stale
// in-flight messages from an abandoned step can never match a post-rollback
// receive.  Generations are < ntasks << 100, so the bases cannot collide.
constexpr int kTagCkpt = 400;    ///< slice -> rank 0 at a checkpoint step.
constexpr int kTagResume = 500;  ///< rank 0 -> survivor: epoch + new slice.
constexpr int kTagDone = 600;    ///< rank 0 -> all: final combine landed.

constexpr double kDepositFlops = 33;
constexpr double kPushFlops = 70;
constexpr double kFieldFlopsPerCell = 16;

std::pair<std::size_t, std::size_t> split(std::size_t n, unsigned parts,
                                          unsigned p) {
  const std::size_t base = n / parts, rem = n % parts;
  const std::size_t begin = p * base + std::min<std::size_t>(p, rem);
  return {begin, begin + base + (p < rem ? 1 : 0)};
}

/// The full particle population, host-side.  It starts as the initial load.
/// Under recovery and in durable runs it is also the checkpoint mirror: the
/// state as of the last epoch, which survives any task's death, is what
/// every capture snapshots, and is where a post-shrink rank 0 redistributes
/// from.
struct Mirror {
  std::vector<double> x, y, z, vx, vy, vz;
};

/// Deterministic particle load, identical to PicShared's.
Mirror generate_particles(const PicConfig& cfg) {
  const std::size_t np = cfg.particles();
  Mirror g{std::vector<double>(np), std::vector<double>(np),
           std::vector<double>(np), std::vector<double>(np),
           std::vector<double>(np), std::vector<double>(np)};
  sim::Rng rng(cfg.seed);
  std::size_t p = 0;
  for (std::size_t iz = 0; iz < cfg.nz; ++iz) {
    for (std::size_t iy = 0; iy < cfg.ny; ++iy) {
      for (std::size_t ix = 0; ix < cfg.nx; ++ix) {
        for (unsigned k = 0; k < cfg.plasma_per_cell + cfg.beam_per_cell;
             ++k, ++p) {
          const bool beam = k >= cfg.plasma_per_cell;
          g.x[p] = static_cast<double>(ix) + rng.next_double();
          g.y[p] = static_cast<double>(iy) + rng.next_double();
          g.z[p] = static_cast<double>(iz) + rng.next_double();
          if (beam) {
            g.vx[p] = g.vy[p] = 0;
            g.vz[p] = cfg.beam_velocity * cfg.vth;
          } else {
            g.vx[p] = rng.gaussian(0, cfg.vth);
            g.vy[p] = rng.gaussian(0, cfg.vth);
            g.vz[p] = rng.gaussian(0, cfg.vth);
          }
        }
      }
    }
  }
  return g;
}

/// Host-side running results rank 0 records; a durable run checkpoints them
/// with the mirror and the fixed-size history (history[s] holds step s's
/// field energy, so a replay rewrites what it rolled back).
struct Tally {
  double final_kinetic = 0, final_momentum = 0, final_field = 0,
         final_charge = 0;
  PicDiagnostics initial;
  std::uint64_t history_count = 0;
};

/// One task: its rank in the live group, its particle slice, its full
/// private copy of the mesh, and the charged NearShared windows over both
/// (particles dominate traffic; both are charged).  Under recovery every tag
/// is offset by the group generation `gen` (initial ntasks - live tasks).
struct Task {
  pvm::Pvm& vm;
  pvm::Group& g;
  const PicConfig& cfg;
  Mirror& mirror;
  Tally& tally;
  std::vector<double>& history;
  rt::GlobalArray<double>& mesh_window;  ///< rho, ex, ey, ez.
  rt::GlobalArray<double>& part_window;  ///< the 6 particle arrays.
  const int me, ntasks;
  int rank, live, gen = 0;
  std::size_t pb = 0, pe = 0, my_np = 0;
  std::vector<double> px, py, pz, vx, vy, vz;
  std::vector<double> rho, ex, ey, ez;

  Task(pvm::Pvm& v, pvm::Group& grp, const PicConfig& c, Mirror& mir,
       Tally& tal, std::vector<double>& hist, rt::GlobalArray<double>& mesh,
       rt::GlobalArray<double>& part, int id, int count)
      : vm(v), g(grp), cfg(c), mirror(mir), tally(tal), history(hist),
        mesh_window(mesh), part_window(part), me(id), ntasks(count),
        rank(id), live(count), rho(c.cells(), 0.0), ex(c.cells(), 0.0),
        ey(c.cells(), 0.0), ez(c.cells(), 0.0) {
    const auto [b, e] = split(cfg.particles(), static_cast<unsigned>(live),
                              static_cast<unsigned>(rank));
    load_slice(b, e);
  }

  /// Resets this task's slice to the mirror's state for [b, e).
  void load_slice(std::size_t b, std::size_t e) {
    pb = b;
    pe = e;
    my_np = e - b;
    px.assign(mirror.x.begin() + b, mirror.x.begin() + e);
    py.assign(mirror.y.begin() + b, mirror.y.begin() + e);
    pz.assign(mirror.z.begin() + b, mirror.z.begin() + e);
    vx.assign(mirror.vx.begin() + b, mirror.vx.begin() + e);
    vy.assign(mirror.vy.begin() + b, mirror.vy.begin() + e);
    vz.assign(mirror.vz.begin() + b, mirror.vz.begin() + e);
  }

  std::size_t cell_index(std::size_t ix, std::size_t iy, std::size_t iz) const {
    return (iz * cfg.ny + iy) * cfg.nx + ix;
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
      const double x = px[q], y = py[q], z = pz[q];
      // SoA particle record, like the shared-memory coding: one read per
      // coordinate component array.
      rt.read(part_window.vaddr(0 * my_np + q));
      rt.read(part_window.vaddr(1 * my_np + q));
      rt.read(part_window.vaddr(2 * my_np + q));
      const auto ix = static_cast<std::size_t>(x);
      const auto iy = static_cast<std::size_t>(y);
      const auto iz = static_cast<std::size_t>(z);
      const double fx = x - std::floor(x), fy = y - std::floor(y),
                   fz = z - std::floor(z);
      const std::size_t ix1 = (ix + 1) % nx, iy1 = (iy + 1) % ny,
                        iz1 = (iz + 1) % nz;
      const double wx[2] = {1 - fx, fx}, wy[2] = {1 - fy, fy},
                   wz[2] = {1 - fz, fz};
      const std::size_t cx[2] = {ix, ix1}, cy[2] = {iy, iy1},
                        cz[2] = {iz, iz1};
      for (int a = 0; a < 2; ++a)
        for (int b = 0; b < 2; ++b)
          for (int c = 0; c < 2; ++c) {
            const std::size_t idx = cell_index(cx[a], cy[b], cz[c]);
            rho[idx] -= wx[a] * wy[b] * wz[c];
            rt.read(mesh_window.vaddr(idx));
            rt.write(mesh_window.vaddr(idx));
          }
      rt.work_flops(kDepositFlops);
    }

    // ----- combine on task 0, solve, broadcast E ---------------------------
    if (rank == 0) {
      for (int t = 1; t < live; ++t) {
        pvm::Message m = vm.recv(-1, kTagRho + gen);
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
        const std::size_t x = c % nx, y = (c / nx) % ny, z = c / (nx * ny);
        const double sx = std::sin(std::numbers::pi * double(x) / double(nx));
        const double sy = std::sin(std::numbers::pi * double(y) / double(ny));
        const double sz = std::sin(std::numbers::pi * double(z) / double(nz));
        const double k2 = 4.0 * (sx * sx + sy * sy + sz * sz);
        work[c] = (k2 > 0) ? work[c] / k2 : fft::Complex(0, 0);
      }
      rt.work_flops(kFieldFlopsPerCell * 0.5 * static_cast<double>(nc));
      fft::transform_3d(work.data(), nx, ny, nz, +1);
      rt.work_flops(fft::flops_3d(nx, ny, nz));

      for (std::size_t c = 0; c < nc; ++c) {
        const std::size_t x = c % nx, y = (c / nx) % ny, z = c / (nx * ny);
        const std::size_t xm = (x + nx - 1) % nx, xp = (x + 1) % nx;
        const std::size_t ym = (y + ny - 1) % ny, yp = (y + 1) % ny;
        const std::size_t zm = (z + nz - 1) % nz, zp = (z + 1) % nz;
        ex[c] = -0.5 * (work[cell_index(xp, y, z)].real() -
                        work[cell_index(xm, y, z)].real());
        ey[c] = -0.5 * (work[cell_index(x, yp, z)].real() -
                        work[cell_index(x, ym, z)].real());
        ez[c] = -0.5 * (work[cell_index(x, y, zp)].real() -
                        work[cell_index(x, y, zm)].real());
      }
      rt.work_flops(kFieldFlopsPerCell * 0.5 * static_cast<double>(nc));
      mesh_window.touch_range(nc, 3 * nc, true);

      for (int t = 1; t < live; ++t) {
        pvm::Message m;
        m.pack(ex.data(), nc);
        m.pack(ey.data(), nc);
        m.pack(ez.data(), nc);
        vm.send(g.tid_of(t), kTagField + gen, std::move(m));
      }
    } else {
      pvm::Message m;
      m.pack(rho.data(), nc);
      vm.send(g.tid_of(0), kTagRho + gen, std::move(m));
      pvm::Message f = vm.recv(g.tid_of(0), kTagField + gen);
      f.unpack(ex.data(), nc);
      f.unpack(ey.data(), nc);
      f.unpack(ez.data(), nc);
      mesh_window.touch_range(nc, 3 * nc, true);
    }

    // ----- gather + push on private particles ------------------------------
    const double dt = cfg.dt;
    const double lx = double(nx), ly = double(ny), lz = double(nz);
    for (std::size_t q = 0; q < my_np; ++q) {
      const double x = px[q], y = py[q], z = pz[q];
      const auto ix = static_cast<std::size_t>(x);
      const auto iy = static_cast<std::size_t>(y);
      const auto iz = static_cast<std::size_t>(z);
      const double fx = x - std::floor(x), fy = y - std::floor(y),
                   fz = z - std::floor(z);
      const std::size_t ix1 = (ix + 1) % nx, iy1 = (iy + 1) % ny,
                        iz1 = (iz + 1) % nz;
      const double wx[2] = {1 - fx, fx}, wy[2] = {1 - fy, fy},
                   wz[2] = {1 - fz, fz};
      const std::size_t cx[2] = {ix, ix1}, cy[2] = {iy, iy1},
                        cz[2] = {iz, iz1};
      double e[3] = {0, 0, 0};
      for (int a = 0; a < 2; ++a)
        for (int b = 0; b < 2; ++b)
          for (int c = 0; c < 2; ++c) {
            const double w = wx[a] * wy[b] * wz[c];
            const std::size_t idx = cell_index(cx[a], cy[b], cz[c]);
            e[0] += w * ex[idx];
            e[1] += w * ey[idx];
            e[2] += w * ez[idx];
            rt.read(mesh_window.vaddr(nc + idx));
            rt.read(mesh_window.vaddr(2 * nc + idx));
            rt.read(mesh_window.vaddr(3 * nc + idx));
          }
      vx[q] += dt * -1.0 * e[0];
      vy[q] += dt * -1.0 * e[1];
      vz[q] += dt * -1.0 * e[2];
      double nxp = x + dt * vx[q], nyp = y + dt * vy[q],
             nzp = z + dt * vz[q];
      nxp -= lx * std::floor(nxp / lx);
      nyp -= ly * std::floor(nyp / ly);
      nzp -= lz * std::floor(nzp / lz);
      if (nxp >= lx) nxp = 0;
      if (nyp >= ly) nyp = 0;
      if (nzp >= lz) nzp = 0;
      px[q] = nxp;
      py[q] = nyp;
      pz[q] = nzp;
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
    if (rank == 0) {
      double kin = local[0], mom = local[1];
      for (int t = 1; t < live; ++t) {
        pvm::Message m = vm.recv(-1, kTagDiag + gen);
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
      vm.send(g.tid_of(0), kTagDiag + gen, std::move(m));
    }
  }

  /// Every slice to rank 0, which assembles them in the mirror (charged
  /// messages): the state a capture then snapshots.
  void gather_to_mirror() {
    if (rank == 0) {
      std::copy(px.begin(), px.end(), mirror.x.begin() + pb);
      std::copy(py.begin(), py.end(), mirror.y.begin() + pb);
      std::copy(pz.begin(), pz.end(), mirror.z.begin() + pb);
      std::copy(vx.begin(), vx.end(), mirror.vx.begin() + pb);
      std::copy(vy.begin(), vy.end(), mirror.vy.begin() + pb);
      std::copy(vz.begin(), vz.end(), mirror.vz.begin() + pb);
      part_window.touch_range(0, 6 * my_np, false);
      for (int r = 1; r < live; ++r) {
        pvm::Message m = vm.recv(-1, kTagCkpt + gen);
        const auto rr = static_cast<unsigned>(g.rank_of(m.sender));
        const auto [sb, se] =
            split(cfg.particles(), static_cast<unsigned>(live), rr);
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
      vm.send(g.tid_of(0), kTagCkpt + gen, std::move(m));
    }
  }

  /// Completion handshake (recovery only): nobody exits until rank 0's
  /// final combine has landed, so a failure in the last step still finds
  /// every survivor alive to rejoin the replay.
  void await_completion() {
    if (rank == 0) {
      for (int r = 1; r < live; ++r) {
        pvm::Message m;
        const std::uint32_t ok = 1;
        m.pack(&ok, 1);
        vm.send(g.tid_of(r), kTagDone + gen, std::move(m));
      }
    } else {
      (void)vm.recv(g.tid_of(0), kTagDone + gen);
    }
  }

  /// ULFM-style recovery after a task failure: acknowledge, shrink the
  /// group, roll back to the latest epoch and redistribute the slices.
  /// Returns the step to replay from.
  std::uint64_t rejoin(ckpt::Store& store) {
    vm.ack_failures();
    g.shrink();
    gen = ntasks - g.size();
    live = g.size();
    rank = g.rank_of(me);
    const std::size_t np = cfg.particles();
    std::uint32_t rs = 0;
    if (rank == 0) {
      const std::int64_t epoch = store.latest();
      // No snapshot yet: the mirror still holds the initial load and the
      // run restarts from step 0.
      if (epoch >= 0) store.restore(static_cast<std::uint64_t>(epoch));
      rs = static_cast<std::uint32_t>(epoch < 0 ? 0 : epoch);
      for (int r = 1; r < live; ++r) {
        const auto [sb, se] =
            split(np, static_cast<unsigned>(live), static_cast<unsigned>(r));
        pvm::Message m;
        m.pack(&rs, 1);
        m.pack(mirror.x.data() + sb, se - sb);
        m.pack(mirror.y.data() + sb, se - sb);
        m.pack(mirror.z.data() + sb, se - sb);
        m.pack(mirror.vx.data() + sb, se - sb);
        m.pack(mirror.vy.data() + sb, se - sb);
        m.pack(mirror.vz.data() + sb, se - sb);
        vm.send(g.tid_of(r), kTagResume + gen, std::move(m));
      }
      const auto [sb, se] = split(np, static_cast<unsigned>(live), 0u);
      load_slice(sb, se);
    } else {
      pvm::Message m = vm.recv(g.tid_of(0), kTagResume + gen);
      m.unpack(&rs, 1);
      const auto [sb, se] =
          split(np, static_cast<unsigned>(live), static_cast<unsigned>(rank));
      load_slice(sb, se);
      m.unpack(px.data(), my_np);
      m.unpack(py.data(), my_np);
      m.unpack(pz.data(), my_np);
      m.unpack(vx.data(), my_np);
      m.unpack(vy.data(), my_np);
      m.unpack(vz.data(), my_np);
    }
    part_window.touch_range(0, 6 * my_np, true);
    return rs;
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
  Mirror mirror = generate_particles(cfg_);
  Tally tally;
  std::vector<double> history(cfg_.steps, 0.0);
  ckpt::Store store(rt_);
  store.registrar().add_host("picpvm.px", mirror.x);
  store.registrar().add_host("picpvm.py", mirror.y);
  store.registrar().add_host("picpvm.pz", mirror.z);
  store.registrar().add_host("picpvm.vx", mirror.vx);
  store.registrar().add_host("picpvm.vy", mirror.vy);
  store.registrar().add_host("picpvm.vz", mirror.vz);

  if (spec.enabled()) {
    // One spawn per chunk, every chunk ending with the slices gathered back
    // to the mirror, so each boundary's capture (and the disk epoch
    // committed from it) holds the current particle state.  Rank 0's
    // diagnostics must survive a kill too, so the tally and the fixed-size
    // history are regions as well (the arena must never regrow,
    // docs/RECOVERY.md).  The charged windows are hoisted out of the tasks
    // and homed where each task will run, so the simulated address layout
    // is identical in a fresh and a resumed process.
    store.registrar().add_pod("picpvm.tally", tally);
    store.registrar().add_host("picpvm.history", history);
    std::vector<std::unique_ptr<rt::GlobalArray<double>>> mesh_windows;
    std::vector<std::unique_ptr<rt::GlobalArray<double>>> part_windows;
    for (unsigned t = 0; t < ntasks_; ++t) {
      const unsigned node =
          rt_.topo().node_of_cpu(rt_.place_cpu(t, ntasks_, placement_));
      mesh_windows.push_back(std::make_unique<rt::GlobalArray<double>>(
          rt_, 4 * nc, arch::MemClass::kNearShared, "picpvm.mesh", node));
      const auto [sb, se] = split(np, ntasks_, t);
      part_windows.push_back(std::make_unique<rt::GlobalArray<double>>(
          rt_, 6 * (se - sb), arch::MemClass::kNearShared, "picpvm.part",
          node));
    }
    ckpt::run_chunks(
        rt_, store, spec, cfg_.steps,
        [&](std::uint64_t begin, std::uint64_t end) {
          root.spawn(ntasks_, placement_,
                     [&](pvm::Pvm& vm, int me, int ntasks) {
                       pvm::Group g(vm);
                       Task task(vm, g, cfg_, mirror, tally, history,
                                 *mesh_windows[me], *part_windows[me], me,
                                 ntasks);
                       for (std::uint64_t s = begin; s < end; ++s) {
                         task.step(s);
                       }
                       task.gather_to_mirror();
                     });
        });
  } else {
    // With ckpt_interval set the run is survivable: tasks subscribe to
    // failure notification, ship their slices to rank 0 for a coordinated
    // capture every K steps, and recover from a CPU fail-stop by shrinking
    // the group, rolling back to the last epoch and redistributing the work.
    const unsigned kk = cfg_.ckpt_interval;
    const bool recover = kk > 0;
    if (recover) root.set_fail_stop_kill(true);
    root.spawn(ntasks_, placement_, [&](pvm::Pvm& vm, int me, int ntasks) {
      rt::Runtime& rt = vm.runtime();
      const unsigned my_node = rt.topo().node_of_cpu(rt.cpu());
      if (recover) vm.notify(-1);
      pvm::Group g(vm);
      const auto [pb, pe] = split(np, static_cast<unsigned>(ntasks),
                                  static_cast<unsigned>(me));
      rt::GlobalArray<double> mesh_window(
          rt, 4 * nc, arch::MemClass::kNearShared, "picpvm.mesh", my_node);
      // Under recovery a survivor's slice grows after a shrink, so the
      // charged particle window is sized for the whole population up front.
      rt::GlobalArray<double> part_window(
          rt, 6 * (recover ? np : pe - pb), arch::MemClass::kNearShared,
          "picpvm.part", my_node);
      Task task(vm, g, cfg_, mirror, tally, history, mesh_window, part_window,
                me, ntasks);
      std::uint64_t step = 0;
      for (bool finished = false; !finished;) {
        try {
          for (; step < cfg_.steps; ++step) {
            // Replays re-capture the epochs they pass through; the snapshot
            // is overwritten with identical (post-shrink: equivalent) state,
            // which keeps the replay's traffic pattern the same as the
            // original run's.
            if (recover && step % kk == 0) {
              task.gather_to_mirror();
              if (task.rank == 0) store.capture(step);
            }
            task.step(step);
          }
          if (recover) task.await_completion();
          finished = true;
        } catch (const pvm::TaskFailedError&) {
          if (!recover) throw;
          step = task.rejoin(store);
        }
      }
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
