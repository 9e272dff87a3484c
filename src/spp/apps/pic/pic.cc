#include "spp/apps/pic/pic.h"

#include <cassert>
#include <numbers>

#include "spp/ckpt/loop.h"
#include "spp/fft/fft.h"
#include "spp/rt/loops.h"

namespace spp::pic {

constexpr double kReduceFlopsPerTerm = 1;  // the charge combine's adds.

double flops_per_step(const PicConfig& cfg) {
  const double np = static_cast<double>(cfg.particles());
  const double nc = static_cast<double>(cfg.cells());
  return np * (kDepositFlops + kPushFlops) + nc * kFieldFlopsPerCell +
         2.0 * fft::flops_3d(cfg.nx, cfg.ny, cfg.nz);
}

void fill_beam_plasma(const PicConfig& cfg, double* x, double* y, double* z,
                      double* vx, double* vy, double* vz) {
  sim::Rng rng(cfg.seed);
  std::size_t p = 0;
  for (std::size_t iz = 0; iz < cfg.nz; ++iz) {
    for (std::size_t iy = 0; iy < cfg.ny; ++iy) {
      for (std::size_t ix = 0; ix < cfg.nx; ++ix) {
        for (unsigned k = 0; k < cfg.plasma_per_cell + cfg.beam_per_cell;
             ++k, ++p) {
          x[p] = static_cast<double>(ix) + rng.next_double();
          y[p] = static_cast<double>(iy) + rng.next_double();
          z[p] = static_cast<double>(iz) + rng.next_double();
          if (k < cfg.plasma_per_cell) {
            vx[p] = rng.gaussian(0, cfg.vth);
            vy[p] = rng.gaussian(0, cfg.vth);
            vz[p] = rng.gaussian(0, cfg.vth);
          } else {
            vx[p] = vy[p] = 0;
            vz[p] = cfg.beam_velocity * cfg.vth;
          }
        }
      }
    }
  }
  assert(p == cfg.particles());
}

std::complex<double> poisson_mode(const PicConfig& cfg, std::size_t c,
                                  std::complex<double> rho_hat) {
  const std::size_t x = c % cfg.nx;
  const std::size_t y = (c / cfg.nx) % cfg.ny;
  const std::size_t z = c / (cfg.nx * cfg.ny);
  const double sx = std::sin(std::numbers::pi * static_cast<double>(x) /
                             static_cast<double>(cfg.nx));
  const double sy = std::sin(std::numbers::pi * static_cast<double>(y) /
                             static_cast<double>(cfg.ny));
  const double sz = std::sin(std::numbers::pi * static_cast<double>(z) /
                             static_cast<double>(cfg.nz));
  const double k2 = 4.0 * (sx * sx + sy * sy + sz * sz);
  return (k2 > 0) ? rho_hat / k2 : std::complex<double>(0, 0);
}

PicShared::PicShared(rt::Runtime& rt, const PicConfig& cfg, unsigned nthreads,
                     rt::Placement placement)
    : rt_(rt), cfg_(cfg), nthreads_(nthreads), placement_(placement) {
  assert(fft::is_pow2(cfg.nx) && fft::is_pow2(cfg.ny) && fft::is_pow2(cfg.nz));
  const std::size_t np = cfg.particles();
  const std::size_t nc = cfg.cells();
  using rt::GlobalArray;
  using arch::MemClass;

  // Thread-slab-aligned BlockShared placement: block t of each array is the
  // slab thread t owns, and blocks round-robin over hypernodes exactly as
  // kUniform placement deals threads, so a thread's own slab is node-local.
  // (The 1995 system's block-shared mode was not yet operational -- section
  // 6 calls its absence a limitation "limiting control of memory locality";
  // this is the coding it would have enabled.)
  auto round_page = [](std::uint64_t b) {
    return (b + arch::kPageBytes - 1) / arch::kPageBytes * arch::kPageBytes;
  };
  auto barr = [&](const char* label, std::size_t n) {
    const std::uint64_t block = round_page(
        (n + nthreads_ - 1) / nthreads_ * sizeof(double));
    return std::make_unique<GlobalArray<double>>(
        rt_, n, MemClass::kBlockShared, label, 0, block);
  };
  px_ = barr("pic.px", np);
  py_ = barr("pic.py", np);
  pz_ = barr("pic.pz", np);
  vx_ = barr("pic.vx", np);
  vy_ = barr("pic.vy", np);
  vz_ = barr("pic.vz", np);
  rho_ = barr("pic.rho", nc);
  ex_ = barr("pic.ex", nc);
  ey_ = barr("pic.ey", nc);
  ez_ = barr("pic.ez", nc);
  // Per-THREAD deposit staging, combined by a binary reduction tree.  The
  // paper's tuning advice ("making scalar variables thread private to
  // eliminate cache thrashing") applies doubly to scatter-add targets: a
  // private slice stays Modified in its owner's cache, so the deposit pays
  // no coherence traffic at all; only the log2(n) combine rounds move data.
  stage_ = std::make_unique<GlobalArray<double>>(
      rt_, nc * nthreads_, MemClass::kBlockShared, "pic.stage", 0,
      std::max<std::uint64_t>(arch::kPageBytes, nc * sizeof(double)));
  phik_ = std::make_unique<GlobalArray<std::complex<double>>>(
      rt_, nc, MemClass::kBlockShared, "pic.phik", 0,
      round_page((nc + nthreads_ - 1) / nthreads_ *
                 sizeof(std::complex<double>)));
  work_.resize(nc);
  barrier_ = std::make_unique<rt::Barrier>(rt_, nthreads_);
  fill_beam_plasma(cfg_, &px_->raw(0), &py_->raw(0), &pz_->raw(0),
                   &vx_->raw(0), &vy_->raw(0), &vz_->raw(0));
}

void PicShared::deposit(unsigned tid, unsigned nthreads) {
  const auto [pb, pe] = rt::block_range(cfg_.particles(), nthreads, tid);
  const std::size_t nc = cfg_.cells();
  const std::size_t base = tid * nc;

  // Clear this thread's private slice (stays Modified in our cache).
  for (std::size_t c = 0; c < nc; ++c) stage_->raw(base + c) = 0.0;
  stage_->touch_range(base, nc, /*write=*/true);

  const double qe = -1.0;  // electron charge in normalized units.
  for (std::size_t p = pb; p < pe; ++p) {
    // Read the particle position (the paper's 11-word record spans lines;
    // charging x/y/z individually reproduces that traffic).
    const double x = px_->read(p);
    const double y = py_->read(p);
    const double z = pz_->read(p);
    const Cic st = cic_stencil(cfg_, x, y, z);
    for (int k = 0; k < 8; ++k) {
      stage_->accumulate(base + st.cell[k], qe * st.w[k]);
    }
    rt_.work_flops(kDepositFlops);
  }
}

void PicShared::reduce_charge(unsigned tid, unsigned nthreads) {
  const std::size_t nc = cfg_.cells();
  // Binary combine tree over the private slices, paired in locality order
  // (threads sorted by hypernode) so that only the final round crosses
  // hypernodes and each round streams one slice per fold.
  std::vector<unsigned> perm(nthreads);
  for (unsigned t = 0; t < nthreads; ++t) perm[t] = t;
  const auto node_of = [&](unsigned t) {
    return rt_.topo().node_of_cpu(rt_.place_cpu(t, nthreads, placement_));
  };
  std::stable_sort(perm.begin(), perm.end(),
                   [&](unsigned a, unsigned b) { return node_of(a) < node_of(b); });
  unsigned my_pos = 0;
  while (perm[my_pos] != tid) ++my_pos;

  for (unsigned r = 1; r < nthreads; r <<= 1) {
    if (my_pos % (2 * r) == 0 && my_pos + r < nthreads) {
      const std::size_t mine = static_cast<std::size_t>(tid) * nc;
      const std::size_t theirs =
          static_cast<std::size_t>(perm[my_pos + r]) * nc;
      for (std::size_t c = 0; c < nc; ++c) {
        stage_->raw(mine + c) += stage_->raw(theirs + c);
      }
      // Streamed: read the partner slice, rewrite our own (cache-resident).
      stage_->touch_range(theirs, nc, /*write=*/false);
      stage_->touch_range(mine, nc, /*write=*/false);
      stage_->touch_range(mine, nc, /*write=*/true);
      rt_.work_flops(kReduceFlopsPerTerm * static_cast<double>(nc));
    }
    barrier_->wait();
  }
  // Publish: cell-range owners copy the root slice (+ neutralizing
  // background) into the shared charge density.
  const std::size_t root = static_cast<std::size_t>(perm[0]) * nc;
  const auto [cb, ce] = rt::block_range(nc, nthreads, tid);
  const double background =
      static_cast<double>(cfg_.plasma_per_cell + cfg_.beam_per_cell);
  for (std::size_t c = cb; c < ce; ++c) {
    rho_->raw(c) = background + stage_->raw(root + c);
  }
  stage_->touch_range(root + cb, ce - cb, /*write=*/false);
  rho_->touch_range(cb, ce - cb, /*write=*/true);
  rt_.work_flops(static_cast<double>(ce - cb));
}

void PicShared::solve_fields(unsigned tid, unsigned nthreads) {
  const std::size_t nx = cfg_.nx, ny = cfg_.ny, nz = cfg_.nz;
  const std::size_t nc = cfg_.cells();
  using fft::Complex;

  // Copy rho into the complex workspace.
  {
    const auto [cb, ce] = rt::block_range(nc, nthreads, tid);
    for (std::size_t c = cb; c < ce; ++c) {
      work_[c] = Complex(rho_->read(c), 0.0);
    }
    phik_->touch_range(cb, ce - cb, /*write=*/true);
  }
  barrier_->wait();

  auto fft_pass = [&](int axis, int sign) {
    // Pencil decomposition along `axis`; threads take contiguous pencil
    // ranges.  Contiguous x-pencils use bulk charging; strided passes charge
    // per element (their lines do not coalesce).
    if (axis == 0) {
      const auto [qb, qe] = rt::block_range(ny * nz, nthreads, tid);
      for (std::size_t q = qb; q < qe; ++q) {
        fft::transform(work_.data() + q * nx, nx, 1, sign);
        phik_->touch_range(q * nx, nx, false);
        phik_->touch_range(q * nx, nx, true);
        rt_.work_flops(fft::flops_1d(nx));
      }
    } else if (axis == 1) {
      const auto [qb, qe] = rt::block_range(nx * nz, nthreads, tid);
      for (std::size_t q = qb; q < qe; ++q) {
        const std::size_t z = q / nx, x = q % nx;
        fft::transform(work_.data() + z * ny * nx + x, ny,
                       static_cast<std::ptrdiff_t>(nx), sign);
        for (std::size_t y = 0; y < ny; ++y) {
          const std::size_t idx = (z * ny + y) * nx + x;
          rt_.read(phik_->vaddr(idx), sizeof(Complex));
          rt_.write(phik_->vaddr(idx), sizeof(Complex));
        }
        rt_.work_flops(fft::flops_1d(ny));
      }
    } else {
      const auto [qb, qe] = rt::block_range(nx * ny, nthreads, tid);
      for (std::size_t q = qb; q < qe; ++q) {
        fft::transform(work_.data() + q, nz,
                       static_cast<std::ptrdiff_t>(nx * ny), sign);
        for (std::size_t z = 0; z < nz; ++z) {
          const std::size_t idx = z * nx * ny + q;
          rt_.read(phik_->vaddr(idx), sizeof(Complex));
          rt_.write(phik_->vaddr(idx), sizeof(Complex));
        }
        rt_.work_flops(fft::flops_1d(nz));
      }
    }
    barrier_->wait();
  };

  // Forward transform of rho.
  fft_pass(0, -1);
  fft_pass(1, -1);
  fft_pass(2, -1);

  // Spectral Poisson solve: phi_hat = rho_hat / k_eff^2 with the
  // finite-difference-consistent eigenvalues (matches the central-difference
  // gradient used below, which keeps the scheme momentum-conserving).
  {
    const auto [cb, ce] = rt::block_range(nc, nthreads, tid);
    for (std::size_t c = cb; c < ce; ++c) {
      work_[c] = poisson_mode(cfg_, c, work_[c]);
      rt_.read(phik_->vaddr(c), sizeof(Complex));
      rt_.write(phik_->vaddr(c), sizeof(Complex));
      rt_.work_flops(kFieldFlopsPerCell * 0.5);
    }
  }
  barrier_->wait();

  // Inverse transform -> phi in work_.real().
  fft_pass(0, +1);
  fft_pass(1, +1);
  fft_pass(2, +1);

  {
    const auto [cb, ce] = rt::block_range(nc, nthreads, tid);
    const double norm = 1.0 / static_cast<double>(nc);
    for (std::size_t c = cb; c < ce; ++c) work_[c] *= norm;
  }
  barrier_->wait();

  // E = -grad(phi), central differences, periodic.
  {
    const auto [cb, ce] = rt::block_range(nc, nthreads, tid);
    auto phi = [&](std::size_t ix, std::size_t iy, std::size_t iz) {
      const std::size_t idx = cfg_.cell_index(ix, iy, iz);
      rt_.read(phik_->vaddr(idx), sizeof(Complex));
      return work_[idx].real();
    };
    for (std::size_t c = cb; c < ce; ++c) {
      const std::size_t x = c % nx;
      const std::size_t y = (c / nx) % ny;
      const std::size_t z = c / (nx * ny);
      const std::size_t xm = (x + nx - 1) % nx, xp = (x + 1) % nx;
      const std::size_t ym = (y + ny - 1) % ny, yp = (y + 1) % ny;
      const std::size_t zm = (z + nz - 1) % nz, zp = (z + 1) % nz;
      ex_->write(c, -0.5 * (phi(xp, y, z) - phi(xm, y, z)));
      ey_->write(c, -0.5 * (phi(x, yp, z) - phi(x, ym, z)));
      ez_->write(c, -0.5 * (phi(x, y, zp) - phi(x, y, zm)));
      rt_.work_flops(kFieldFlopsPerCell * 0.5);
    }
  }
  barrier_->wait();
}

void PicShared::gather_push(unsigned tid, unsigned nthreads) {
  const auto [pb, pe] = rt::block_range(cfg_.particles(), nthreads, tid);
  for (std::size_t p = pb; p < pe; ++p) {
    double x = px_->read(p);
    double y = py_->read(p);
    double z = pz_->read(p);
    const Cic st = cic_stencil(cfg_, x, y, z);
    double e[3] = {0, 0, 0};
    for (int k = 0; k < 8; ++k) {
      e[0] += st.w[k] * ex_->read(st.cell[k]);
      e[1] += st.w[k] * ey_->read(st.cell[k]);
      e[2] += st.w[k] * ez_->read(st.cell[k]);
    }
    double vx = vx_->read(p);
    double vy = vy_->read(p);
    double vz = vz_->read(p);
    leapfrog(cfg_, e, x, y, z, vx, vy, vz);
    vx_->write(p, vx);
    vy_->write(p, vy);
    vz_->write(p, vz);
    px_->write(p, x);
    py_->write(p, y);
    pz_->write(p, z);
    rt_.work_flops(kPushFlops);
  }
}

PicDiagnostics PicShared::diagnostics() const {
  PicDiagnostics d;
  for (std::size_t p = 0; p < cfg_.particles(); ++p) {
    const double vxp = vx_->raw(p), vyp = vy_->raw(p), vzp = vz_->raw(p);
    d.kinetic_energy += 0.5 * (vxp * vxp + vyp * vyp + vzp * vzp);
    d.momentum_z += vzp;
  }
  for (std::size_t c = 0; c < cfg_.cells(); ++c) {
    d.total_charge += rho_->raw(c);
    const double exc = ex_->raw(c), eyc = ey_->raw(c), ezc = ez_->raw(c);
    d.field_energy += 0.5 * (exc * exc + eyc * eyc + ezc * ezc);
  }
  return d;
}

void PicShared::step(unsigned tid, unsigned nthreads, std::uint64_t s) {
  sim::Time p0 = rt_.now();
  deposit(tid, nthreads);
  barrier_->wait();
  if (tid == 0) tally_.phase_time[0] += rt_.now() - p0, p0 = rt_.now();
  reduce_charge(tid, nthreads);
  barrier_->wait();
  if (tid == 0) tally_.phase_time[1] += rt_.now() - p0, p0 = rt_.now();
  solve_fields(tid, nthreads);
  if (tid == 0) tally_.phase_time[2] += rt_.now() - p0, p0 = rt_.now();
  gather_push(tid, nthreads);
  barrier_->wait();
  if (tid == 0) tally_.phase_time[3] += rt_.now() - p0;
  if (tid == 0) {
    const PicDiagnostics d = diagnostics();
    history_[s] = d.field_energy;
    tally_.history_count = s + 1;
    if (s == 0) tally_.initial = d;
  }
  barrier_->wait();
}

PicResult PicShared::run(const ckpt::DurableSpec& spec) {
  PicResult res;
  rt_.machine().reset_stats();
  const sim::Time t0 = rt_.now();
  tally_ = {};
  history_.assign(cfg_.steps, 0.0);

  // The particle arrays carry all step-to-step state (rho and the fields
  // are rebuilt every step), so an epoch of them is enough to resume from
  // disk, bit-exactly.  A resumed run must also report the same result, so
  // the durable epochs carry the tally and history too.
  ckpt::Store store(rt_);
  store.registrar().add("pic.px", *px_);
  store.registrar().add("pic.py", *py_);
  store.registrar().add("pic.pz", *pz_);
  store.registrar().add("pic.vx", *vx_);
  store.registrar().add("pic.vy", *vy_);
  store.registrar().add("pic.vz", *vz_);
  if (spec.enabled()) {
    store.registrar().add_pod("pic.tally", tally_);
    store.registrar().add_host("pic.history", history_);
  }
  ckpt::run_steps(rt_, nthreads_, placement_, store, spec, cfg_.steps,
                  [&](unsigned tid, unsigned n, std::uint64_t s) {
                    step(tid, n, s);
                  });

  res.sim_time = rt_.now() - t0;
  res.final = diagnostics();
  const auto total = rt_.machine().perf().total();
  res.flops = total.flops;
  res.mflops = res.flops / (sim::to_seconds(res.sim_time) * 1e6);
  for (int i = 0; i < 4; ++i) res.phase_time[i] = tally_.phase_time[i];
  res.initial = tally_.initial;
  res.field_energy_history.assign(
      history_.begin(),
      history_.begin() + static_cast<std::ptrdiff_t>(tally_.history_count));
  return res;
}

}  // namespace spp::pic
