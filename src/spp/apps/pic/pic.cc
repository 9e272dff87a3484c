#include "spp/apps/pic/pic.h"

#include <cassert>
#include <cmath>
#include <numbers>

#include "spp/ckpt/loop.h"
#include "spp/fft/fft.h"

namespace spp::pic {

namespace {

/// Splits [0, n) into `parts` contiguous ranges; returns [begin, end) of `p`.
std::pair<std::size_t, std::size_t> split(std::size_t n, unsigned parts,
                                          unsigned p) {
  const std::size_t base = n / parts, rem = n % parts;
  const std::size_t begin = p * base + std::min<std::size_t>(p, rem);
  return {begin, begin + base + (p < rem ? 1 : 0)};
}

// Flop estimates per kernel, per item (counted once here so charging and the
// C90 comparator agree).
constexpr double kDepositFlops = 33;  // CIC weights + 8 accumulates.
constexpr double kPushFlops = 70;     // gather interpolation + leapfrog.
constexpr double kReduceFlopsPerTerm = 1;
constexpr double kFieldFlopsPerCell = 16;  // spectral divide + gradient.

}  // namespace

double flops_per_step(const PicConfig& cfg) {
  const double np = static_cast<double>(cfg.particles());
  const double nc = static_cast<double>(cfg.cells());
  return np * (kDepositFlops + kPushFlops) + nc * kFieldFlopsPerCell +
         2.0 * fft::flops_3d(cfg.nx, cfg.ny, cfg.nz);
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
  load_particles();
}

void PicShared::load_particles() {
  sim::Rng rng(cfg_.seed);
  std::size_t p = 0;
  for (std::size_t iz = 0; iz < cfg_.nz; ++iz) {
    for (std::size_t iy = 0; iy < cfg_.ny; ++iy) {
      for (std::size_t ix = 0; ix < cfg_.nx; ++ix) {
        for (unsigned k = 0; k < cfg_.plasma_per_cell; ++k, ++p) {
          px_->raw(p) = static_cast<double>(ix) + rng.next_double();
          py_->raw(p) = static_cast<double>(iy) + rng.next_double();
          pz_->raw(p) = static_cast<double>(iz) + rng.next_double();
          vx_->raw(p) = rng.gaussian(0, cfg_.vth);
          vy_->raw(p) = rng.gaussian(0, cfg_.vth);
          vz_->raw(p) = rng.gaussian(0, cfg_.vth);
        }
        for (unsigned k = 0; k < cfg_.beam_per_cell; ++k, ++p) {
          px_->raw(p) = static_cast<double>(ix) + rng.next_double();
          py_->raw(p) = static_cast<double>(iy) + rng.next_double();
          pz_->raw(p) = static_cast<double>(iz) + rng.next_double();
          vx_->raw(p) = 0;
          vy_->raw(p) = 0;
          vz_->raw(p) = cfg_.beam_velocity * cfg_.vth;
        }
      }
    }
  }
  assert(p == cfg_.particles());
}

void PicShared::deposit(unsigned tid, unsigned nthreads) {
  const auto [pb, pe] = split(cfg_.particles(), nthreads, tid);
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
    const auto ix = static_cast<std::size_t>(x);
    const auto iy = static_cast<std::size_t>(y);
    const auto iz = static_cast<std::size_t>(z);
    const double fx = x - static_cast<double>(ix);
    const double fy = y - static_cast<double>(iy);
    const double fz = z - static_cast<double>(iz);
    const std::size_t ix1 = (ix + 1) % cfg_.nx;
    const std::size_t iy1 = (iy + 1) % cfg_.ny;
    const std::size_t iz1 = (iz + 1) % cfg_.nz;
    const double wx[2] = {1 - fx, fx};
    const double wy[2] = {1 - fy, fy};
    const double wz[2] = {1 - fz, fz};
    const std::size_t cx[2] = {ix, ix1}, cy[2] = {iy, iy1}, cz[2] = {iz, iz1};
    for (int a = 0; a < 2; ++a) {
      for (int b = 0; b < 2; ++b) {
        for (int c = 0; c < 2; ++c) {
          stage_->accumulate(base + cell_index(cx[a], cy[b], cz[c]),
                             qe * wx[a] * wy[b] * wz[c]);
        }
      }
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
  const auto [cb, ce] = split(nc, nthreads, tid);
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
    const auto [cb, ce] = split(nc, nthreads, tid);
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
      const auto [qb, qe] = split(ny * nz, nthreads, tid);
      for (std::size_t q = qb; q < qe; ++q) {
        fft::transform(work_.data() + q * nx, nx, 1, sign);
        phik_->touch_range(q * nx, nx, false);
        phik_->touch_range(q * nx, nx, true);
        rt_.work_flops(fft::flops_1d(nx));
      }
    } else if (axis == 1) {
      const auto [qb, qe] = split(nx * nz, nthreads, tid);
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
      const auto [qb, qe] = split(nx * ny, nthreads, tid);
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
    const auto [cb, ce] = split(nc, nthreads, tid);
    const double two_pi = 2.0 * std::numbers::pi;
    for (std::size_t c = cb; c < ce; ++c) {
      const std::size_t x = c % nx;
      const std::size_t y = (c / nx) % ny;
      const std::size_t z = c / (nx * ny);
      const double sx = std::sin(std::numbers::pi * static_cast<double>(x) /
                                 static_cast<double>(nx));
      const double sy = std::sin(std::numbers::pi * static_cast<double>(y) /
                                 static_cast<double>(ny));
      const double sz = std::sin(std::numbers::pi * static_cast<double>(z) /
                                 static_cast<double>(nz));
      const double k2 = 4.0 * (sx * sx + sy * sy + sz * sz);
      work_[c] = (k2 > 0) ? work_[c] / k2 : fft::Complex(0, 0);
      rt_.read(phik_->vaddr(c), sizeof(Complex));
      rt_.write(phik_->vaddr(c), sizeof(Complex));
      rt_.work_flops(kFieldFlopsPerCell * 0.5);
    }
    (void)two_pi;
  }
  barrier_->wait();

  // Inverse transform -> phi in work_.real().
  fft_pass(0, +1);
  fft_pass(1, +1);
  fft_pass(2, +1);

  {
    const auto [cb, ce] = split(nc, nthreads, tid);
    const double norm = 1.0 / static_cast<double>(nc);
    for (std::size_t c = cb; c < ce; ++c) work_[c] *= norm;
  }
  barrier_->wait();

  // E = -grad(phi), central differences, periodic.
  {
    const auto [cb, ce] = split(nc, nthreads, tid);
    auto phi = [&](std::size_t ix, std::size_t iy, std::size_t iz) {
      const std::size_t idx = cell_index(ix, iy, iz);
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
  const auto [pb, pe] = split(cfg_.particles(), nthreads, tid);
  const double qm = -1.0;  // charge/mass for electrons (q=-1, m=1).
  const double dt = cfg_.dt;
  const double lx = static_cast<double>(cfg_.nx);
  const double ly = static_cast<double>(cfg_.ny);
  const double lz = static_cast<double>(cfg_.nz);

  for (std::size_t p = pb; p < pe; ++p) {
    const double x = px_->read(p);
    const double y = py_->read(p);
    const double z = pz_->read(p);
    const auto ix = static_cast<std::size_t>(x);
    const auto iy = static_cast<std::size_t>(y);
    const auto iz = static_cast<std::size_t>(z);
    const double fx = x - static_cast<double>(ix);
    const double fy = y - static_cast<double>(iy);
    const double fz = z - static_cast<double>(iz);
    const std::size_t ix1 = (ix + 1) % cfg_.nx;
    const std::size_t iy1 = (iy + 1) % cfg_.ny;
    const std::size_t iz1 = (iz + 1) % cfg_.nz;
    const double wx[2] = {1 - fx, fx};
    const double wy[2] = {1 - fy, fy};
    const double wz[2] = {1 - fz, fz};
    const std::size_t cx[2] = {ix, ix1}, cy[2] = {iy, iy1}, cz[2] = {iz, iz1};

    double e[3] = {0, 0, 0};
    for (int a = 0; a < 2; ++a) {
      for (int b = 0; b < 2; ++b) {
        for (int c = 0; c < 2; ++c) {
          const double w = wx[a] * wy[b] * wz[c];
          const std::size_t idx = cell_index(cx[a], cy[b], cz[c]);
          e[0] += w * ex_->read(idx);
          e[1] += w * ey_->read(idx);
          e[2] += w * ez_->read(idx);
        }
      }
    }

    // Leapfrog: kick, then drift with periodic wrap.
    double nvx = vx_->read(p) + dt * qm * e[0];
    double nvy = vy_->read(p) + dt * qm * e[1];
    double nvz = vz_->read(p) + dt * qm * e[2];
    double nx_pos = x + dt * nvx;
    double ny_pos = y + dt * nvy;
    double nz_pos = z + dt * nvz;
    nx_pos -= lx * std::floor(nx_pos / lx);
    ny_pos -= ly * std::floor(ny_pos / ly);
    nz_pos -= lz * std::floor(nz_pos / lz);
    // Guard against fp edge landing exactly on the box bound.
    if (nx_pos >= lx) nx_pos = 0;
    if (ny_pos >= ly) ny_pos = 0;
    if (nz_pos >= lz) nz_pos = 0;
    vx_->write(p, nvx);
    vy_->write(p, nvy);
    vz_->write(p, nvz);
    px_->write(p, nx_pos);
    py_->write(p, ny_pos);
    pz_->write(p, nz_pos);
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
  // are rebuilt every step), so an epoch of them is enough both to replay
  // from after a fail-stop and to resume from disk, bit-exactly.  A resumed
  // run must also report the same result, so the durable epochs carry the
  // tally and history too.
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
  ckpt::run_steps(rt_, nthreads_, placement_, *barrier_, store,
                  cfg_.ckpt_interval, spec, cfg_.steps,
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
