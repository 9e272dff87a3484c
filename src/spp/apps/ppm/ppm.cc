#include "spp/apps/ppm/ppm.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "spp/ckpt/loop.h"

namespace spp::ppm {

namespace {

std::pair<std::size_t, std::size_t> split(std::size_t n, unsigned parts,
                                          unsigned p) {
  const std::size_t base = n / parts, rem = n % parts;
  const std::size_t begin = p * base + std::min<std::size_t>(p, rem);
  return {begin, begin + base + (p < rem ? 1 : 0)};
}

constexpr double kRhoFloor = 1e-10;
constexpr double kPFloor = 1e-12;

/// PPM edge values + Colella-Woodward monotonization for one variable.
/// `v` has length L; writes parabola edges vl/vr for cells [2, L-2).
void reconstruct(const std::vector<double>& v, std::vector<double>& vl,
                 std::vector<double>& vr) {
  const std::size_t L = v.size();
  // Scratch, fully reassigned on entry; this function is pure numeric (no rt
  // calls), so no conductor hand-off can run while it holds live state.
  // spp-lint: allow(sim-no-host-thread): per-host-thread scratch, reinitialized before use
  static thread_local std::vector<double> iface;
  iface.assign(L, 0.0);
  for (std::size_t k = 2; k + 1 < L; ++k) {
    // Fourth-order interface value at k-1/2.
    iface[k] = (7.0 * (v[k - 1] + v[k]) - (v[k - 2] + v[k + 1])) / 12.0;
  }
  for (std::size_t k = 2; k + 2 < L; ++k) {
    double l = iface[k], r = iface[k + 1];
    const double c = v[k];
    if ((r - c) * (c - l) <= 0.0) {
      l = r = c;  // local extremum: flatten
    } else {
      const double d = r - l;
      const double s = d * (c - 0.5 * (l + r));
      if (s > d * d / 6.0) l = 3.0 * c - 2.0 * r;
      if (-d * d / 6.0 > s) r = 3.0 * c - 2.0 * l;
    }
    vl[k] = l;
    vr[k] = r;
  }
}

}  // namespace

PpmTiled::PpmTiled(rt::Runtime& rt, const PpmConfig& cfg, unsigned nprocs,
                   rt::Placement placement)
    : rt_(rt), cfg_(cfg), nprocs_(nprocs), placement_(placement) {
  if (cfg.nx / cfg.tiles_x < kGhost || cfg.ny / cfg.tiles_y < kGhost) {
    throw std::invalid_argument("ppm: tiles smaller than the ghost frame");
  }
  tiles_.resize(cfg.tiles());
  for (unsigned ty = 0; ty < cfg.tiles_y; ++ty) {
    for (unsigned tx = 0; tx < cfg.tiles_x; ++tx) {
      Tile& t = tile_at(tx, ty);
      const auto [x0, x1] = split(cfg.nx, cfg.tiles_x, tx);
      const auto [y0, y1] = split(cfg.ny, cfg.tiles_y, ty);
      t.gx0 = x0;
      t.gy0 = y0;
      t.w = x1 - x0;
      t.h = y1 - y0;
      // Tiles dealt round-robin over processors ("each processor is assigned
      // one or more tiles").
      t.owner = (ty * cfg.tiles_x + tx) % nprocs_;
      const unsigned owner_cpu = rt_.place_cpu(t.owner, nprocs_, placement_);
      const unsigned home = rt_.topo().node_of_cpu(owner_cpu);
      t.u = std::make_unique<rt::GlobalArray<double>>(
          rt_, static_cast<std::size_t>(cfg.fields()) * t.rows() * t.stride(),
          arch::MemClass::kNearShared, "ppm.tile", home);
    }
  }
  reduce_ = std::make_unique<rt::GlobalArray<double>>(
      rt_, nprocs_, arch::MemClass::kNearShared, "ppm.reduce");
  barrier_ = std::make_unique<rt::Barrier>(rt_, nprocs_);
  init_uniform(1.0, 0.0, 0.0, 1.0);
}

const PpmTiled::Tile& PpmTiled::locate(std::size_t i, std::size_t j,
                                       std::size_t& li,
                                       std::size_t& lj) const {
  // Uniform-ish split: scan (tile counts are small).
  for (const Tile& t : tiles_) {
    if (i >= t.gx0 && i < t.gx0 + t.w && j >= t.gy0 && j < t.gy0 + t.h) {
      li = i - t.gx0 + kGhost;
      lj = j - t.gy0 + kGhost;
      return t;
    }
  }
  throw std::logic_error("ppm: zone not found");
}

void PpmTiled::init_uniform(double rho, double ux, double uy, double p) {
  const double e = p / (cfg_.gamma - 1.0) + 0.5 * rho * (ux * ux + uy * uy);
  for (Tile& t : tiles_) {
    for (std::size_t j = 0; j < t.rows(); ++j) {
      for (std::size_t i = 0; i < t.stride(); ++i) {
        t.u->raw(t.at(0, i, j)) = rho;
        t.u->raw(t.at(1, i, j)) = rho * ux;
        t.u->raw(t.at(2, i, j)) = rho * uy;
        t.u->raw(t.at(3, i, j)) = e;
      }
    }
  }
}

void PpmTiled::init_sod_x() {
  for (Tile& t : tiles_) {
    for (std::size_t j = 0; j < t.rows(); ++j) {
      for (std::size_t i = 0; i < t.stride(); ++i) {
        const std::size_t gi =
            std::min(t.gx0 + (i >= kGhost ? i - kGhost : 0), cfg_.nx - 1);
        const bool left = gi < cfg_.nx / 2;
        const double rho = left ? 1.0 : 0.125;
        const double p = left ? 1.0 : 0.1;
        t.u->raw(t.at(0, i, j)) = rho;
        t.u->raw(t.at(1, i, j)) = 0.0;
        t.u->raw(t.at(2, i, j)) = 0.0;
        t.u->raw(t.at(3, i, j)) = p / (cfg_.gamma - 1.0);
      }
    }
  }
}

void PpmTiled::init_blast(double p_peak, double radius) {
  init_uniform(1.0, 0.0, 0.0, 0.1);
  const double cx = static_cast<double>(cfg_.nx) / 2.0, cy = static_cast<double>(cfg_.ny) / 2.0;
  for (Tile& t : tiles_) {
    for (std::size_t j = kGhost; j < t.h + kGhost; ++j) {
      for (std::size_t i = kGhost; i < t.w + kGhost; ++i) {
        const double gx = static_cast<double>(t.gx0 + i - kGhost) + 0.5;
        const double gy = static_cast<double>(t.gy0 + j - kGhost) + 0.5;
        const double r2 = ((gx - cx) * (gx - cx) + (gy - cy) * (gy - cy)) /
                          (radius * radius);
        const double p = 0.1 + p_peak * std::exp(-r2);
        t.u->raw(t.at(3, i, j)) = p / (cfg_.gamma - 1.0);
      }
    }
  }
}

std::array<double, 4> PpmTiled::zone(std::size_t i, std::size_t j) const {
  std::size_t li, lj;
  const Tile& t = locate(i, j, li, lj);
  return {t.u->raw(t.at(0, li, lj)), t.u->raw(t.at(1, li, lj)),
          t.u->raw(t.at(2, li, lj)), t.u->raw(t.at(3, li, lj))};
}

double PpmTiled::species(std::size_t i, std::size_t j, unsigned s) const {
  std::size_t li, lj;
  const Tile& t = locate(i, j, li, lj);
  return t.u->raw(t.at(4 + static_cast<int>(s), li, lj));
}

double PpmTiled::species_mass(unsigned s) const {
  double total = 0;
  for (const Tile& t : tiles_) {
    for (std::size_t j = kGhost; j < t.h + kGhost; ++j) {
      for (std::size_t i = kGhost; i < t.w + kGhost; ++i) {
        total += t.u->raw(t.at(4 + static_cast<int>(s), i, j));
      }
    }
  }
  return total;
}

void PpmTiled::init_two_fluid(double rho, double ux, double p) {
  if (cfg_.nspecies < 2) {
    throw std::logic_error("ppm: init_two_fluid needs nspecies >= 2");
  }
  init_uniform(rho, ux, 0.0, p);
  tag_two_fluids();
}

void PpmTiled::tag_two_fluids() {
  if (cfg_.nspecies < 2) {
    throw std::logic_error("ppm: tag_two_fluids needs nspecies >= 2");
  }
  for (Tile& t : tiles_) {
    for (std::size_t j = 0; j < t.rows(); ++j) {
      for (std::size_t i = 0; i < t.stride(); ++i) {
        const std::size_t gi =
            std::min(t.gx0 + (i >= kGhost ? i - kGhost : 0), cfg_.nx - 1);
        const bool left = gi < cfg_.nx / 2;
        const double rho = t.u->raw(t.at(0, i, j));
        t.u->raw(t.at(4, i, j)) = left ? rho : 0.0;
        t.u->raw(t.at(5, i, j)) = left ? 0.0 : rho;
        for (unsigned sp = 2; sp < cfg_.nspecies; ++sp) {
          t.u->raw(t.at(4 + static_cast<int>(sp), i, j)) = 0.0;
        }
      }
    }
  }
}

double PpmTiled::wave_speed_tile(const Tile& t, bool charged) const {
  double lmax = 1e-12;
  for (std::size_t j = kGhost; j < t.h + kGhost; ++j) {
    for (std::size_t i = kGhost; i < t.w + kGhost; ++i) {
      const double rho = std::max(t.u->raw(t.at(0, i, j)), kRhoFloor);
      const double vx = t.u->raw(t.at(1, i, j)) / rho;
      const double vy = t.u->raw(t.at(2, i, j)) / rho;
      const double e = t.u->raw(t.at(3, i, j));
      const double p = std::max(
          (cfg_.gamma - 1.0) * (e - 0.5 * rho * (vx * vx + vy * vy)), kPFloor);
      const double c = std::sqrt(cfg_.gamma * p / rho);
      lmax = std::max({lmax, std::abs(vx) + c, std::abs(vy) + c});
    }
    if (charged) {
      // One streaming read per field row.
      for (int f = 0; f < 4; ++f) {
        rt_.read(t.u->vaddr(t.at(f, kGhost, j)), t.w * sizeof(double));
      }
    }
  }
  if (charged) {
    rt_.work_flops(12.0 * static_cast<double>(t.w * t.h));
  }
  return lmax;
}

void PpmTiled::exchange_ghosts(const Tile& t) {
  // Fill the whole frame (edges + corners) from the owning tiles.
  const auto nxg = static_cast<std::int64_t>(cfg_.nx);
  const auto nyg = static_cast<std::int64_t>(cfg_.ny);
  for (std::size_t lj = 0; lj < t.rows(); ++lj) {
    for (std::size_t li = 0; li < t.stride(); ++li) {
      const bool interior = li >= kGhost && li < t.w + kGhost &&
                            lj >= kGhost && lj < t.h + kGhost;
      if (interior) continue;
      std::int64_t gi = static_cast<std::int64_t>(t.gx0 + li) -
                        static_cast<std::int64_t>(kGhost);
      std::int64_t gj = static_cast<std::int64_t>(t.gy0 + lj) -
                        static_cast<std::int64_t>(kGhost);
      if (cfg_.bc == Boundary::kPeriodic) {
        gi = (gi % nxg + nxg) % nxg;
        gj = (gj % nyg + nyg) % nyg;
      } else {
        gi = std::clamp<std::int64_t>(gi, 0, nxg - 1);
        gj = std::clamp<std::int64_t>(gj, 0, nyg - 1);
      }
      std::size_t si, sj;
      const Tile& src = locate(static_cast<std::size_t>(gi),
                               static_cast<std::size_t>(gj), si, sj);
      for (int f = 0; f < static_cast<int>(cfg_.fields()); ++f) {
        const double v = src.u->raw(src.at(f, si, sj));
        rt_.read(src.u->vaddr(src.at(f, si, sj)));
        t.u->raw(t.at(f, li, lj)) = v;
        rt_.write(t.u->vaddr(t.at(f, li, lj)));
      }
    }
  }
}

namespace {

/// One directional pencil update.  `cons` holds 4 conserved components
/// (rho, m_norm, m_trans, E) of length L; `species` holds partial densities
/// advected with the contact (possibly empty); updates cells [lo, hi).
void pencil_update(std::array<std::vector<double>, 4>& cons,
                   std::vector<std::vector<double>>& species, double gamma,
                   double dt, std::size_t lo, std::size_t hi) {
  const std::size_t L = cons[0].size();
  // Scratch buffers below are fully reassigned on entry and consumed before
  // return; pencil_update is pure numeric (no rt calls), so no conductor
  // hand-off can interleave another SThread while they hold live state.
  // spp-lint: allow(sim-no-host-thread): per-host-thread scratch, reinitialized before use
  static thread_local std::vector<double> rho, un, ut, pr;
  // spp-lint: allow(sim-no-host-thread): per-host-thread scratch, reinitialized before use
  static thread_local std::array<std::vector<double>, 4> el, er;
  rho.assign(L, 0);
  un.assign(L, 0);
  ut.assign(L, 0);
  pr.assign(L, 0);
  for (std::size_t k = 0; k < L; ++k) {
    const double d = std::max(cons[0][k], kRhoFloor);
    rho[k] = d;
    un[k] = cons[1][k] / d;
    ut[k] = cons[2][k] / d;
    pr[k] = std::max(
        (gamma - 1.0) *
            (cons[3][k] - 0.5 * d * (un[k] * un[k] + ut[k] * ut[k])),
        kPFloor);
  }
  const std::vector<double>* prim[4] = {&rho, &un, &ut, &pr};
  for (int v = 0; v < 4; ++v) {
    el[v].assign(L, 0);
    er[v].assign(L, 0);
    reconstruct(*prim[v], el[v], er[v]);
  }

  // Fluxes at interfaces k+1/2 for k in [lo-1, hi); then difference.
  // spp-lint: allow(sim-no-host-thread): per-host-thread scratch, reinitialized before use
  static thread_local std::vector<std::array<double, 4>> flux;
  flux.assign(L, {0, 0, 0, 0});
  for (std::size_t k = lo - 1; k < hi; ++k) {
    const State sl{std::max(er[0][k], kRhoFloor), er[1][k],
                   std::max(er[3][k], kPFloor)};
    const State sr{std::max(el[0][k + 1], kRhoFloor), el[1][k + 1],
                   std::max(el[3][k + 1], kPFloor)};
    flux[k] = godunov_flux(sl, sr, er[2][k], el[2][k + 1], gamma);
  }
  // Species: partial densities ride the mass flux with upwinded fractions
  // (reconstructed, monotonized).  Because the species fluxes sum to the
  // mass flux when the fractions sum to one, total density stays the sum of
  // partials exactly.
  // spp-lint: allow(sim-no-host-thread): per-host-thread scratch, reinitialized before use
  static thread_local std::vector<double> frac, fl_e, fr_e, sflux;
  for (auto& sp : species) {
    frac.assign(L, 0.0);
    for (std::size_t k = 0; k < L; ++k) frac[k] = sp[k] / rho[k];
    fl_e.assign(L, 0.0);
    fr_e.assign(L, 0.0);
    reconstruct(frac, fl_e, fr_e);
    sflux.assign(L, 0.0);
    for (std::size_t k = lo - 1; k < hi; ++k) {
      const double mass_flux = flux[k][0];
      const double edge_frac = mass_flux >= 0 ? fr_e[k] : fl_e[k + 1];
      sflux[k] = mass_flux * std::clamp(edge_frac, 0.0, 1.0);
    }
    for (std::size_t k = lo; k < hi; ++k) {
      sp[k] -= dt * (sflux[k] - sflux[k - 1]);
    }
  }

  for (std::size_t k = lo; k < hi; ++k) {
    for (int c = 0; c < 4; ++c) {
      cons[c][k] -= dt * (flux[k][c] - flux[k - 1][c]);
    }
  }

  // Consistent multifluid advection (PROMETHEUS-style renormalization):
  // clip negative partial densities and rescale so they sum exactly to the
  // updated total density.  Slight per-species non-conservation near strong
  // gradients, exact positivity and sum-to-rho everywhere.
  if (!species.empty()) {
    for (std::size_t k = lo; k < hi; ++k) {
      double sum = 0;
      for (auto& sp : species) {
        sp[k] = std::max(sp[k], 0.0);
        sum += sp[k];
      }
      const double rho_new = std::max(cons[0][k], kRhoFloor);
      if (sum > 0) {
        const double scale = rho_new / sum;
        for (auto& sp : species) sp[k] *= scale;
      } else {
        species[0][k] = rho_new;
      }
    }
  }
}

}  // namespace

void PpmTiled::sweep_x(Tile& t, double dt) {
  const std::size_t L = t.stride();
  const unsigned ns = cfg_.nspecies;
  std::array<std::vector<double>, 4> cons;
  for (auto& c : cons) c.resize(L);
  std::vector<std::vector<double>> species(ns, std::vector<double>(L));
  for (std::size_t j = 0; j < t.rows(); ++j) {
    // Load the pencil (conserved order: rho, mx, my, E -> normal = x).
    for (std::size_t i = 0; i < L; ++i) {
      cons[0][i] = t.u->raw(t.at(0, i, j));
      cons[1][i] = t.u->raw(t.at(1, i, j));
      cons[2][i] = t.u->raw(t.at(2, i, j));
      cons[3][i] = t.u->raw(t.at(3, i, j));
      for (unsigned sp = 0; sp < ns; ++sp) {
        species[sp][i] = t.u->raw(t.at(4 + static_cast<int>(sp), i, j));
      }
    }
    for (int f = 0; f < static_cast<int>(cfg_.fields()); ++f) {
      rt_.read(t.u->vaddr(t.at(f, 0, j)), L * sizeof(double));
    }
    pencil_update(cons, species, cfg_.gamma, dt, 3, L - 4);
    for (std::size_t i = 3; i < L - 4; ++i) {
      t.u->raw(t.at(0, i, j)) = cons[0][i];
      t.u->raw(t.at(1, i, j)) = cons[1][i];
      t.u->raw(t.at(2, i, j)) = cons[2][i];
      t.u->raw(t.at(3, i, j)) = cons[3][i];
      for (unsigned sp = 0; sp < ns; ++sp) {
        t.u->raw(t.at(4 + static_cast<int>(sp), i, j)) = species[sp][i];
      }
    }
    for (int f = 0; f < static_cast<int>(cfg_.fields()); ++f) {
      rt_.write(t.u->vaddr(t.at(f, 3, j)), (L - 7) * sizeof(double));
    }
    rt_.work_flops((kFlopsPerZoneSweep + 40.0 * ns) *
                   static_cast<double>(L - 7));
  }
}

void PpmTiled::sweep_y(Tile& t, double dt) {
  const std::size_t L = t.rows();
  const unsigned ns = cfg_.nspecies;
  std::array<std::vector<double>, 4> cons;
  for (auto& c : cons) c.resize(L);
  std::vector<std::vector<double>> species(ns, std::vector<double>(L));
  for (std::size_t i = kGhost; i < t.w + kGhost; ++i) {
    // Normal = y: swap momentum components into (rho, m_norm, m_trans, E).
    for (std::size_t j = 0; j < L; ++j) {
      cons[0][j] = t.u->raw(t.at(0, i, j));
      cons[1][j] = t.u->raw(t.at(2, i, j));
      cons[2][j] = t.u->raw(t.at(1, i, j));
      cons[3][j] = t.u->raw(t.at(3, i, j));
      for (unsigned sp = 0; sp < ns; ++sp) {
        species[sp][j] = t.u->raw(t.at(4 + static_cast<int>(sp), i, j));
      }
      for (int f = 0; f < static_cast<int>(cfg_.fields()); ++f) {
        rt_.read(t.u->vaddr(t.at(f, i, j)));
      }
    }
    pencil_update(cons, species, cfg_.gamma, dt, kGhost, t.h + kGhost);
    for (std::size_t j = kGhost; j < t.h + kGhost; ++j) {
      t.u->raw(t.at(0, i, j)) = cons[0][j];
      t.u->raw(t.at(2, i, j)) = cons[1][j];
      t.u->raw(t.at(1, i, j)) = cons[2][j];
      t.u->raw(t.at(3, i, j)) = cons[3][j];
      for (unsigned sp = 0; sp < ns; ++sp) {
        t.u->raw(t.at(4 + static_cast<int>(sp), i, j)) = species[sp][j];
      }
      for (int f = 0; f < static_cast<int>(cfg_.fields()); ++f) {
        rt_.write(t.u->vaddr(t.at(f, i, j)));
      }
    }
    rt_.work_flops((kFlopsPerZoneSweep + 40.0 * ns) *
                   static_cast<double>(t.h));
  }
}

PpmDiagnostics PpmTiled::diagnostics() const {
  PpmDiagnostics d;
  d.min_rho = 1e300;
  d.min_p = 1e300;
  for (const Tile& t : tiles_) {
    for (std::size_t j = kGhost; j < t.h + kGhost; ++j) {
      for (std::size_t i = kGhost; i < t.w + kGhost; ++i) {
        const double rho = t.u->raw(t.at(0, i, j));
        const double mx = t.u->raw(t.at(1, i, j));
        const double my = t.u->raw(t.at(2, i, j));
        const double e = t.u->raw(t.at(3, i, j));
        d.mass += rho;
        d.mom_x += mx;
        d.mom_y += my;
        d.energy += e;
        const double p =
            (cfg_.gamma - 1.0) * (e - 0.5 * (mx * mx + my * my) / rho);
        d.min_rho = std::min(d.min_rho, rho);
        d.min_p = std::min(d.min_p, p);
      }
    }
  }
  return d;
}

void PpmTiled::step(unsigned proc, unsigned nprocs) {
  // Stable time step: local max wave speed, then a global reduction.
  double lmax = 1e-12;
  for (Tile& t : tiles_) {
    if (t.owner == proc) {
      lmax = std::max(lmax, wave_speed_tile(t, /*charged=*/true));
    }
  }
  reduce_->write(proc, lmax);
  barrier_->wait();
  if (proc == 0) {
    double gmax = 0;
    for (unsigned q = 0; q < nprocs; ++q) {
      gmax = std::max(gmax, reduce_->read(q));
    }
    dt_ = cfg_.cfl / gmax;
  }
  barrier_->wait();
  const double dt = dt_;

  // One ghost exchange per step ("the only communication required").
  for (Tile& t : tiles_) {
    if (t.owner == proc) exchange_ghosts(t);
  }
  barrier_->wait();

  for (Tile& t : tiles_) {
    if (t.owner == proc) {
      sweep_x(t, dt);
      sweep_y(t, dt);
    }
  }
  barrier_->wait();
}

PpmResult PpmTiled::run(const ckpt::DurableSpec& spec) {
  PpmResult res;
  res.initial = diagnostics();
  rt_.machine().reset_stats();
  const sim::Time t0 = rt_.now();

  // The tile arrays carry all step-to-step state (ghost frames are refilled
  // and dt_ recomputed every step), so an epoch of them is enough both to
  // replay from after a fail-stop and to resume from disk, bit-exactly.
  ckpt::Store store(rt_);
  for (std::size_t i = 0; i < tiles_.size(); ++i) {
    store.registrar().add("ppm.tile" + std::to_string(i), *tiles_[i].u);
  }
  ckpt::run_steps(rt_, nprocs_, placement_, *barrier_, store,
                  cfg_.ckpt_interval, spec, cfg_.steps,
                  [&](unsigned proc, unsigned n, std::uint64_t) {
                    step(proc, n);
                  });

  res.sim_time = rt_.now() - t0;
  const auto total = rt_.machine().perf().total();
  res.flops = total.flops;
  res.mflops = res.flops / (sim::to_seconds(res.sim_time) * 1e6);
  res.zone_updates = static_cast<double>(cfg_.zones()) * cfg_.steps;
  res.final = diagnostics();
  return res;
}

}  // namespace spp::ppm
