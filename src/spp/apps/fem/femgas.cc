#include "spp/apps/fem/femgas.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "spp/ckpt/loop.h"

namespace spp::fem {

namespace {

std::pair<std::size_t, std::size_t> split(std::size_t n, unsigned parts,
                                          unsigned p) {
  const std::size_t base = n / parts, rem = n % parts;
  const std::size_t begin = p * base + std::min<std::size_t>(p, rem);
  return {begin, begin + base + (p < rem ? 1 : 0)};
}

struct Prim {
  double rho, vx, vy, p;
};

Prim primitives(const std::array<double, 4>& u, double gamma) {
  Prim w;
  w.rho = u[0];
  w.vx = u[1] / u[0];
  w.vy = u[2] / u[0];
  w.p = (gamma - 1.0) * (u[3] - 0.5 * u[0] * (w.vx * w.vx + w.vy * w.vy));
  return w;
}

void fluxes(const std::array<double, 4>& u, double gamma,
            std::array<double, 4>& fx, std::array<double, 4>& fy) {
  const Prim w = primitives(u, gamma);
  fx = {u[1], u[1] * w.vx + w.p, u[2] * w.vx, (u[3] + w.p) * w.vx};
  fy = {u[2], u[1] * w.vy, u[2] * w.vy + w.p, (u[3] + w.p) * w.vy};
}

}  // namespace

FemGas::FemGas(rt::Runtime& rt, const FemConfig& cfg, unsigned nthreads,
               rt::Placement placement)
    : rt_(rt),
      cfg_(cfg),
      nthreads_(nthreads),
      placement_(placement),
      mesh_(make_periodic_tri_mesh(cfg.nx, cfg.ny, cfg.morton)) {
  using arch::MemClass;
  const std::size_t np = mesh_.num_points();
  const std::size_t ne = mesh_.num_elements();

  u_ = std::make_unique<rt::GlobalArray<double>>(rt_, 4 * np,
                                                 MemClass::kFarShared, "fem.u");
  uold_ = std::make_unique<rt::GlobalArray<double>>(
      rt_, 4 * np, MemClass::kFarShared, "fem.uold");
  res_ = std::make_unique<rt::GlobalArray<double>>(
      rt_, 12 * ne, MemClass::kFarShared, "fem.res");
  conn_ = std::make_unique<rt::GlobalArray<std::int32_t>>(
      rt_, 3 * ne, MemClass::kFarShared, "fem.conn");
  // Adjacency entries encode 3*element + vertex_slot so the point phase
  // knows which residual slot to gather.
  p2e_ = std::make_unique<rt::GlobalArray<std::int32_t>>(
      rt_, mesh_.p2e.size(), MemClass::kFarShared, "fem.p2e");
  reduce_ = std::make_unique<rt::GlobalArray<double>>(
      rt_, nthreads_, MemClass::kNearShared, "fem.reduce");
  barrier_ = std::make_unique<rt::Barrier>(rt_, nthreads_);

  for (std::size_t e = 0; e < ne; ++e) {
    for (int k = 0; k < 3; ++k) conn_->raw(3 * e + k) = mesh_.tri[e][k];
  }
  std::vector<std::int32_t> cursor(np, 0);
  for (std::size_t p = 0; p < np; ++p) cursor[p] = mesh_.p2e_off[p];
  for (std::size_t e = 0; e < ne; ++e) {
    for (int k = 0; k < 3; ++k) {
      const std::int32_t p = mesh_.tri[e][k];
      p2e_->raw(cursor[p]++) = static_cast<std::int32_t>(3 * e + k);
    }
  }
  init_uniform(1.0, 0.0, 0.0, 1.0);
}

void FemGas::init_uniform(double rho, double ux, double uy, double pressure) {
  const double gamma = cfg_.gamma;
  const double e = pressure / (gamma - 1.0) + 0.5 * rho * (ux * ux + uy * uy);
  for (std::size_t p = 0; p < mesh_.num_points(); ++p) {
    u_->raw(4 * p + 0) = rho;
    u_->raw(4 * p + 1) = rho * ux;
    u_->raw(4 * p + 2) = rho * uy;
    u_->raw(4 * p + 3) = e;
  }
}

void FemGas::init_blast(double p_peak, double radius) {
  init_uniform(1.0, 0.0, 0.0, 0.1);
  const double cx = cfg_.nx / 2.0, cy = cfg_.ny / 2.0;
  for (std::size_t p = 0; p < mesh_.num_points(); ++p) {
    const double dx = mesh_.x[p] - cx, dy = mesh_.y[p] - cy;
    const double r2 = (dx * dx + dy * dy) / (radius * radius);
    const double pr = 0.1 + p_peak * std::exp(-r2);
    u_->raw(4 * p + 3) = pr / (cfg_.gamma - 1.0);
  }
}

std::array<double, 4> FemGas::state(std::size_t p) const {
  return {u_->raw(4 * p), u_->raw(4 * p + 1), u_->raw(4 * p + 2),
          u_->raw(4 * p + 3)};
}

double FemGas::wave_speed_phase(unsigned tid, unsigned nthreads) {
  const auto [pb, pe] = split(mesh_.num_points(), nthreads, tid);
  double lmax = 1e-12;
  for (std::size_t p = pb; p < pe; ++p) {
    std::array<double, 4> u;
    for (int c = 0; c < 4; ++c) u[c] = u_->read(4 * p + c);
    const Prim w = primitives(u, cfg_.gamma);
    const double cs = std::sqrt(cfg_.gamma * std::max(w.p, 1e-12) / w.rho);
    lmax = std::max(lmax, std::hypot(w.vx, w.vy) + cs);
    rt_.work_flops(14);
  }
  // Class-1 global communication: max reduction through shared memory.
  reduce_->write(tid, lmax);
  barrier_->wait();
  if (tid == 0) {
    double gmax = 0;
    for (unsigned t = 0; t < nthreads; ++t) {
      gmax = std::max(gmax, reduce_->read(t));
    }
    dt_ = cfg_.cfl * 1.0 / gmax;  // unit mesh spacing.
  }
  barrier_->wait();
  return dt_;
}

std::array<double, 4> FemGas::element_residual(std::size_t e, int k,
                                               bool charged,
                                               bool from_old) const {
  const rt::GlobalArray<double>& src = from_old ? *uold_ : *u_;
  std::array<std::array<double, 4>, 3> uv;
  for (int v = 0; v < 3; ++v) {
    const std::int32_t p =
        charged ? conn_->read(3 * e + v) : conn_->raw(3 * e + v);
    for (int c = 0; c < 4; ++c) {
      uv[v][c] = charged ? src.read(4 * static_cast<std::size_t>(p) + c)
                         : src.raw(4 * static_cast<std::size_t>(p) + c);
    }
  }
  std::array<double, 4> ubar;
  for (int c = 0; c < 4; ++c) {
    ubar[c] = (uv[0][c] + uv[1][c] + uv[2][c]) / 3.0;
  }
  std::array<double, 4> fx, fy;
  fluxes(ubar, cfg_.gamma, fx, fy);
  const Prim w = primitives(ubar, cfg_.gamma);
  const double cs = std::sqrt(cfg_.gamma * std::max(w.p, 1e-12) / w.rho);
  const double lam = std::hypot(w.vx, w.vy) + cs;
  const double h = std::sqrt(mesh_.area[e]);
  // Rusanov coefficient: full |lambda|-scaled diffusion keeps strong blasts
  // positive at CFL <= ~0.4 (first-order scheme).
  const double nu = 1.3 * lam * h;

  std::array<double, 4> r;
  const double a = mesh_.area[e];
  for (int c = 0; c < 4; ++c) {
    r[c] = -a * (fx[c] * mesh_.bx[e][k] + fy[c] * mesh_.by[e][k]) +
           nu * (ubar[c] - uv[k][c]) / 3.0 * h;
  }
  if (charged) rt_.work_flops(kFlopsPerElementUpdate / 3.0);
  return r;
}

void FemGas::element_phase(unsigned tid, unsigned nthreads) {
  const auto [eb, ee] = split(mesh_.num_elements(), nthreads, tid);
  for (std::size_t e = eb; e < ee; ++e) {
    for (int k = 0; k < 3; ++k) {
      const auto r = element_residual(e, k, /*charged=*/true);
      for (int c = 0; c < 4; ++c) {
        res_->raw(12 * e + 4 * k + c) = r[c];
      }
      rt_.write(res_->vaddr(12 * e + 4 * k), 4 * sizeof(double));
    }
  }
}

void FemGas::copy_state_phase(unsigned tid, unsigned nthreads) {
  const auto [pb, pe] = split(mesh_.num_points(), nthreads, tid);
  for (std::size_t p = pb; p < pe; ++p) {
    for (int c = 0; c < 4; ++c) uold_->raw(4 * p + c) = u_->raw(4 * p + c);
  }
  u_->touch_range(4 * pb, 4 * (pe - pb), false);
  uold_->touch_range(4 * pb, 4 * (pe - pb), true);
}

void FemGas::point_phase(unsigned tid, unsigned nthreads, double dt) {
  const auto [pb, pe] = split(mesh_.num_points(), nthreads, tid);
  for (std::size_t p = pb; p < pe; ++p) {
    std::array<double, 4> acc{0, 0, 0, 0};
    const std::int32_t lo = mesh_.p2e_off[p], hi = mesh_.p2e_off[p + 1];
    for (std::int32_t a = lo; a < hi; ++a) {
      const std::int32_t enc = p2e_->read(a);  // class-3 aggregation gather.
      const std::size_t e = static_cast<std::size_t>(enc) / 3;
      const int k = static_cast<int>(enc % 3);
      if (cfg_.coding == Coding::kStoreResiduals) {
        rt_.read(res_->vaddr(12 * e + 4 * k), 4 * sizeof(double));
        for (int c = 0; c < 4; ++c) acc[c] += res_->raw(12 * e + 4 * k + c);
        rt_.work_flops(4);
      } else {
        const auto r =
            element_residual(e, k, /*charged=*/true, /*from_old=*/true);
        for (int c = 0; c < 4; ++c) acc[c] += r[c];
        rt_.work_flops(4);
      }
    }
    const double scale = dt / mesh_.lumped_mass[p];
    for (int c = 0; c < 4; ++c) {
      const double now = u_->read(4 * p + c);
      u_->write(4 * p + c, now + scale * acc[c]);
    }
    rt_.work_flops(9);
  }
}

FemDiagnostics FemGas::diagnostics() const {
  FemDiagnostics d;
  d.min_density = std::numeric_limits<double>::infinity();
  d.min_pressure = std::numeric_limits<double>::infinity();
  for (std::size_t p = 0; p < mesh_.num_points(); ++p) {
    const double m = mesh_.lumped_mass[p];
    const auto u = state(p);
    d.total_mass += m * u[0];
    d.total_mom_x += m * u[1];
    d.total_mom_y += m * u[2];
    d.total_energy += m * u[3];
    const Prim w = primitives(u, cfg_.gamma);
    d.min_density = std::min(d.min_density, w.rho);
    d.min_pressure = std::min(d.min_pressure, w.p);
  }
  return d;
}

void FemGas::step(unsigned tid, unsigned nthreads) {
  const double dt = wave_speed_phase(tid, nthreads);
  if (cfg_.coding == Coding::kStoreResiduals) {
    element_phase(tid, nthreads);
  } else {
    copy_state_phase(tid, nthreads);
  }
  barrier_->wait();
  point_phase(tid, nthreads, dt);
  barrier_->wait();
}

FemResult FemGas::run(const ckpt::DurableSpec& spec) {
  FemResult res;
  res.initial = diagnostics();
  rt_.machine().reset_stats();
  const sim::Time t0 = rt_.now();

  // The point state u_ is the only step-to-step state (dt_ and the residual
  // scratch are recomputed every step), so an epoch of it is enough both to
  // replay from after a fail-stop and to resume from disk, bit-exactly.
  ckpt::Store store(rt_);
  store.registrar().add("fem.u", *u_);
  ckpt::run_steps(rt_, nthreads_, placement_, *barrier_, store,
                  cfg_.ckpt_interval, spec, cfg_.steps,
                  [&](unsigned tid, unsigned n, std::uint64_t) {
                    step(tid, n);
                  });

  res.sim_time = rt_.now() - t0;
  const auto total = rt_.machine().perf().total();
  res.flops = total.flops;
  res.point_updates =
      static_cast<double>(mesh_.num_points()) * cfg_.steps;
  res.updates_per_usec = res.point_updates / sim::to_usec(res.sim_time);
  // The paper's "useful Mflop/s": minimal serial flops per point update
  // divided by wall time, regardless of coding.
  res.mflops = res.point_updates * kFlopsPerPointUpdate /
               (sim::to_seconds(res.sim_time) * 1e6);
  res.final = diagnostics();
  return res;
}

}  // namespace spp::fem
