#include "spp/apps/nbody/nbody.h"

#include <numbers>

#include "spp/ckpt/loop.h"
#include "spp/rt/loops.h"
#include "spp/sim/rng.h"

namespace spp::nbody {

void fill_plummer(const NbodyConfig& cfg, double* x, double* y, double* z,
                  double* vx, double* vy, double* vz, double* m) {
  sim::Rng rng(cfg.seed);
  const std::size_t n = cfg.n;
  const double mi = 1.0 / static_cast<double>(n);
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
    x[i] = r * st * std::cos(phi);
    y[i] = r * st * std::sin(phi);
    z[i] = r * ct;
    // Isotropic velocities with the local Plummer dispersion (approximate).
    const double sigma = std::sqrt(1.0 / (6.0 * std::sqrt(1.0 + r * r)));
    vx[i] = rng.gaussian(0, sigma);
    vy[i] = rng.gaussian(0, sigma);
    vz[i] = rng.gaussian(0, sigma);
    mvx += vx[i];
    mvy += vy[i];
    mvz += vz[i];
    m[i] = mi;
  }
  // Zero the total momentum exactly.
  for (std::size_t i = 0; i < n; ++i) {
    vx[i] -= mvx / static_cast<double>(n);
    vy[i] -= mvy / static_cast<double>(n);
    vz[i] -= mvz / static_cast<double>(n);
  }
}

/// The shared coding's tree charges.  Thread 0 writes every cell and its
/// monopole and streams each partitioned range; every thread's walk reads
/// each cell it visits, the child pointers of each cell it opens, and each
/// leaf body from the far-shared arrays.
struct NbodyShared::Charges {
  NbodyShared& app;

  arch::VAddr cell_va(std::int32_t c) const {
    return app.tree_va_ + static_cast<arch::VAddr>(c) * sizeof(TreeNode);
  }
  void cell(std::int32_t c) { app.rt_.write(cell_va(c), sizeof(TreeNode)); }
  void partition(std::int32_t first_body, std::size_t count) {
    app.rt_.work_ops(static_cast<double>(count) * 4);
    app.rt_.read(app.px_->vaddr(static_cast<std::size_t>(first_body)),
                 std::min<std::uint64_t>(count * sizeof(double), 4096));
  }
  void moment_flops(double f) { app.rt_.work_flops(f); }
  void moment(std::int32_t c) { app.rt_.write(cell_va(c), 48); }
  void visit(std::int32_t c) {
    // The cell's summary data: center of mass, mass and geometry.
    app.rt_.read(cell_va(c), 48);
    app.rt_.work_flops(kNodeVisitFlops);
  }
  void open(std::int32_t c) { app.rt_.read(cell_va(c) + 64, 32); }
  void body(std::size_t p) {
    app.rt_.read(app.px_->vaddr(p));
    app.rt_.read(app.py_->vaddr(p));
    app.rt_.read(app.pz_->vaddr(p));
    app.rt_.read(app.mass_->vaddr(p));
  }
  void interaction() {
    app.rt_.work_flops(kInteractFlops);
    ++app.tally_.interactions;
  }
};

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
  tree_va_ = rt_.alloc(tree_capacity(n) * sizeof(TreeNode),
                       MemClass::kFarShared, "nb.tree");
  barrier_ = std::make_unique<rt::Barrier>(rt_, nthreads_);
  load_plummer();
}

void NbodyShared::load_plummer() {
  fill_plummer(cfg_, &px_->raw(0), &py_->raw(0), &pz_->raw(0), &vx_->raw(0),
               &vy_->raw(0), &vz_->raw(0), &mass_->raw(0));
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

std::array<double, 3> NbodyShared::tree_force_host(std::size_t i) const {
  NoCharges none;
  return tree_.force(bodies(), i, cfg_, none);
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
  const auto [pb, pe] = rt::block_range(cfg_.n, nthreads, tid);
  const Bodies b = bodies();
  Charges charge{*this};
  for (std::size_t i = pb; i < pe; ++i) {
    // Read own position (charged), compute, store force (charged).
    rt_.read(px_->vaddr(i));
    rt_.read(py_->vaddr(i));
    rt_.read(pz_->vaddr(i));
    const auto f = tree_.force(b, i, cfg_, charge);
    fx_->write(i, f[0]);
    fy_->write(i, f[1]);
    fz_->write(i, f[2]);
  }
}

void NbodyShared::push_phase(unsigned tid, unsigned nthreads) {
  const auto [pb, pe] = rt::block_range(cfg_.n, nthreads, tid);
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
  return d;
}

double NbodyShared::potential() const {
  const std::size_t n = cfg_.n;
  const double eps2 = cfg_.eps * cfg_.eps;
  double u = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double dx = px_->raw(j) - px_->raw(i);
      const double dy = py_->raw(j) - py_->raw(i);
      const double dz = pz_->raw(j) - pz_->raw(i);
      u -= mass_->raw(i) * mass_->raw(j) /
           std::sqrt(dx * dx + dy * dy + dz * dz + eps2);
    }
  }
  return u;
}

void NbodyShared::step(unsigned tid, unsigned nthreads) {
  if (tid == 0) {
    Charges charge{*this};
    tree_.build(bodies(), cfg_, charge);
  }
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
