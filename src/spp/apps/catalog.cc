#include "spp/apps/catalog.h"

#include "spp/apps/fem/femgas.h"
#include "spp/apps/nbody/nbody.h"
#include "spp/apps/nbody/nbody_pvm.h"
#include "spp/apps/pic/pic.h"
#include "spp/apps/pic/pic_pvm.h"
#include "spp/apps/ppm/ppm.h"

namespace spp::apps {
namespace {

constexpr rt::Placement kUniform = rt::Placement::kUniform;

Outcome outcome_of(const nbody::NbodyResult& r) {
  return {{r.final.kinetic, r.final.px, r.final.py, r.final.pz, r.final.mass},
          {static_cast<double>(r.sim_time), static_cast<double>(r.force_time),
           static_cast<double>(r.interactions), r.flops, r.initial.kinetic},
          r.mflops};
}

Outcome outcome_of(const fem::FemResult& r) {
  return {{r.final.total_mass, r.final.total_mom_x, r.final.total_mom_y,
           r.final.total_energy, r.final.min_density, r.final.min_pressure},
          {static_cast<double>(r.sim_time), r.flops, r.initial.total_energy},
          r.mflops};
}

Outcome outcome_of(const pic::PicResult& r) {
  Outcome o{{r.final.kinetic_energy, r.final.field_energy,
             r.final.total_charge, r.final.momentum_z},
            {static_cast<double>(r.sim_time), r.flops,
             r.initial.kinetic_energy, r.initial.field_energy,
             r.initial.total_charge, r.initial.momentum_z},
            r.mflops};
  o.diag.insert(o.diag.end(), r.field_energy_history.begin(),
                r.field_energy_history.end());
  for (const sim::Time p : r.phase_time) {
    o.totals.push_back(static_cast<double>(p));
  }
  return o;
}

Outcome outcome_of(const ppm::PpmResult& r) {
  return {{r.final.mass, r.final.mom_x, r.final.mom_y, r.final.energy,
           r.final.min_rho, r.final.min_p},
          {static_cast<double>(r.sim_time), r.flops, r.initial.energy},
          r.mflops};
}

// The problems.  Each size is also spelled out in the table's `size` text.
nbody::NbodyConfig nbody_config(unsigned steps) {
  nbody::NbodyConfig cfg;
  cfg.n = 256;
  cfg.steps = steps;
  return cfg;
}

pic::PicConfig pic_config(unsigned steps) {
  pic::PicConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 8;
  cfg.steps = steps;
  return cfg;
}

Outcome run_nbody(rt::Runtime& rt, unsigned threads, unsigned steps,
                  const ckpt::DurableSpec& spec) {
  nbody::NbodyShared app(rt, nbody_config(steps), threads, kUniform);
  Outcome o = outcome_of(app.run(spec));
  o.diag.push_back(app.potential());
  return o;
}

Outcome run_fem(rt::Runtime& rt, unsigned threads, unsigned steps,
                const ckpt::DurableSpec& spec) {
  fem::FemConfig cfg;
  cfg.nx = 24;
  cfg.ny = 12;
  cfg.steps = steps;
  fem::FemGas app(rt, cfg, threads, kUniform);
  app.init_blast(2.0, 3.0);
  return outcome_of(app.run(spec));
}

Outcome run_pic(rt::Runtime& rt, unsigned threads, unsigned steps,
                const ckpt::DurableSpec& spec) {
  pic::PicShared app(rt, pic_config(steps), threads, kUniform);
  return outcome_of(app.run(spec));
}

Outcome run_ppm(rt::Runtime& rt, unsigned threads, unsigned steps,
                const ckpt::DurableSpec& spec) {
  ppm::PpmConfig cfg;
  cfg.nx = 24;
  cfg.ny = 48;
  cfg.tiles_x = 2;
  cfg.tiles_y = 4;
  cfg.steps = steps;
  ppm::PpmTiled app(rt, cfg, threads, kUniform);
  app.init_sod_x();
  return outcome_of(app.run(spec));
}

Outcome run_nbody_pvm(rt::Runtime& rt, unsigned threads, unsigned steps,
                      const ckpt::DurableSpec& spec) {
  nbody::NbodyPvm app(rt, nbody_config(steps), threads, kUniform);
  return outcome_of(app.run(spec));
}

Outcome run_pic_pvm(rt::Runtime& rt, unsigned threads, unsigned steps,
                    const ckpt::DurableSpec& spec) {
  pic::PicPvm app(rt, pic_config(steps), threads, kUniform);
  return outcome_of(app.run(spec));
}

constexpr App kCatalog[] = {
    {"nbody", "256 bodies", 4, false, run_nbody},
    {"fem", "24x12 blast", 6, false, run_fem},
    {"pic", "8^3 mesh", 6, false, run_pic},
    {"ppm", "24x48 sod", 4, false, run_ppm},
    {"nbody-pvm", "256 bodies", 4, true, run_nbody_pvm},
    {"pic-pvm", "8^3 mesh", 6, true, run_pic_pvm},
};

}  // namespace

std::span<const App> catalog() { return kCatalog; }

const App* find(std::string_view name) {
  for (const App& app : kCatalog) {
    if (name == app.name) return &app;
  }
  return nullptr;
}

}  // namespace spp::apps
