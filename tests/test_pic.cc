// PIC application tests: conservation laws, physics agreement between the
// shared-memory and PVM implementations, determinism, and scaling sanity.
#include <gtest/gtest.h>

#include <cmath>

#include "spp/apps/pic/pic.h"
#include "spp/apps/pic/pic_pvm.h"

namespace spp::pic {
namespace {

using arch::Topology;
using rt::Placement;

PicConfig tiny() {
  PicConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 8;
  cfg.steps = 5;
  cfg.dt = 0.05;
  return cfg;
}

TEST(PicShared_, ChargeNeutralityExact) {
  rt::Runtime rt(Topology{.nodes = 1});
  PicConfig cfg = tiny();
  PicShared pic(rt, cfg, 2, Placement::kHighLocality);
  PicResult res;
  rt.run([&] { res = pic.run(); });
  // With the neutralizing background, total mesh charge stays ~0
  // (round-off accumulation only).
  EXPECT_NEAR(res.final.total_charge, 0.0,
              1e-9 * static_cast<double>(cfg.particles()));
}

TEST(PicShared_, MomentumConservedByCicSpectralScheme) {
  rt::Runtime rt(Topology{.nodes = 1});
  PicConfig cfg = tiny();
  PicShared pic(rt, cfg, 4, Placement::kHighLocality);
  PicResult res;
  rt.run([&] { res = pic.run(); });
  // The CIC deposit/gather pair with a symmetric spectral Green's function
  // and antisymmetric gradient conserves total momentum exactly (Birdsall's
  // momentum-conserving scheme): initial (after step 0) and final momenta
  // agree to accumulated round-off.
  EXPECT_NEAR(res.final.momentum_z, res.initial.momentum_z,
              1e-9 * static_cast<double>(cfg.particles()));
}

TEST(PicShared_, EnergyBounded) {
  rt::Runtime rt(Topology{.nodes = 1});
  PicConfig cfg = tiny();
  PicShared pic(rt, cfg, 2, Placement::kHighLocality);
  PicResult res;
  rt.run([&] { res = pic.run(); });
  const double e0 = res.initial.kinetic_energy + res.initial.field_energy;
  const double e1 = res.final.kinetic_energy + res.final.field_energy;
  EXPECT_GT(e1, 0.0);
  EXPECT_LT(std::abs(e1 - e0) / e0, 0.10)
      << "leapfrog PIC energy should drift slowly";
}

TEST(PicShared_, BeamInstabilityGrowsFieldEnergy) {
  rt::Runtime rt(Topology{.nodes = 1});
  PicConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 8;
  cfg.steps = 30;
  cfg.dt = 0.1;
  PicShared pic(rt, cfg, 4, Placement::kHighLocality);
  PicResult res;
  rt.run([&] { res = pic.run(); });
  // A beam-plasma system feeds the field: late-time field energy should
  // exceed the initial shot-noise level.
  EXPECT_GT(res.field_energy_history.back(),
            2.0 * res.field_energy_history.front());
}

TEST(PicShared_, DeterministicAcrossRuns) {
  auto once = [] {
    rt::Runtime rt(Topology{.nodes = 2});
    PicConfig cfg = tiny();
    PicShared pic(rt, cfg, 8, Placement::kUniform);
    PicResult res;
    rt.run([&] { res = pic.run(); });
    return res;
  };
  const PicResult a = once();
  const PicResult b = once();
  EXPECT_EQ(a.sim_time, b.sim_time);
  EXPECT_EQ(a.final.kinetic_energy, b.final.kinetic_energy);
}

TEST(PicShared_, SimulatedTimeImprovesWithThreads) {
  auto timed = [](unsigned nthreads) {
    rt::Runtime rt(Topology{.nodes = 1});
    PicConfig cfg;
    cfg.nx = cfg.ny = cfg.nz = 8;
    cfg.steps = 3;
    PicShared pic(rt, cfg, nthreads, Placement::kHighLocality);
    PicResult res;
    rt.run([&] { res = pic.run(); });
    return res.sim_time;
  };
  const sim::Time t1 = timed(1);
  const sim::Time t4 = timed(4);
  const sim::Time t8 = timed(8);
  EXPECT_LT(t4, t1);
  EXPECT_LT(t8, t4);
  const double speedup8 = static_cast<double>(t1) / static_cast<double>(t8);
  EXPECT_GT(speedup8, 3.0) << "one-hypernode PIC should scale well (sec. 6)";
}

TEST(PicPvm_, PhysicsAgreesWithSharedMemory) {
  PicConfig cfg = tiny();
  PicResult shared_res, pvm_res;
  {
    rt::Runtime rt(Topology{.nodes = 1});
    PicShared pic(rt, cfg, 4, Placement::kHighLocality);
    rt.run([&] { shared_res = pic.run(); });
  }
  {
    rt::Runtime rt(Topology{.nodes = 1});
    PicPvm pic(rt, cfg, 4, Placement::kHighLocality);
    rt.run([&] { pvm_res = pic.run(); });
  }
  // One load, stencil, leapfrog and Poisson divisor: only the charge
  // combine's and the diagnostics' summation orders differ.
  EXPECT_NEAR(pvm_res.final.kinetic_energy / shared_res.final.kinetic_energy,
              1.0, 1e-12);
  EXPECT_NEAR(pvm_res.final.momentum_z, shared_res.final.momentum_z,
              1e-12 * std::abs(shared_res.final.momentum_z));
}

TEST(PicPvm_, SharedMemoryRoughlyTwiceAsFastAsPvm) {
  // Figure 6 / section 3.1: "a PVM implementation ... can achieve almost one
  // half the performance of a shared memory implementation."  The PVM
  // version's combine/broadcast unpacking moves the replicated grid through
  // the cache at per-line rates, serialized through task 0.
  PicConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 16;
  cfg.steps = 2;
  sim::Time t_shared, t_pvm;
  {
    rt::Runtime rt(Topology{.nodes = 2});
    PicShared pic(rt, cfg, 8, Placement::kUniform);
    PicResult r;
    rt.run([&] { r = pic.run(); });
    t_shared = r.sim_time;
  }
  {
    rt::Runtime rt(Topology{.nodes = 2});
    PicPvm pic(rt, cfg, 8, Placement::kUniform);
    PicResult r;
    rt.run([&] { r = pic.run(); });
    t_pvm = r.sim_time;
  }
  EXPECT_GT(t_pvm, t_shared);
  const double ratio = static_cast<double>(t_pvm) / static_cast<double>(t_shared);
  EXPECT_GT(ratio, 1.3);
  EXPECT_LT(ratio, 4.0);
}

TEST(PicConfig_, FlopAccounting) {
  PicConfig cfg = tiny();
  EXPECT_GT(flops_per_step(cfg), 0.0);
  // Dominated by particle work: at least 100 flops per particle.
  EXPECT_GT(flops_per_step(cfg), 100.0 * static_cast<double>(cfg.particles()));
}

}  // namespace
}  // namespace spp::pic
