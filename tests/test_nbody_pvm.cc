// Tests of the PVM tree code: physics agreement with the shared-memory
// version and the section-5.3.2 performance relationship ("overall
// performance is degraded relative to the shared memory version").
#include <gtest/gtest.h>

#include <cmath>

#include "spp/apps/nbody/nbody.h"
#include "spp/apps/nbody/nbody_pvm.h"

namespace spp::nbody {
namespace {

using arch::Topology;
using rt::Placement;

TEST(NbodyPvm, PhysicsAgreesWithSharedMemory) {
  NbodyConfig cfg;
  cfg.n = 512;
  cfg.steps = 3;
  NbodyResult shared_res, pvm_res;
  {
    rt::Runtime rt(Topology{.nodes = 2});
    NbodyShared nb(rt, cfg, 8, Placement::kUniform);
    rt.run([&] { shared_res = nb.run(); });
  }
  {
    rt::Runtime rt(Topology{.nodes = 2});
    NbodyPvm nb(rt, cfg, 8, Placement::kUniform);
    rt.run([&] { pvm_res = nb.run(); });
  }
  // One Plummer load, one tree build and one walk: both codings evaluate the
  // same force terms, bit for bit.  Only the diagnostics' summation order
  // differs (per-task partial sums against one serial sum).
  EXPECT_EQ(pvm_res.interactions, shared_res.interactions);
  EXPECT_NEAR(pvm_res.final.kinetic / shared_res.final.kinetic, 1.0, 1e-12);
  EXPECT_NEAR(pvm_res.final.px, shared_res.final.px, 1e-15);
  EXPECT_NEAR(pvm_res.final.py, shared_res.final.py, 1e-15);
  EXPECT_NEAR(pvm_res.final.pz, shared_res.final.pz, 1e-15);
}

TEST(NbodyPvm, MomentumStaysNearZero) {
  NbodyConfig cfg;
  cfg.n = 1024;
  cfg.steps = 4;
  rt::Runtime rt(Topology{.nodes = 2});
  NbodyPvm nb(rt, cfg, 4, Placement::kUniform);
  NbodyResult res;
  rt.run([&] { res = nb.run(); });
  EXPECT_NEAR(res.final.px, 0.0, 2e-3);
  EXPECT_NEAR(res.final.py, 0.0, 2e-3);
  EXPECT_NEAR(res.final.pz, 0.0, 2e-3);
}

TEST(NbodyPvm, SlowerThanSharedMemory) {
  // Section 5.3.2: message packing overheads degrade the PVM version
  // relative to shared memory at equal processor counts.
  NbodyConfig cfg;
  cfg.n = 2048;
  cfg.steps = 3;
  cfg.theta = 1.1;  // cheap forces so the messaging overhead is visible
  sim::Time t_shared, t_pvm;
  {
    rt::Runtime rt(Topology{.nodes = 2});
    NbodyShared nb(rt, cfg, 8, Placement::kUniform);
    NbodyResult r;
    rt.run([&] { r = nb.run(); });
    t_shared = r.sim_time;
  }
  {
    rt::Runtime rt(Topology{.nodes = 2});
    NbodyPvm nb(rt, cfg, 8, Placement::kUniform);
    NbodyResult r;
    rt.run([&] { r = nb.run(); });
    t_pvm = r.sim_time;
  }
  EXPECT_GT(t_pvm, t_shared);
}

TEST(NbodyPvm, SingleTaskWorks) {
  NbodyConfig cfg;
  cfg.n = 256;
  cfg.steps = 2;
  rt::Runtime rt(Topology{.nodes = 1});
  NbodyPvm nb(rt, cfg, 1, Placement::kHighLocality);
  NbodyResult res;
  rt.run([&] { res = nb.run(); });
  EXPECT_GT(res.interactions, 0u);
  EXPECT_GT(res.final.kinetic, 0.0);
}

}  // namespace
}  // namespace spp::nbody
