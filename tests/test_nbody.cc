// N-body tree code tests: force accuracy vs direct summation, conservation,
// tree structure invariants, opening-angle behaviour, and scaling sanity.
#include <gtest/gtest.h>

#include <cmath>

#include "spp/apps/nbody/nbody.h"

namespace spp::nbody {
namespace {

using arch::Topology;
using rt::Placement;

TEST(NbodyForce, TreeMatchesDirectSum) {
  rt::Runtime rt(Topology{.nodes = 1});
  NbodyConfig cfg;
  cfg.n = 1024;
  cfg.theta = 0.5;
  cfg.steps = 1;
  NbodyShared nb(rt, cfg, 1, Placement::kHighLocality);
  rt.run([&] { (void)nb.run(); });  // builds the tree

  double num = 0, den = 0;
  for (std::size_t i = 0; i < cfg.n; i += 7) {
    const auto ft = nb.tree_force_host(i);
    const auto fd = nb.direct_force(i);
    for (int c = 0; c < 3; ++c) {
      num += (ft[c] - fd[c]) * (ft[c] - fd[c]);
      den += fd[c] * fd[c];
    }
  }
  const double rel = std::sqrt(num / den);
  EXPECT_LT(rel, 0.02) << "theta=0.5 monopole should be ~1% accurate (RMS)";
}

TEST(NbodyForce, SmallerThetaIsMoreAccurate) {
  auto rms = [](double theta) {
    rt::Runtime rt(Topology{.nodes = 1});
    NbodyConfig cfg;
    cfg.n = 512;
    cfg.theta = theta;
    cfg.steps = 1;
    NbodyShared nb(rt, cfg, 1, Placement::kHighLocality);
    rt.run([&] { (void)nb.run(); });
    double num = 0, den = 0;
    for (std::size_t i = 0; i < cfg.n; i += 5) {
      const auto ft = nb.tree_force_host(i);
      const auto fd = nb.direct_force(i);
      for (int c = 0; c < 3; ++c) {
        num += (ft[c] - fd[c]) * (ft[c] - fd[c]);
        den += fd[c] * fd[c];
      }
    }
    return std::sqrt(num / den);
  };
  EXPECT_LT(rms(0.3), rms(0.9));
}

TEST(NbodyRun, MomentumConserved) {
  rt::Runtime rt(Topology{.nodes = 1});
  NbodyConfig cfg;
  cfg.n = 1024;
  cfg.steps = 5;
  NbodyShared nb(rt, cfg, 4, Placement::kHighLocality);
  NbodyResult res;
  rt.run([&] { res = nb.run(); });
  // Initial momentum is exactly zero; drift should stay near round-off of
  // the pairwise force asymmetry introduced by the tree approximation.
  EXPECT_NEAR(res.final.px, 0.0, 2e-3);
  EXPECT_NEAR(res.final.py, 0.0, 2e-3);
  EXPECT_NEAR(res.final.pz, 0.0, 2e-3);
  EXPECT_NEAR(res.final.mass, 1.0, 1e-12);
}

TEST(NbodyRun, InteractionCountIsSubQuadratic) {
  rt::Runtime rt(Topology{.nodes = 1});
  NbodyConfig cfg;
  cfg.n = 4096;
  cfg.steps = 1;
  NbodyShared nb(rt, cfg, 4, Placement::kHighLocality);
  NbodyResult res;
  rt.run([&] { res = nb.run(); });
  const double n = static_cast<double>(cfg.n);
  EXPECT_LT(static_cast<double>(res.interactions), 0.3 * n * n)
      << "tree pruning must beat direct N^2";
  EXPECT_GT(static_cast<double>(res.interactions), n * std::log2(n))
      << "suspiciously few interactions";
}

TEST(NbodyRun, EnergyDriftBounded) {
  rt::Runtime rt(Topology{.nodes = 1});
  NbodyConfig cfg;
  cfg.n = 512;
  cfg.steps = 10;
  cfg.dt = 0.005;
  NbodyShared nb(rt, cfg, 2, Placement::kHighLocality);
  // run() reports only the O(N) sums: the potential is read here, before
  // and after the run.
  const double u0 = nb.potential();
  NbodyResult res;
  rt.run([&] { res = nb.run(); });
  const double u1 = nb.potential();
  ASSERT_LT(u0, 0.0);
  ASSERT_LT(u1, 0.0);
  const double e0 = res.initial.kinetic + u0;
  const double e1 = res.final.kinetic + u1;
  EXPECT_LT(std::abs(e1 - e0) / std::abs(e0), 0.05);
}

TEST(NbodyRun, DeterministicAcrossRuns) {
  auto once = [] {
    rt::Runtime rt(Topology{.nodes = 2});
    NbodyConfig cfg;
    cfg.n = 512;
    cfg.steps = 2;
    NbodyShared nb(rt, cfg, 8, Placement::kUniform);
    NbodyResult res;
    rt.run([&] { res = nb.run(); });
    return res;
  };
  const auto a = once();
  const auto b = once();
  EXPECT_EQ(a.sim_time, b.sim_time);
  EXPECT_EQ(a.final.kinetic, b.final.kinetic);
  EXPECT_EQ(a.interactions, b.interactions);
}

TEST(NbodyRun, PhysicsIndependentOfThreadCount) {
  auto once = [](unsigned nthreads) {
    rt::Runtime rt(Topology{.nodes = 2});
    NbodyConfig cfg;
    cfg.n = 512;
    cfg.steps = 3;
    NbodyShared nb(rt, cfg, nthreads, Placement::kHighLocality);
    NbodyResult res;
    rt.run([&] { res = nb.run(); });
    return res.final;
  };
  const auto a = once(1);
  const auto b = once(8);
  // The force phase writes disjoint slices and reads a frozen tree, so the
  // physics is bitwise identical regardless of thread count.
  EXPECT_EQ(a.kinetic, b.kinetic);
  EXPECT_EQ(a.px, b.px);
}

TEST(NbodyRun, ScalesWithinHypernode) {
  auto timed = [](unsigned nthreads) {
    rt::Runtime rt(Topology{.nodes = 1});
    NbodyConfig cfg;
    cfg.n = 2048;
    cfg.steps = 1;
    NbodyShared nb(rt, cfg, nthreads, Placement::kHighLocality);
    NbodyResult res;
    rt.run([&] { res = nb.run(); });
    return res;
  };
  const auto r1 = timed(1);
  const auto r8 = timed(8);
  const double speedup =
      static_cast<double>(r1.force_time) / static_cast<double>(r8.force_time);
  EXPECT_GT(speedup, 4.0) << "force phase should scale well on one node";
}

TEST(NbodyRun, CrossNodeDegradationIsSmall) {
  // Figure 8: "performance degradation incurred across multiple hypernodes
  // is small; between 2 and 7 percent."
  auto timed = [](unsigned nodes, Placement p) {
    rt::Runtime rt(Topology{.nodes = nodes});
    NbodyConfig cfg;
    cfg.n = 2048;
    cfg.steps = 1;
    NbodyShared nb(rt, cfg, 8, p);
    NbodyResult res;
    rt.run([&] { res = nb.run(); });
    return res.force_time;
  };
  const sim::Time one_node = timed(1, Placement::kHighLocality);
  const sim::Time two_node = timed(2, Placement::kUniform);
  const double degradation =
      static_cast<double>(two_node) / static_cast<double>(one_node) - 1.0;
  EXPECT_GT(degradation, 0.0);
  EXPECT_LT(degradation, 0.30)
      << "cross-node degradation should be modest (paper: 2-7%)";
}

TEST(NbodyCollision, TwoSpheresApproach) {
  rt::Runtime rt(Topology{.nodes = 1});
  NbodyConfig cfg;
  cfg.n = 256;
  cfg.steps = 1;
  NbodyShared nb(rt, cfg, 1, Placement::kHighLocality);
  nb.load_collision(6.0, 1.0);
  const auto d = nb.diagnostics();
  EXPECT_NEAR(d.px, 0.0, 1e-9);  // symmetric approach
  EXPECT_GT(d.kinetic, 0.0);
}

}  // namespace
}  // namespace spp::nbody
