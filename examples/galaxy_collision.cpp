// Two Plummer spheres on a collision course, evolved with the Barnes-Hut
// tree code (the gravitational N-body problem of section 5.3).
//
//   $ ./build/examples/galaxy_collision
//
// Tracks the separation of the two mass clumps through closest approach and
// reports conservation quality and machine behaviour.
#include <cmath>
#include <cstdio>

#include "spp/apps/nbody/nbody.h"

using namespace spp;

int main() {
  nbody::NbodyConfig cfg;
  cfg.n = 2048;
  cfg.theta = 0.6;
  cfg.eps = 0.05;
  cfg.dt = 0.05;
  cfg.steps = 1;  // stepped manually below

  rt::Runtime runtime(arch::Topology{.nodes = 2});
  nbody::NbodyShared nb(runtime, cfg, 16, rt::Placement::kUniform);
  nb.load_collision(/*separation=*/6.0, /*approach_speed=*/1.2);

  std::printf("galaxy collision: 2 x %zu-body Plummer spheres, "
              "16 CPUs / 2 hypernodes\n\n", cfg.n / 2);
  std::printf("%6s %12s %12s %12s\n", "epoch", "separation", "kinetic",
              "sim_ms");

  // Separation of the two halves' centers of mass (particles 0..n/2 started
  // in the left sphere, the rest in the right one).
  const auto separation = [&] {
    double lx = 0, rx = 0;
    for (std::size_t i = 0; i < cfg.n; ++i) {
      (i < cfg.n / 2 ? lx : rx) += nb.position(i)[0];
    }
    return std::abs(rx - lx) / static_cast<double>(cfg.n / 2);
  };

  const auto d0 = nb.diagnostics();
  const double e0 = d0.kinetic + nb.potential();
  double total_ms = 0;
  for (int epoch = 0; epoch < 6; ++epoch) {
    nbody::NbodyResult res;
    runtime.run([&] { res = nb.run(); });
    total_ms += sim::to_seconds(res.sim_time) * 1e3;
    const auto d = nb.diagnostics();
    std::printf("%6d %12.3f %12.4f %12.2f\n", epoch, separation(), d.kinetic,
                total_ms);
  }

  const auto d1 = nb.diagnostics();
  const double e1 = d1.kinetic + nb.potential();
  std::printf("\nconservation over the encounter:\n");
  std::printf("  momentum |p|: %.3e -> %.3e (should stay ~0)\n",
              std::sqrt(d0.px * d0.px + d0.py * d0.py + d0.pz * d0.pz),
              std::sqrt(d1.px * d1.px + d1.py * d1.py + d1.pz * d1.pz));
  std::printf("  energy: %.4f -> %.4f (%.2f%% drift)\n", e0, e1,
              100.0 * (e1 / e0 - 1.0));
  std::printf("  mass: %.6f (exact 1)\n", d1.mass);
  return 0;
}
