// Figure 7: FEM gas dynamics scaling.
//
// Performance (point updates per microsecond, the paper's metric, and the
// derived "useful Mflop/s" at 437 flops/point-update) for:
//   * small1 -- small data set, residual-storing coding;
//   * small2 -- small data set, second coding (recomputing residuals);
//   * large  -- large data set, residual-storing coding;
// on 1..16 processors including the 8->9 transition where the second
// hypernode joins (the paper observed non-monotonic scaling there), with the
// C90 single-head line at 0.57 point updates/us (~250 useful Mflop/s).
//
// Paper data sets: small = 46545 points / 92160 elements, large = 263169
// points / 524288 elements; ours are 288x160 and 512x512 periodic quad
// splits (--full), reduced meshes by default.
#include <cstdio>

#include "bench/harness.h"
#include "spp/apps/fem/femgas.h"
#include "spp/c90/c90.h"

namespace spp::bench {
namespace {

using fem::Coding;
using fem::FemConfig;

double updates_per_usec(Run& run, const FemConfig& cfg, unsigned np) {
  const unsigned nodes = np > 8 ? 2u : 1u;
  const auto placement =
      nodes > 1 ? rt::Placement::kUniform : rt::Placement::kHighLocality;
  return run_app<fem::FemGas>(run, nodes, cfg, np, placement,
                              [&](fem::FemGas& app) {
                                app.init_blast(2.0, cfg.nx / 8.0);
                              })
      .updates_per_usec;
}

}  // namespace

void fig7_fem(Run& run) {
  header("Figure 7", "FEM gas dynamics scaling", run);

  FemConfig small1;
  FemConfig large;
  if (run.full()) {
    small1.nx = 288;
    small1.ny = 160;
    small1.steps = 2;
    large.nx = 512;
    large.ny = 512;
    large.steps = 1;
  } else {
    small1.nx = 64;
    small1.ny = 48;
    small1.steps = 3;
    large.nx = 128;
    large.ny = 96;
    large.steps = 2;
  }
  FemConfig small2 = small1;
  small2.coding = Coding::kRecompute;

  std::printf("%6s | %12s %12s %12s   (point updates / us)\n", "procs",
              "small1", "small2", "large");
  double prev_small1 = 0;
  bool dipped = false;
  for (unsigned np : {1u, 2u, 4u, 8u, 9u, 12u, 16u}) {
    const double s1 = updates_per_usec(run, small1, np);
    const double s2 = updates_per_usec(run, small2, np);
    const double lg = updates_per_usec(run, large, np);
    std::printf("%6u | %12.4f %12.4f %12.4f\n", np, s1, s2, lg);
    if (np == 9 && s1 < prev_small1) dipped = true;
    if (np == 8) prev_small1 = s1;
  }

  std::printf("\nC90 single head (paper): 0.57 point updates/us "
              "(250 useful Mflop/s)\n");
  c90::C90Model model;
  const double c90_rate =
      model.sustained_mflops(c90::fem_profile(1e9)) / fem::kFlopsPerPointUpdate;
  std::printf("C90 single head (model): %.2f point updates/us\n", c90_rate);
  std::printf("8->9 processor transition dips (paper: non-monotonic): %s\n",
              dipped ? "yes" : "no");
  std::printf("useful Mflop/s = updates/us x %.0f flops/point-update\n",
              fem::kFlopsPerPointUpdate);

  run.expect("small1 rate at 9 processors below the rate at 8", dipped);
}

}  // namespace spp::bench
