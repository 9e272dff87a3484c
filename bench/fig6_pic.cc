// Figure 6 and Table 1: the 3D electrostatic PIC code.
//
// Time to solution and speedup for the shared-memory and PVM versions on
// 1..16 processors, two problem sizes, with the Cray C90 single-head
// reference (Table 1: 32x32x32 / 294912 particles -> 355 Mflop/s, 112.9 s;
// 64x64x32 / 1179648 particles -> 369 Mflop/s, 436.4 s; both 500 steps).
//
// Default scale runs reduced meshes and steps; the `paper-equivalent time`
// column extrapolates the measured per-step time to the paper's 500 steps so
// curves are comparable in shape.  --full uses the paper's meshes (still
// with reduced step counts; per-step cost is what the curves are made of).
#include <cstdio>
#include <vector>

#include "bench/harness.h"
#include "spp/apps/pic/pic.h"
#include "spp/apps/pic/pic_pvm.h"
#include "spp/c90/c90.h"

namespace spp::bench {
namespace {

using pic::PicConfig;

struct SizeSpec {
  const char* name;
  PicConfig cfg;
  double paper_c90_mflops;  ///< Table 1.
  double paper_c90_seconds;
};

/// Prints one problem size's rows; true when the shared-memory code beats
/// PVM at every processor count from 2 up (Figure 6's ordering).
bool run_size(Run& run, const SizeSpec& spec) {
  const PicConfig& cfg = spec.cfg;
  std::printf("\n--- %s: %zux%zux%zu mesh, %zu particles, %u steps ---\n",
              spec.name, cfg.nx, cfg.ny, cfg.nz, cfg.particles(), cfg.steps);
  std::printf("%6s | %12s %9s | %12s %9s | %10s\n", "procs", "shared_s500",
              "speedup", "pvm_s500", "speedup", "sh_Mflops");

  const double scale_to_500 = 500.0 / cfg.steps;
  double shared1 = 0, pvm1 = 0;
  bool shared_wins = true;
  for (unsigned np : {1u, 2u, 4u, 8u, 16u}) {
    const unsigned nodes = np > 8 ? 2u : 1u;
    const auto placement =
        nodes > 1 ? rt::Placement::kUniform : rt::Placement::kHighLocality;
    const pic::PicResult shared =
        run_app<pic::PicShared>(run, nodes, cfg, np, placement);
    const pic::PicResult pvm =
        run_app<pic::PicPvm>(run, nodes, cfg, np, placement);
    const double t_shared = sim::to_seconds(shared.sim_time) * scale_to_500;
    const double t_pvm = sim::to_seconds(pvm.sim_time) * scale_to_500;
    if (np == 1) {
      shared1 = t_shared;
      pvm1 = t_pvm;
    } else {
      shared_wins = shared_wins && t_shared < t_pvm;
    }
    std::printf("%6u | %12.2f %9.2f | %12.2f %9.2f | %10.1f\n", np, t_shared,
                shared1 / t_shared, t_pvm, pvm1 / t_pvm, shared.mflops);
  }

  // C90 single-head reference line (flat in Figure 6).
  const double flops500 = 500.0 * pic::flops_per_step(cfg);
  c90::C90Model c90model;
  const auto prof = c90::pic_profile(flops500, cfg.cells());
  std::printf("C90 1 head (model): %.2f s at %.0f Mflop/s",
              c90model.seconds(prof), c90model.sustained_mflops(prof));
  if (spec.paper_c90_mflops > 0) {
    std::printf("   [paper: %.1f s at %.0f Mflop/s]",
                spec.paper_c90_seconds, spec.paper_c90_mflops);
  }
  std::printf("\n");
  return shared_wins;
}

}  // namespace

void fig6_pic(Run& run) {
  header("Figure 6 / Table 1",
         "PIC time-to-solution and speedup, shared vs PVM", run);

  std::vector<SizeSpec> sizes;
  if (run.full()) {
    PicConfig small;
    small.nx = small.ny = small.nz = 32;
    small.steps = 4;
    PicConfig large;
    large.nx = large.ny = 64;
    large.nz = 32;
    large.steps = 2;
    sizes.push_back({"small (paper 32^3)", small, 355.0, 112.9});
    sizes.push_back({"large (paper 64x64x32)", large, 369.0, 436.4});
  } else {
    PicConfig small;
    small.nx = small.ny = small.nz = 8;
    small.steps = 4;
    PicConfig large;
    large.nx = large.ny = 16;
    large.nz = 16;
    large.steps = 2;
    sizes.push_back({"small (reduced)", small, 0, 0});
    sizes.push_back({"large (reduced)", large, 0, 0});
  }
  bool shared_wins = true;
  for (const auto& spec : sizes) {
    shared_wins = run_size(run, spec) && shared_wins;
  }

  std::printf(
      "\npaper shape: shared-memory curve consistently above PVM (PVM\n"
      "reaches 'almost one half the performance'); both scale to 16 procs\n"
      "with the shared version approaching one C90 head per hypernode.\n");

  run.expect("shared time below PVM time at every p >= 2, both meshes",
             shared_wins);
}

}  // namespace spp::bench
