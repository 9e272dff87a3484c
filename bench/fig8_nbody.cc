// Figure 8: N-Body performance scaling.
//
// Parallel speedup of the tree code for three problem sizes, in the paper's
// two configurations: 1,2,4,8 processors on a single hypernode and 2,4,8,16
// across two hypernodes.  Reference points from section 5.3.2:
//   * 27.5 Mflop/s single-processor rate (speedups measured against it);
//   * 2-7% degradation across hypernodes at equal processor counts;
//   * 384 Mflop/s at 16 processors;
//   * a highly vectorized C90 tree code reaches 120 Mflop/s on one head.
//
// Paper sizes are 32K/256K/2M particles; default scale runs 2K/8K/32K.
// --full runs 32K/256K (the 2M case needs >1h of host time; scale the trend).
#include <cstdio>

#include "bench/harness.h"
#include "spp/apps/nbody/nbody.h"
#include "spp/apps/nbody/nbody_pvm.h"
#include "spp/c90/c90.h"

namespace spp::bench {
namespace {

using nbody::NbodyConfig;

struct Point {
  double mflops;
  double force_seconds;
};

/// Section 5.3.2's reference points: Mflop/s on 1 processor and on 16
/// across two hypernodes.
struct Reference {
  double one_proc;
  double sixteen_procs;
};

Point run_case(Run& run, const NbodyConfig& cfg, unsigned nodes,
               unsigned np) {
  // Both configurations run on the same two-hypernode machine, as the
  // paper's do: "1 node" packs the threads onto hypernode 0, "2 node"
  // spreads them, so only the placement differs.
  const auto placement =
      nodes > 1 ? rt::Placement::kUniform : rt::Placement::kHighLocality;
  const nbody::NbodyResult res =
      run_app<nbody::NbodyShared>(run, 2, cfg, np, placement);
  return {res.mflops, sim::to_seconds(res.force_time)};
}

Reference run_size(Run& run, std::size_t n, unsigned steps) {
  NbodyConfig cfg;
  cfg.n = n;
  cfg.steps = steps;
  std::printf("\n--- %zu particles ---\n", n);
  std::printf("%6s | %14s %9s | %14s %9s | %8s\n", "procs", "1node_Mflops",
              "speedup", "2node_Mflops", "speedup", "degr_%");

  double base = 0, sixteen = 0;
  for (unsigned np : {1u, 2u, 4u, 8u, 16u}) {
    Point one{0, 0}, two{0, 0};
    const bool have_one = np <= 8;
    if (have_one) one = run_case(run, cfg, 1, np);
    if (np >= 2) two = run_case(run, cfg, 2, np);
    if (np == 1) base = one.mflops;
    if (np == 16) sixteen = two.mflops;
    const double degr =
        (have_one && np >= 2 && one.force_seconds > 0)
            ? 100.0 * (two.force_seconds / one.force_seconds - 1.0)
            : 0.0;
    if (have_one && np >= 2) {
      std::printf("%6u | %14.1f %9.2f | %14.1f %9.2f | %8.1f\n", np,
                  one.mflops, one.mflops / base, two.mflops,
                  two.mflops / base, degr);
    } else if (have_one) {
      std::printf("%6u | %14.1f %9.2f | %14s %9s | %8s\n", np, one.mflops,
                  one.mflops / base, "-", "-", "-");
    } else {
      std::printf("%6u | %14s %9s | %14.1f %9.2f | %8s\n", np, "-", "-",
                  two.mflops, two.mflops / base, "-");
    }
  }
  return {base, sixteen};
}

}  // namespace

void fig8_nbody(Run& run) {
  header("Figure 8", "N-Body tree code scaling", run);

  Reference ref{0, 0};
  if (run.full()) {
    ref = run_size(run, 32768, 1);
    run_size(run, 262144, 1);
    std::printf("\n(2M-particle case omitted: >1h of host time; the trend\n"
                " with problem size is visible from 32K -> 256K)\n");
  } else {
    run_size(run, 1024, 2);
    ref = run_size(run, 4096, 1);
    run_size(run, 16384, 1);
  }

  c90::C90Model model;
  std::printf("\nreference points                   measured   paper\n");
  std::printf("1-processor Mflop/s                %8.1f   27.5\n",
              ref.one_proc);
  std::printf("16-processor Mflop/s               %8.1f   384\n",
              ref.sixteen_procs);
  std::printf("C90 tree code Mflop/s (model)      %8.1f   120\n",
              model.sustained_mflops(c90::treecode_profile(1e9)));

  // Section 5.3.2's PVM version: "overall performance is degraded relative
  // to the shared memory version of the code."
  {
    NbodyConfig cfg;
    cfg.n = run.full() ? 16384 : 2048;
    cfg.steps = 3;
    cfg.theta = 1.1;  // modest force cost so the broadcast traffic shows
    const nbody::NbodyResult rs =
        run_app<nbody::NbodyShared>(run, 2, cfg, 8, rt::Placement::kUniform);
    const nbody::NbodyResult rp =
        run_app<nbody::NbodyPvm>(run, 2, cfg, 8, rt::Placement::kUniform);
    std::printf("PVM version vs shared, 8 procs     %8.2fx   degraded\n",
                sim::to_seconds(rp.sim_time) / sim::to_seconds(rs.sim_time));
  }
}

}  // namespace spp::bench
