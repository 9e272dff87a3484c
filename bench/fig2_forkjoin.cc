// Figure 2: Cost of Fork-Join.
//
// Fork-join time (us) versus number of threads spawned, with the two thread
// placements of section 4: high locality (first 8 threads on one hypernode)
// and uniform distribution (equal threads per hypernode).
//
// Paper calibration targets:
//   * ~10 us per extra thread pair, high locality within one hypernode;
//   * ~20 us per extra thread pair, uniform across two hypernodes;
//   * a ~50 us step once a second hypernode becomes involved.
#include <cstdio>

#include "bench/harness.h"
#include "spp/rt/runtime.h"
#include "spp/sim/stats.h"

namespace spp::bench {
namespace {

sim::Time forkjoin_time(Run& run, unsigned nthreads, rt::Placement placement,
                        unsigned trials) {
  rt::Runtime runtime(arch::Topology{.nodes = 2});
  sim::RunningStat stat;
  runtime.run([&] {
    for (unsigned k = 0; k < trials; ++k) {
      const sim::Time t0 = runtime.now();
      runtime.parallel(nthreads, placement, [](unsigned, unsigned) {});
      stat.add(static_cast<double>(runtime.now() - t0));
    }
  });
  run.seal(runtime);
  return static_cast<sim::Time>(stat.min());
}

}  // namespace

void fig2_forkjoin(Run& run) {
  header("Figure 2", "Cost of Fork-Join", run);
  const unsigned trials = run.full() ? 50 : 10;

  std::printf("%8s %18s %18s\n", "threads", "high_locality_us",
              "uniform_us");
  double hl[17] = {}, un[17] = {};  // by thread count
  for (unsigned n = 1; n <= 16; ++n) {
    hl[n] = sim::to_usec(
        forkjoin_time(run, n, rt::Placement::kHighLocality, trials));
    un[n] =
        sim::to_usec(forkjoin_time(run, n, rt::Placement::kUniform, trials));
    std::printf("%8u %18.1f %18.1f\n", n, hl[n], un[n]);
  }

  const double pair_hl = (hl[8] - hl[2]) / 3.0;
  const double pair_un = (un[16] - un[2]) / 7.0;
  const double step = hl[9] - hl[8] - pair_hl;
  std::printf("\nderived metrics                      measured   paper\n");
  std::printf("us per thread pair, high locality    %8.1f   ~10\n", pair_hl);
  std::printf("us per thread pair, uniform          %8.1f   ~20\n", pair_un);
  std::printf("second-hypernode step (us)           %8.1f   ~50\n", step);

  run.near("us per thread pair, high locality", pair_hl, 10, 2);
  run.near("us per thread pair, uniform", pair_un, 20, 4);
  run.near("second-hypernode step (us)", step, 50, 10);
}

}  // namespace spp::bench
