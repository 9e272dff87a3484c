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

#include "bench/bench_common.h"
#include "spp/rt/runtime.h"
#include "spp/sim/stats.h"

namespace {

using namespace spp;

sim::Time forkjoin_time(unsigned nthreads, rt::Placement placement,
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
  return static_cast<sim::Time>(stat.min());
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = spp::bench::Options::parse(argc, argv);
  spp::bench::header("Figure 2", "Cost of Fork-Join", opts);
  const unsigned trials = opts.full ? 50 : 10;

  std::printf("%8s %18s %18s\n", "threads", "high_locality_us",
              "uniform_us");
  double prev_hl = 0, prev_un = 0;
  for (unsigned n = 1; n <= 16; ++n) {
    const double hl =
        sim::to_usec(forkjoin_time(n, rt::Placement::kHighLocality, trials));
    const double un =
        sim::to_usec(forkjoin_time(n, rt::Placement::kUniform, trials));
    std::printf("%8u %18.1f %18.1f\n", n, hl, un);
    prev_hl = hl;
    prev_un = un;
  }
  (void)prev_hl;
  (void)prev_un;

  const double hl2 = sim::to_usec(
      forkjoin_time(2, rt::Placement::kHighLocality, trials));
  const double hl8 = sim::to_usec(
      forkjoin_time(8, rt::Placement::kHighLocality, trials));
  const double un2 =
      sim::to_usec(forkjoin_time(2, rt::Placement::kUniform, trials));
  const double un16 =
      sim::to_usec(forkjoin_time(16, rt::Placement::kUniform, trials));
  const double hl9 = sim::to_usec(
      forkjoin_time(9, rt::Placement::kHighLocality, trials));

  const double pair_hl = (hl8 - hl2) / 3.0;
  const double pair_un = (un16 - un2) / 7.0;
  const double step = hl9 - hl8 - pair_hl;
  std::printf("\nderived metrics                      measured   paper\n");
  std::printf("us per thread pair, high locality    %8.1f   ~10\n", pair_hl);
  std::printf("us per thread pair, uniform          %8.1f   ~20\n", pair_un);
  std::printf("second-hypernode step (us)           %8.1f   ~50\n", step);

  spp::bench::Gate gate;
  gate.near("us per thread pair, high locality", pair_hl, 10, 2);
  gate.near("us per thread pair, uniform", pair_un, 20, 4);
  gate.near("second-hypernode step (us)", step, 50, 10);
  return gate.exit_code();
}
