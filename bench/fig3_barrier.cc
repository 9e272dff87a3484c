// Figure 3: Cost of Barrier Synchronization.
//
// Two metrics as defined in section 4.2, for high-locality and uniform
// placements plus the single-hypernode reference of the authors' earlier
// study [24]:
//   * Last In - First Out: minimum time from the last thread entering the
//     barrier to the first thread continuing (~3.5 us on one hypernode,
//     +~1 us once a second hypernode is involved);
//   * Last In - Last Out: minimum time from the last thread entering to the
//     last thread continuing (~2 us per thread beyond the second on one
//     hypernode, with an additional penalty across hypernodes).
//
// Methodology mirrors the paper: timestamps before entry and after exit of
// every thread, many trials, minima reported.
#include <algorithm>
#include <cstdio>
#include <numeric>
#include <utility>
#include <vector>

#include "bench/harness.h"
#include "spp/rt/runtime.h"
#include "spp/rt/sync.h"
#include "spp/sim/rng.h"

namespace spp::bench {
namespace {

struct BarrierCost {
  double lifo_us;  ///< last in -> first out
  double lilo_us;  ///< last in -> last out
};

BarrierCost barrier_cost(Run& run, unsigned nodes, unsigned nthreads,
                         rt::Placement placement, unsigned trials) {
  rt::Runtime runtime(arch::Topology{.nodes = nodes});
  double best_lifo = 1e300, best_lilo = 1e300;
  sim::Rng rng;
  runtime.run([&] {
    rt::Barrier barrier(runtime, nthreads);
    std::vector<sim::Time> entry(nthreads), exit_t(nthreads);
    std::vector<unsigned> order(nthreads);
    for (unsigned k = 0; k < trials; ++k) {
      // A fresh arrival order per trial (Fisher-Yates): every thread arrives
      // at its own instant, and the minimum over trials samples favorable
      // orderings, as the paper's minima do.
      std::iota(order.begin(), order.end(), 0u);
      for (unsigned j = nthreads - 1; j > 0; --j) {
        std::swap(order[j], order[rng.below(j + 1)]);
      }
      runtime.parallel(nthreads, placement, [&](unsigned i, unsigned) {
        // Align first (cancels thread-creation stagger), then stagger
        // arrivals in this trial's order.
        barrier.wait();
        runtime.work_flops(5000.0 * order[i] + 130.0 * (k % 3));
        entry[i] = runtime.now();
        barrier.wait();
        exit_t[i] = runtime.now();
      });
      const sim::Time last_in = *std::max_element(entry.begin(), entry.end());
      const sim::Time first_out =
          *std::min_element(exit_t.begin(), exit_t.end());
      const sim::Time last_out =
          *std::max_element(exit_t.begin(), exit_t.end());
      best_lifo = std::min(best_lifo, sim::to_usec(first_out - last_in));
      best_lilo = std::min(best_lilo, sim::to_usec(last_out - last_in));
    }
  });
  run.seal(runtime);
  return {best_lifo, best_lilo};
}

}  // namespace

void fig3_barrier(Run& run) {
  header("Figure 3", "Cost of Barrier Synchronization", run);
  const unsigned trials = run.full() ? 40 : 8;

  std::printf("%8s | %12s %12s | %12s %12s | %12s %12s\n", "threads",
              "hl_lifo_us", "hl_lilo_us", "uni_lifo_us", "uni_lilo_us",
              "1node_lifo", "1node_lilo");
  bool hl_rising = true, un_rising = true;
  BarrierCost hl_prev{0, 0}, un_prev{0, 0}, one2{0, 0}, one8{0, 0};
  for (unsigned n = 2; n <= 16; ++n) {
    const BarrierCost hl =
        barrier_cost(run, 2, n, rt::Placement::kHighLocality, trials);
    const BarrierCost un =
        barrier_cost(run, 2, n, rt::Placement::kUniform, trials);
    hl_rising = hl_rising && hl.lifo_us >= hl_prev.lifo_us;
    un_rising = un_rising && un.lifo_us >= un_prev.lifo_us;
    hl_prev = hl;
    un_prev = un;
    if (n <= 8) {
      const BarrierCost one =
          barrier_cost(run, 1, n, rt::Placement::kHighLocality, trials);
      if (n == 2) one2 = one;
      if (n == 8) one8 = one;
      std::printf("%8u | %12.2f %12.2f | %12.2f %12.2f | %12.2f %12.2f\n", n,
                  hl.lifo_us, hl.lilo_us, un.lifo_us, un.lilo_us, one.lifo_us,
                  one.lilo_us);
    } else {
      std::printf("%8u | %12.2f %12.2f | %12.2f %12.2f | %12s %12s\n", n,
                  hl.lifo_us, hl.lilo_us, un.lifo_us, un.lilo_us, "-", "-");
    }
  }

  const BarrierCost hl16 = hl_prev;  // the last row
  const double slope = (one8.lilo_us - one2.lilo_us) / 6.0;
  std::printf("\nderived metrics                          measured   paper\n");
  std::printf("one-node last-in/first-out (us)          %8.2f   ~3.5\n",
              one8.lifo_us);
  std::printf("two-node extra lifo cost (us)            %8.2f   ~1\n",
              hl16.lifo_us - one8.lifo_us);
  std::printf("one-node release slope (us/thread)       %8.2f   ~2\n", slope);

  run.near("one-node last-in/first-out (us)", one8.lifo_us, 3.5, 0.7);
  run.near("one-node release slope (us/thread)", slope, 2, 0.4);
  run.expect("two-node lifo non-decreasing in threads, high locality",
             hl_rising);
  run.expect("two-node lifo non-decreasing in threads, uniform", un_rising);
}

}  // namespace spp::bench
