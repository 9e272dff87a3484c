// Section 6 (ablation): in-cache versus out-of-cache application behaviour.
//
// "Problems that largely resided in cache versus those that were big enough
//  to consume large portions of main memory easily show performance
//  difference of a factor of three for the same application and this just on
//  a single hypernode."
//
// A stride-1 accumulate kernel (representative of the apps' sweeps) runs on
// 8 processors of one hypernode over working sets from cache-resident to 4x
// cache capacity; reported rate normalizes to the resident case.
#include <cstdio>

#include "bench/harness.h"
#include "spp/rt/garray.h"
#include "spp/rt/runtime.h"

namespace spp::bench {
namespace {

/// Mflop/s of an 8-thread sweep kernel over `kb` KB of far-shared data.
double sweep_rate(Run& run, std::size_t kb, unsigned reps) {
  rt::Runtime runtime(arch::Topology{.nodes = 1});
  const std::size_t n = kb * 1024 / sizeof(double);
  rt::GlobalArray<double> data(runtime, n, arch::MemClass::kFarShared,
                               "sweep");
  runtime.run([&] {
    runtime.parallel(8, rt::Placement::kHighLocality,
                     [&](unsigned tid, unsigned nt) {
                       const std::size_t lo = tid * n / nt;
                       const std::size_t hi = (tid + 1) * n / nt;
                       for (unsigned r = 0; r < reps; ++r) {
                         for (std::size_t i = lo; i < hi; i += 4) {
                           data.write(i, data.read(i) + 1.0);
                           runtime.work_flops(2);
                         }
                       }
                     });
  });
  run.seal(runtime);
  const double flops = runtime.machine().perf().total().flops;
  return flops / (sim::to_seconds(runtime.elapsed()) * 1e6);
}

}  // namespace

void cache_sweep(Run& run) {
  header("Section 6 (ablation)", "In-cache vs out-of-cache performance", run);
  const unsigned reps = run.full() ? 8 : 3;

  // 8 CPUs x 1 MB caches = 8 MB aggregate.
  std::printf("%14s %12s %10s\n", "working_set", "Mflop/s", "slowdown");
  double resident = 0;
  for (std::size_t kb : {1024u, 2048u, 4096u, 8192u, 16384u, 32768u}) {
    const double rate = sweep_rate(run, kb, reps);
    if (resident == 0) resident = rate;
    std::printf("%11zu KB %12.1f %9.2fx\n", kb, rate, resident / rate);
  }
  std::printf("\npaper: 'easily ... a factor of three' between cache-resident\n"
              "and memory-resident problems on a single hypernode.\n");
}

}  // namespace spp::bench
