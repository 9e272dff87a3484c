// Ablation (section 7 future work): static vs dynamic vs guided loop
// scheduling.  "More dynamic load balancing and lightweight threads needs to
// be developed and implemented on this system to ease the programming
// burden" -- this bench quantifies what that would have bought, and what it
// costs (each dynamic grab is an uncached fetch-and-add at the shared
// counter's home hypernode).
#include <cstdio>

#include "bench/harness.h"
#include "spp/rt/loops.h"
#include "spp/rt/runtime.h"

namespace spp::bench {

double loop_ms(Run& run, rt::Schedule schedule, bool imbalanced,
               std::size_t n, std::size_t chunk) {
  rt::Runtime runtime(arch::Topology{.nodes = 2});
  rt::LoopOptions opts;
  opts.schedule = schedule;
  opts.chunk = chunk;
  runtime.run([&] {
    rt::parallel_for(runtime, n, 16, rt::Placement::kUniform, opts,
                     [&](std::size_t i) {
                       // Uniform work, or triangular (last iterations are
                       // the heaviest -- the worst case for static blocks).
                       const double w =
                           imbalanced ? static_cast<double>(i) * 0.5 : 60.0;
                       runtime.work_flops(20.0 + w);
                     });
  });
  run.seal(runtime);
  return sim::to_seconds(runtime.elapsed()) * 1e3;
}

namespace {

const char* name(rt::Schedule s) {
  switch (s) {
    case rt::Schedule::kStatic:
      return "static";
    case rt::Schedule::kDynamic:
      return "dynamic";
    case rt::Schedule::kGuided:
      return "guided";
  }
  return "?";
}

}  // namespace

void loop_schedules(Run& run) {
  header("Ablation", "Loop scheduling (section 7 future work)", run);
  const std::size_t n = run.full() ? 16384 : 4096;

  std::printf("%10s %8s | %12s %12s\n", "schedule", "chunk", "uniform_ms",
              "triangular_ms");
  for (const auto s : {rt::Schedule::kStatic, rt::Schedule::kDynamic,
                       rt::Schedule::kGuided}) {
    for (const std::size_t chunk : {8u, 64u}) {
      if (s == rt::Schedule::kStatic && chunk != 8u) continue;
      // Two statements: the runtimes are sealed in a fixed order.
      const double uniform = loop_ms(run, s, false, n, chunk);
      const double triangular = loop_ms(run, s, true, n, chunk);
      std::printf("%10s %8zu | %12.3f %12.3f\n", name(s),
                  s == rt::Schedule::kStatic ? 0 : chunk, uniform, triangular);
    }
  }
  std::printf(
      "\nexpected shape: static wins on uniform work (no counter traffic);\n"
      "dynamic/guided win under imbalance; guided needs fewer grabs than\n"
      "small-chunk dynamic.\n");
}

}  // namespace spp::bench
