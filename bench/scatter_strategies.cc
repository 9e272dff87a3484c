// Ablation: the scatter-add problem (sections 5.2.1 and 6).
//
// Compares the three strategies of spp::lib::scatter_add under low and high
// index contention, on 16 processors across two hypernodes.  This is the
// design space behind the PIC deposit (private staging) and the FEM
// point-phase aggregation (owner-computes), and the reason the paper calls
// scatter-add out as a missing fine-tuned library.
#include <cstdio>
#include <vector>

#include "bench/harness.h"
#include "spp/lib/scatter_add.h"
#include "spp/sim/rng.h"

namespace spp::bench {

double scatter_ms(Run& run, lib::ScatterStrategy strategy, std::size_t n,
                  std::size_t m, bool contended) {
  rt::Runtime runtime(arch::Topology{.nodes = 2});
  rt::GlobalArray<double> target(runtime, n, arch::MemClass::kFarShared, "t");
  sim::Rng rng(99);
  std::vector<std::int32_t> idx(m);
  std::vector<double> val(m, 1.0);
  for (std::size_t k = 0; k < m; ++k) {
    idx[k] = static_cast<std::int32_t>(contended ? rng.below(8)
                                                 : rng.below(n));
  }
  const auto stats = lib::scatter_add(runtime, target, idx, val, 16,
                                      rt::Placement::kUniform, strategy);
  run.seal(runtime);
  return sim::to_seconds(stats.sim_time) * 1e3;
}

namespace {

const char* name(lib::ScatterStrategy s) {
  switch (s) {
    case lib::ScatterStrategy::kPrivate:
      return "private+tree";
    case lib::ScatterStrategy::kLocked:
      return "striped-locks";
    case lib::ScatterStrategy::kOwner:
      return "owner-computes";
  }
  return "?";
}

}  // namespace

void scatter_strategies(Run& run) {
  header("Ablation", "Scatter-add strategies (sections 5.2/6)", run);
  const std::size_t n = run.full() ? 16384 : 2048;
  const std::size_t m = run.full() ? 200000 : 40000;

  std::printf("%16s | %12s %14s\n", "strategy", "spread_ms", "contended_ms");
  for (const auto s :
       {lib::ScatterStrategy::kPrivate, lib::ScatterStrategy::kLocked,
        lib::ScatterStrategy::kOwner}) {
    // Two statements: the runtimes are sealed in a fixed order.
    const double spread = scatter_ms(run, s, n, m, false);
    const double contended = scatter_ms(run, s, n, m, true);
    std::printf("%16s | %12.3f %14.3f\n", name(s), spread, contended);
  }
  std::printf(
      "\nexpected shape: private staging is immune to contention; locks\n"
      "collapse when all updates hit a few lines; owner-computes pays P-fold\n"
      "read amplification but never synchronizes.\n");
}

}  // namespace spp::bench
