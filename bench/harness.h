// sppsim-bench: one harness for every paper table, figure, ablation and
// acceptance workload (docs/PERFORMANCE.md).
//
// Each entry is a plain function of a Run.  A figure entry regenerates one
// table or figure from the paper, printing the same rows/series with a
// `paper` column carrying the published value where one exists; `--full`
// switches from CI-sized runs to the paper's actual problem sizes
// (documented per entry).  An acceptance workload prints nothing of its own.
//
// The entries that print derived metrics also check them against the
// paper's bands (the gate checks of Run) and fail the run when one leaves
// its band; the reduced-size runs are registered as ctests labelled `paper`
// (bench/CMakeLists.txt), so `ctest -L paper` is the paper-conformance gate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>

#include "spp/arch/machine.h"
#include "spp/lib/scatter_add.h"
#include "spp/rt/loops.h"
#include "spp/rt/runtime.h"

namespace spp::bench {

/// One entry's run: the size switch in; out, one record of everything the
/// entry simulated, and the verdict of its paper gate.
class Run {
 public:
  explicit Run(bool full) : full_(full) {}

  /// The paper's problem sizes (figures) or the full acceptance sizes, in
  /// place of the reduced / smoke ones.
  bool full() const { return full_; }

  /// Adds one finished machine to the record: `elapsed` to sim_ns(), and
  /// its counter digest d folded into digest() in sealing order as
  /// (digest ^ d) * FNV prime, so a change to any one digest changes the
  /// record.  An entry that seals one machine records exactly
  /// {elapsed, perf().digest(elapsed)}.
  void seal(const arch::Machine& machine, sim::Time elapsed) {
    const std::uint64_t d = machine.perf().digest(elapsed);
    sim_ns_ += elapsed;
    digest_ = sealed_++ == 0 ? d : (digest_ ^ d) * 1099511628211ull;
  }
  void seal(rt::Runtime& runtime) {
    seal(runtime.machine(), runtime.elapsed());
  }

  sim::Time sim_ns() const { return sim_ns_; }
  std::uint64_t digest() const { return digest_; }

  // The paper gate: each check prints one `paper gate` line.

  /// `value` must lie in [lo, hi].
  void within(const char* what, double value, double lo, double hi) {
    report(what, value >= lo && value <= hi);
    std::printf("   %.2f in [%.2f, %.2f]\n", value, lo, hi);
  }
  /// `value` must lie within `tol` of the paper's `target`.
  void near(const char* what, double value, double target, double tol) {
    within(what, value, target - tol, target + tol);
  }
  /// A shape predicate of the figure.
  void expect(const char* what, bool ok) {
    report(what, ok);
    std::printf("\n");
  }

  bool gate_failed() const { return gate_failures_ > 0; }

 private:
  void report(const char* what, bool ok) {
    if (!ok) ++gate_failures_;
    std::printf("paper gate %-4s %s", ok ? "ok" : "FAIL", what);
  }

  bool full_;
  sim::Time sim_ns_ = 0;
  std::uint64_t digest_ = 0;
  unsigned sealed_ = 0;
  int gate_failures_ = 0;
};

/// Runs one application on a fresh runtime of `nodes` hypernodes and seals
/// the runtime into `run`: builds App(runtime, cfg, np, placement), lets
/// `init` set its initial conditions, simulates app.run() and returns its
/// result.
template <class App, class Config, class Init = void (*)(App&)>
auto run_app(Run& run, unsigned nodes, const Config& cfg, unsigned np,
             rt::Placement placement, Init init = [](App&) {}) {
  rt::Runtime runtime(arch::Topology{.nodes = nodes});
  App app(runtime, cfg, np, placement);
  init(app);
  decltype(app.run()) res;
  runtime.run([&] { res = app.run(); });
  run.seal(runtime);
  return res;
}

/// The banner a figure entry prints first.
inline void header(const char* id, const char* title, const Run& run) {
  std::printf("==============================================================\n");
  std::printf("%s: %s\n", id, title);
  std::printf("scale: %s (use --full for the paper's problem sizes)\n",
              run.full() ? "FULL (paper)" : "default (reduced)");
  std::printf("==============================================================\n");
}

// The figure and ablation entries, one source file each.
void fig2_forkjoin(Run& run);
void fig3_barrier(Run& run);
void fig4_message(Run& run);
void latency(Run& run);
void fig6_pic(Run& run);
void fig7_fem(Run& run);
void fig8_nbody(Run& run);
void table2_ppm(Run& run);
void cache_sweep(Run& run);
void loop_schedules(Run& run);
void scatter_strategies(Run& run);

/// One cell of the loop-schedule ablation: simulated ms of a 16-thread loop
/// of `n` iterations on two hypernodes.
double loop_ms(Run& run, rt::Schedule schedule, bool imbalanced,
               std::size_t n, std::size_t chunk);
/// One cell of the scatter-add ablation: simulated ms of `m` adds into `n`
/// far-shared doubles from 16 processors on two hypernodes.
double scatter_ms(Run& run, lib::ScatterStrategy strategy, std::size_t n,
                  std::size_t m, bool contended);

}  // namespace spp::bench
