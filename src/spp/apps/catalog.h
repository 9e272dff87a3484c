// The six application codings of the paper's section 5, in one table:
// N-body and PIC in a shared-memory and a PVM coding each, plus FEM and
// PPM.  Every "all apps" caller -- `sppsim-explore run`, `survive`,
// `check` and `chaos-disk`, and the fail-stop, kill/resume and hit-path
// tests -- iterates this table, so each app is built at one size, with one
// set of initial conditions, in one place.
//
// The sizes are small (a CPU-second or less each): they exist to check
// robustness contracts and to print a digest, not to reproduce a figure.
// sppsim-bench builds the paper-sized runs itself.
#pragma once

#include <span>
#include <string_view>
#include <vector>

#include "spp/ckpt/durable.h"
#include "spp/rt/runtime.h"

namespace spp::apps {

/// What one run leaves behind.
struct Outcome {
  /// The final diagnostics: the conserved sums and extrema of the result's
  /// `final` member, then the field-energy history (PIC) or the potential
  /// energy (shared-memory N-body).
  std::vector<double> diag;
  /// The result's running totals: simulated time, flops, initial
  /// diagnostics and per-phase times.
  std::vector<double> totals;
  double mflops = 0;
};

struct App {
  const char* name;  ///< what `sppsim-explore run --app` accepts.
  const char* size;  ///< the problem size `run` prints.
  unsigned steps;    ///< default step count.
  /// A PVM coding: its combines add partial sums in arrival order, so a
  /// fail-stop's migration may perturb its diagnostics in the last bits.
  bool pvm;
  /// Builds the app with `threads` uniformly placed threads (tasks) over
  /// the table's problem, sets its initial conditions and runs `steps`
  /// steps, durably when `spec` is enabled.  Call inside Runtime::run.
  Outcome (*run)(rt::Runtime& rt, unsigned threads, unsigned steps,
                 const ckpt::DurableSpec& spec);
};

/// The six: nbody, fem, pic, ppm, nbody-pvm, pic-pvm.
std::span<const App> catalog();

/// The entry named `name`, or nullptr.
const App* find(std::string_view name);

}  // namespace spp::apps
