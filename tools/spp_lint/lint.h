// spp-lint check engine (docs/STATIC_ANALYSIS.md).
//
// Five project-specific checks over the token streams lexer.h produces:
//
//   sim-no-wallclock        no wall-clock or entropy sources in simulated
//                           code (allowlist: rt::Watchdog, ckpt::Disk,
//                           spp::io backoff, and everything outside src/)
//   sim-no-host-thread      no host threading primitives outside
//                           src/spp/rt/ and src/spp/ckpt/
//   posix-file-io           no raw POSIX/stdio file APIs outside
//                           src/spp/io/ -- every host file operation in
//                           simulated code routes through the io::File /
//                           io::Dir seam so fault injection sees it
//   arch-mutation-charged   cross-module mutations of arch::Machine state
//                           must be charged accessors (or accumulating
//                           counter bumps / cold-path control calls, which
//                           are inventoried); emits the full site inventory
//                           as JSON
//   digest-iter-determinism flags range-for over unordered containers in
//                           functions reachable from PerfCounters::digest
//                           or ckpt::Store::capture
//
// Suppression: a `// spp-lint: allow(<check>): reason` comment on the same
// line or the line above a finding silences it; fixtures under
// tests/lint_fixtures/ prove every check still fires on seeded violations.
#pragma once

#include <string>
#include <vector>

#include "lexer.h"

namespace spplint {

struct Finding {
  std::string check;
  std::string file;
  int line;
  std::string message;
};

/// One cross-module arch-state mutation site (JSON inventory entry).
struct MutationSite {
  std::string file;
  int line;
  std::string module;  ///< "rt", "pvm", "apps", "tools", ...
  std::string expr;    ///< accessor name or mutated counter field.
  /// "charged"   -- goes through a latency-charging Machine accessor.
  /// "counter"   -- accumulating PerfCounters bump (++ / += / -=).
  /// "control"   -- cold-path host/recovery control (reset_stats,
  ///                power_cycle, set_observer, ring health).
  /// "forbidden" -- test-only protocol mutation outside tests/ (violation).
  /// "uncharged" -- anything else, e.g. a plain `=` on machine state
  ///                (violation).
  std::string kind;
};

struct Result {
  std::vector<Finding> findings;
  std::vector<MutationSite> sites;
};

/// Runs all five checks over `files` (one entry per analyzed file; the
/// digest-iter-determinism call graph spans all of them).
Result run_checks(const std::vector<SourceFile>& files);

/// Serializes the mutation inventory as pretty-printed JSON.
std::string sites_to_json(const std::vector<MutationSite>& sites);

}  // namespace spplint
