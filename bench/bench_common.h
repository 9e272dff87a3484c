// Shared helpers for the paper-reproduction bench harness.
//
// Every bench binary regenerates one table or figure from the paper,
// printing the same rows/series with a `paper=` column carrying the
// published value where one exists.  `--full` switches from CI-sized runs to
// the paper's actual problem sizes (documented per bench).
//
// The benches that print derived metrics also check them against the
// paper's bands (Gate below) and exit nonzero when one leaves its band; the
// reduced-size runs are registered as ctests labelled `paper`
// (bench/CMakeLists.txt), so `ctest -L paper` is the paper-conformance gate.
#pragma once

#include <cstdio>
#include <cstring>
#include <string>

namespace spp::bench {

struct Options {
  bool full = false;  ///< run the paper's actual sizes (slow).

  static Options parse(int argc, char** argv) {
    Options o;
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--full") == 0) o.full = true;
    }
    return o;
  }
};

inline void header(const char* id, const char* title, const Options& opts) {
  std::printf("==============================================================\n");
  std::printf("%s: %s\n", id, title);
  std::printf("scale: %s (use --full for the paper's problem sizes)\n",
              opts.full ? "FULL (paper)" : "default (reduced)");
  std::printf("==============================================================\n");
}

/// The paper gate of one bench: each check prints one `paper gate` line,
/// and exit_code() is 1 when any check failed.
class Gate {
 public:
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

  int exit_code() const { return failures_ == 0 ? 0 : 1; }

 private:
  void report(const char* what, bool ok) {
    if (!ok) ++failures_;
    std::printf("paper gate %-4s %s", ok ? "ok" : "FAIL", what);
  }

  int failures_ = 0;
};

}  // namespace spp::bench
