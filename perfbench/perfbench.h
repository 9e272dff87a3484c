// perfbench: the simulator's benchmark, built from the paper's own
// experiments (section 4's primitives and section 5's applications).
//
// A workload is a fixed list of cases.  A case builds a fresh rt::Runtime
// with the library's default backend and memo mode (so the simulated caches
// start cold, as in the paper's runs), runs one experiment on it, checks the
// result and destroys it.  One pass runs every case once.  Host time is
// measured from outside the program: around each case's set-up and run,
// around the benchmark's own calls into rt and pvm, and -- on the traced
// pass only -- by replaying the machine's transaction stream into a shadow
// arch::Machine (trace.h).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "spp/arch/perf.h"
#include "spp/rt/runtime.h"
#include "spp/sim/time.h"

namespace perfbench {

namespace arch = spp::arch;
namespace rt = spp::rt;
namespace sim = spp::sim;

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// What every case derives its inputs from.
struct Settings {
  std::uint64_t seed = 1;
  bool smoke = false;  ///< tiny sizes, for the self-check.
};

/// A case-specific input seed: splitmix64 of (seed, salt).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt);

/// Host time of the benchmark's own calls into rt and pvm.
struct HostTimers {
  std::vector<double> forkjoin_us;  ///< around Runtime::parallel.
  std::vector<double> send_us;      ///< around Pvm::send.
  double unpack_ns = 0;             ///< around Message::unpack.
  double unpack_kb = 0;
};

/// Public counters of one or more runtimes, read after their runs.
struct Counts {
  arch::CpuCounters cpu;  ///< machine-wide totals.
  std::uint64_t ring_packets = 0;
  std::uint64_t sci_purges = 0;
  std::uint64_t sci_purge_targets = 0;
  std::uint64_t invals_sent = 0;
  std::uint64_t gcache_evictions = 0;
  std::uint64_t l1_evictions = 0;
  std::uint64_t dispatches = 0;
  unsigned workers = 0;
  sim::Time sim_ns = 0;

  void add(rt::Runtime& rt);
  void add(const Counts& o);
  /// Machine calls: one per cached line, uncached op and atomic (uncached
  /// ops already count in loads/stores).
  std::uint64_t transactions() const {
    return cpu.loads + cpu.stores + cpu.atomic_ops;
  }
};

class Tracer;

/// What one case execution reports.
struct CaseResult {
  sim::Time sim_ns = 0;
  std::uint64_t digest = 0;
  std::string failure;  ///< first failed check; empty when the case passed.
  double setup_s = 0;   ///< building the runtime and app state.
  Counts counts;
  std::map<std::string, double> values;  ///< inputs of the paper metrics.
  std::string backend;
  std::string memo;
};

/// The handle a case body measures and checks through.
class CaseCtx {
 public:
  CaseCtx(const Settings& settings, HostTimers& timers, Tracer* tracer);

  const Settings& settings() const { return settings_; }
  HostTimers& timers() { return timers_; }

  /// Ends set-up: `rt` and the app state are built.  On the traced pass
  /// this attaches the tracer to `rt`.
  void start(rt::Runtime& rt);
  /// Ends the run: detaches the tracer and reads `rt`'s counters,
  /// simulated time and digest.
  void finish(rt::Runtime& rt);

  /// Records a failed check; the case runs on.
  void expect(bool ok, const std::string& what);
  void value(const std::string& key, double v) { result_.values[key] = v; }

  CaseResult& result() { return result_; }

 private:
  const Settings& settings_;
  HostTimers& timers_;
  Tracer* tracer_;
  CaseResult result_;
  Clock::time_point begin_;
};

struct Case {
  std::string name;
  std::function<void(CaseCtx&)> body;
};

/// A derived metric comparable with a number the paper states.
struct PaperMetric {
  std::string name;
  double measured = 0;
  double paper = 0;
};

using Values = std::map<std::string, double>;

struct Workload {
  std::string name;
  std::vector<Case> cases;
  /// The workload's paper-comparable metrics, from its cases' values.
  std::function<std::vector<PaperMetric>(const Values&)> paper;
};

/// "apps", "sync" or "pvm"; throws std::invalid_argument otherwise.
Workload make_workload(const std::string& name, const Settings& settings);
/// Two small two-hypernode cases for the replay-exactness check.
Workload make_replay_check(const Settings& settings);

}  // namespace perfbench
