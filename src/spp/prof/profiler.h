// CXpa-style performance instrumentation (section 6: "a valued aid in
// achieving such optimized codes was the availability of hardware supported
// instrumentation including counters for cache miss enumeration and timing
// ... CXpa provided good average behavior profiling that exposes at least
// coarse grained imbalances in execution across the parallel resources").
//
// The Profiler aggregates, per named phase and per thread:
//   * simulated time spent in the phase;
//   * deltas of the hardware counters (hits, misses by level, invalidations)
//     for the thread's CPU.
// report() prints a phase table with imbalance factors (max/mean thread
// time, the paper's "coarse grained imbalance"), and memory_map() prints the
// simulated allocation map by memory class.
#pragma once

#include <cstdio>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "spp/arch/perf.h"
#include "spp/rt/runtime.h"

namespace spp::prof {

class Profiler {
 public:
  Profiler(rt::Runtime& rt, unsigned nthreads)
      : rt_(&rt), nthreads_(nthreads) {}

  /// Marks phase entry for the calling thread (inside a parallel region).
  /// Throws std::out_of_range for a tid at or beyond the thread count.
  void begin(unsigned tid, const std::string& phase);
  /// Marks phase exit; accumulates time + counter deltas.
  void end(unsigned tid, const std::string& phase);

  /// RAII phase scope.
  class Scope {
   public:
    Scope(Profiler& p, unsigned tid, std::string phase)
        : p_(p), tid_(tid), phase_(std::move(phase)) {
      p_.begin(tid_, phase_);
    }
    ~Scope() { p_.end(tid_, phase_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Profiler& p_;
    unsigned tid_;
    std::string phase_;
  };

  struct PhaseStats {
    sim::Time total = 0;                 ///< summed over threads.
    sim::Time max_thread = 0;            ///< slowest thread.
    std::vector<sim::Time> per_thread;   ///< indexed by tid.
    std::uint64_t misses = 0;            ///< L1 misses, all classes.
    std::uint64_t remote_misses = 0;
    std::uint64_t invalidations = 0;
    double flops = 0;

    /// max/mean thread time: 1.0 = perfectly balanced.
    double imbalance() const;
  };

  const PhaseStats& stats(const std::string& phase) const;
  bool has_phase(const std::string& phase) const {
    return phases_.count(phase) != 0;
  }

  /// Prints the phase table to `out` (defaults to stdout).
  void report(std::FILE* out = stdout) const;

  /// Prints the machine's allocation map (region, class, size, home).
  void memory_map(std::FILE* out = stdout) const;

  // Each family report prints every row of one family of the counter table
  // (arch/perf.h) under its table name, or a single "none" line when every
  // counter of the family is zero.

  /// Prints the fault-injection and recovery counters (docs/FAULTS.md).
  void fault_report(std::FILE* out = stdout) const;

  /// Prints the simulation-time verification counters (docs/CHECKER.md).
  void check_report(std::FILE* out = stdout) const;

  /// Prints the checkpoint counters, the ckpt family of arch/perf.h
  /// (docs/RECOVERY.md).
  void recovery_report(std::FILE* out = stdout) const;

  /// Prints the host-I/O fault and durable-layer degradation counters
  /// (docs/RECOVERY.md, "Host I/O faults & the degradation ladder"),
  /// with a loud alarm line if the run fell back to in-memory-only epochs.
  void io_report(std::FILE* out = stdout) const;

 private:
  using CounterRows = std::span<const arch::Counter<arch::PerfCounters>>;

  /// Prints `rows` under `title`, or just `none` when all of them are zero.
  void print_family(std::FILE* out, const char* title, const char* none,
                    CounterRows rows) const;

  struct OpenPhase {
    sim::Time t0 = 0;
    arch::CpuCounters c0;
    bool open = false;
  };

  rt::Runtime* rt_;
  unsigned nthreads_;
  std::map<std::string, PhaseStats> phases_;
  std::map<std::pair<std::string, unsigned>, OpenPhase> open_;
};

}  // namespace spp::prof
