// Hardware-style performance counters.
//
// Section 6 praises the SPP-1000's "hardware supported instrumentation
// including counters for cache miss enumeration and timing" (CXpa); this is
// the simulator's equivalent, and the application benches report from it.
//
// Every integer counter is declared once, in the table below.  The table
// generates the fields, total(), digest(), the epoch-file serialization
// (ckpt/disk.cc, through for_each_saved) and the Profiler's family reports
// (prof/profiler.cc).
#pragma once

#include <cstdint>
#include <type_traits>
#include <vector>

#include "spp/sim/time.h"

namespace spp::arch {

// ---------------------------------------------------------------------------
// The counter table
// ---------------------------------------------------------------------------
// One X-macro list per family; each row is X(name, "one-line doc").  Every
// counter is a std::uint64_t starting at zero; mem_stall, compute and the
// *_ns rows count simulated nanoseconds.
//
// Row order is digest() order and epoch-file order.  Adding, removing or
// moving a simulated row changes every digest and the epoch format:
// rebaseline and bump the format version (ckpt/disk.cc) in the same change.
//
// Every family but io is simulated: digested and saved in epoch files.  The
// io family describes the host, not the simulated machine: it stays out of
// digest() so a run that weathered disk faults reproduces the fault-free
// run's digest bit-for-bit, and out of epoch files so a resumed process
// starts it at zero.

/// Per CPU: the memory hierarchy and work as that CPU saw them.
#define SPP_CPU_COUNTERS(X)                                             \
  X(loads, "charged loads")                                             \
  X(stores, "charged stores")                                           \
  X(l1_hits, "accesses the L1 satisfied")                               \
  X(upgrades, "write hits on Shared lines")                             \
  X(miss_fu_local, "misses homed in the accessor's own FU")             \
  X(miss_node, "misses homed in another FU of the same node")           \
  X(miss_gcache, "misses satisfied by the node's gcache")               \
  X(miss_remote, "misses that took a full SCI ring transaction")        \
  X(writebacks, "dirty lines written back")                             \
  X(uncached_ops, "uncached loads and stores")                          \
  X(atomic_ops, "atomic read-modify-writes")                            \
  X(invals_received, "invalidations of this CPU's L1 lines")            \
  X(mem_stall, "ns spent beyond the 1-cycle hit")                       \
  X(compute, "ns of charged compute work")

/// Machine-wide coherence and SCI ring traffic.
#define SPP_ARCH_COUNTERS(X)                                            \
  X(ring_packets, "SCI ring packets sent")                              \
  X(sci_purges, "write purge walks executed")                           \
  X(sci_purge_targets, "sharers purged, summed over walks")             \
  X(invals_sent, "L1 invalidations sent")                               \
  X(gcache_evictions, "gcache lines evicted")                           \
  X(l1_evictions, "L1 lines evicted")

/// Fault injection and recovery (spp::fault): all zero unless a
/// FaultInjector is attached; see docs/FAULTS.md.
#define SPP_FAULT_COUNTERS(X)                                           \
  X(faults_injected, "fault events/incidents applied")                  \
  X(pvm_msgs_dropped, "PVM messages the plan dropped")                  \
  X(pvm_msgs_duplicated, "PVM messages the plan duplicated")            \
  X(pvm_msgs_delayed, "PVM messages the plan delayed")                  \
  X(pvm_retries, "PVM retransmission attempts")                         \
  X(pvm_retransmitted_bytes, "payload bytes retransmitted")             \
  X(ring_reroutes, "packets detoured off dead links")                   \
  X(ring_reroute_hops, "extra hops charged by detours")                 \
  X(cpu_recoveries, "thread migrations off failed CPUs")                \
  X(recovery_ns, "simulated ns spent recovering")

/// Checkpoints (spp::ckpt): all zero unless a Store captures; see
/// docs/RECOVERY.md.  rollbacks, tasks_failed, task_notifications and
/// rollback_ns count deleted mechanisms and always read 0; they stay
/// because the digest and the epoch v2 layout are pinned.
#define SPP_CKPT_COUNTERS(X)                                            \
  X(checkpoints_taken, "Store::capture calls")                          \
  X(ckpt_bytes, "total bytes snapshotted")                              \
  X(rollbacks, "kept for the pinned layout; no longer incremented")     \
  X(tasks_failed, "kept for the pinned layout; no longer incremented")  \
  X(task_notifications,                                                 \
    "kept for the pinned layout; no longer incremented")                \
  X(ckpt_ns, "simulated ns spent capturing")                            \
  X(rollback_ns, "kept for the pinned layout; no longer incremented")

/// Simulation-time verification (spp::check): all zero unless a Checker
/// is attached; see docs/CHECKER.md.
#define SPP_CHECK_COUNTERS(X)                                           \
  X(check_events, "transactions the oracle examined")                   \
  X(check_violations, "coherence invariant violations")                 \
  X(races_detected, "happens-before race reports")                      \
  X(deadlock_cycles, "wait-for cycles diagnosed")                       \
  X(deadlock_reports, "blocked-state diagnoses produced")

/// Host-I/O faults and durable-layer recovery (spp::io, ckpt), host-side:
/// all zero unless the host filesystem misbehaves or an io::FaultPlan is
/// armed; see docs/RECOVERY.md "Host I/O faults & the degradation ladder".
#define SPP_IO_COUNTERS(X)                                              \
  X(io_faults_injected, "faults an armed plan delivered")               \
  X(io_transient_errors, "retryable failures observed")                 \
  X(io_permanent_errors, "non-retryable failures observed")             \
  X(io_retries, "backoff-then-retry attempts")                          \
  X(io_commit_failures, "epoch commits abandoned")                      \
  X(io_degradations, "disk-commit stride widenings")                    \
  X(io_memory_only_epochs, "boundaries with no disk at all")            \
  X(io_epochs_skipped, "corrupt epochs a load fell past")

#define SPP_COUNTER_FIELD(name, doc) std::uint64_t name = 0;

struct CpuCounters {
  SPP_CPU_COUNTERS(SPP_COUNTER_FIELD)
  /// Charged floating point operations: a double, saved and summed by
  /// total() but kept out of digest() so the digest stays integral.
  double flops = 0;

  // Always zero and outside digest()/total(): perfbench/ still reads them.
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_misses = 0;
  std::uint64_t memo_invalidations = 0;

  std::uint64_t accesses() const { return loads + stores; }
  std::uint64_t misses() const {
    return miss_fu_local + miss_node + miss_gcache + miss_remote;
  }

  /// Calls f(member pointer) for every saved field, in epoch-file order:
  /// the table's rows, then flops.
  template <typename F>
  static void for_each_saved_field(F&& f);
};

/// One row of the table, for code that walks a family: its name and field.
template <typename S>
struct Counter {
  const char* name;
  std::uint64_t S::*field;
};

#define SPP_CPU_ROW(name, doc) Counter<CpuCounters>{#name, &CpuCounters::name},
inline constexpr Counter<CpuCounters> kCpuCounters[] = {
    SPP_CPU_COUNTERS(SPP_CPU_ROW)};
#undef SPP_CPU_ROW

struct PerfCounters {
  explicit PerfCounters(unsigned num_cpus) : cpu(num_cpus) {}

  std::vector<CpuCounters> cpu;
  SPP_ARCH_COUNTERS(SPP_COUNTER_FIELD)
  SPP_FAULT_COUNTERS(SPP_COUNTER_FIELD)
  SPP_CKPT_COUNTERS(SPP_COUNTER_FIELD)
  SPP_CHECK_COUNTERS(SPP_COUNTER_FIELD)
  SPP_IO_COUNTERS(SPP_COUNTER_FIELD)

  /// Every CPU's saved fields summed over the machine.
  CpuCounters total() const;

  void reset() {
    const auto n = cpu.size();
    *this = PerfCounters(static_cast<unsigned>(n));
  }

  /// Calls f(field) on every saved counter of `p` (a PerfCounters, const or
  /// not) in epoch-file order: each CPU's saved fields, CPU by CPU, then
  /// the simulated machine-wide rows.  The io rows and memo_* are never
  /// saved, so never visited.
  template <typename P, typename F>
  static void for_each_saved(P& p, F&& f);

  /// Order-sensitive FNV-1a digest of every saved integer counter, in
  /// for_each_saved order (so `flops`, io_* and memo_* are out), plus the
  /// caller's final simulated time.  Two runs of the same workload must
  /// produce bit-identical digests regardless of host; this is the oracle
  /// the determinism tests and sppsim-bench use (docs/PERFORMANCE.md).
  std::uint64_t digest(sim::Time elapsed) const;
};

#undef SPP_COUNTER_FIELD

#define SPP_GLOBAL_ROW(name, doc) \
  Counter<PerfCounters>{#name, &PerfCounters::name},
/// The simulated machine-wide rows, in digest and epoch-file order.
inline constexpr Counter<PerfCounters> kSavedGlobals[] = {
    SPP_ARCH_COUNTERS(SPP_GLOBAL_ROW) SPP_FAULT_COUNTERS(SPP_GLOBAL_ROW)
        SPP_CKPT_COUNTERS(SPP_GLOBAL_ROW) SPP_CHECK_COUNTERS(SPP_GLOBAL_ROW)};
// The families prof::Profiler reports, one array each.
inline constexpr Counter<PerfCounters> kFaultCounters[] = {
    SPP_FAULT_COUNTERS(SPP_GLOBAL_ROW)};
inline constexpr Counter<PerfCounters> kCkptCounters[] = {
    SPP_CKPT_COUNTERS(SPP_GLOBAL_ROW)};
inline constexpr Counter<PerfCounters> kCheckCounters[] = {
    SPP_CHECK_COUNTERS(SPP_GLOBAL_ROW)};
inline constexpr Counter<PerfCounters> kIoCounters[] = {
    SPP_IO_COUNTERS(SPP_GLOBAL_ROW)};
#undef SPP_GLOBAL_ROW

template <typename F>
void CpuCounters::for_each_saved_field(F&& f) {
  for (const Counter<CpuCounters>& row : kCpuCounters) f(row.field);
  f(&CpuCounters::flops);
}

inline CpuCounters PerfCounters::total() const {
  CpuCounters t;
  CpuCounters::for_each_saved_field([&](auto field) {
    for (const CpuCounters& c : cpu) t.*field += c.*field;
  });
  return t;
}

template <typename P, typename F>
void PerfCounters::for_each_saved(P& p, F&& f) {
  for (auto& c : p.cpu) {
    CpuCounters::for_each_saved_field([&](auto field) { f(c.*field); });
  }
  for (const Counter<PerfCounters>& row : kSavedGlobals) f(p.*row.field);
}

inline std::uint64_t PerfCounters::digest(sim::Time elapsed) const {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  for_each_saved(*this, [&mix](const auto& v) {
    if constexpr (std::is_integral_v<std::remove_cvref_t<decltype(v)>>) {
      mix(v);
    }
  });
  mix(elapsed);
  return h;
}

}  // namespace spp::arch
