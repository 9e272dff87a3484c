// Hardware-style performance counters.
//
// Section 6 praises the SPP-1000's "hardware supported instrumentation
// including counters for cache miss enumeration and timing" (CXpa); this is
// the simulator's equivalent, and the application benches report from it.
#pragma once

#include <cstdint>
#include <vector>

#include "spp/sim/time.h"

namespace spp::arch {

struct CpuCounters {
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t l1_hits = 0;
  std::uint64_t upgrades = 0;        ///< write hits on Shared lines.
  std::uint64_t miss_fu_local = 0;   ///< home is the accessor's own FU.
  std::uint64_t miss_node = 0;       ///< home in another FU of the same node.
  std::uint64_t miss_gcache = 0;     ///< satisfied by the node's gcache.
  std::uint64_t miss_remote = 0;     ///< full SCI ring transaction.
  std::uint64_t writebacks = 0;
  std::uint64_t uncached_ops = 0;
  std::uint64_t atomic_ops = 0;
  std::uint64_t invals_received = 0;
  sim::Time mem_stall = 0;           ///< total ns spent beyond the 1-cycle hit.
  sim::Time compute = 0;             ///< total ns of charged compute work.
  double flops = 0;                  ///< charged floating point operations.

  // Always zero and outside digest()/total(): perfbench/ still reads them.
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_misses = 0;
  std::uint64_t memo_invalidations = 0;

  std::uint64_t accesses() const { return loads + stores; }
  std::uint64_t misses() const {
    return miss_fu_local + miss_node + miss_gcache + miss_remote;
  }
};

struct PerfCounters {
  explicit PerfCounters(unsigned num_cpus) : cpu(num_cpus) {}

  std::vector<CpuCounters> cpu;
  std::uint64_t ring_packets = 0;
  std::uint64_t sci_purges = 0;        ///< write purge walks executed.
  std::uint64_t sci_purge_targets = 0; ///< total sharers purged.
  std::uint64_t invals_sent = 0;
  std::uint64_t gcache_evictions = 0;
  std::uint64_t l1_evictions = 0;

  // --- fault injection and recovery (spp::fault) ----------------------------
  // All zero unless a FaultInjector is attached; see docs/FAULTS.md.
  std::uint64_t faults_injected = 0;   ///< fault events/incidents applied.
  std::uint64_t pvm_msgs_dropped = 0;
  std::uint64_t pvm_msgs_duplicated = 0;
  std::uint64_t pvm_msgs_delayed = 0;
  std::uint64_t pvm_retries = 0;       ///< retransmission attempts.
  std::uint64_t pvm_retransmitted_bytes = 0;
  std::uint64_t ring_reroutes = 0;     ///< packets detoured off dead links.
  std::uint64_t ring_reroute_hops = 0; ///< extra hops charged by detours.
  std::uint64_t cpu_recoveries = 0;    ///< thread migrations off failed CPUs.
  sim::Time recovery_ns = 0;           ///< simulated time spent recovering.

  // --- checkpoint/restart and failure notification (spp::ckpt, pvm) --------
  // All zero unless an application opts into recovery; see docs/RECOVERY.md.
  std::uint64_t checkpoints_taken = 0;  ///< Store::capture calls.
  std::uint64_t ckpt_bytes = 0;         ///< total bytes snapshotted.
  std::uint64_t rollbacks = 0;          ///< Store::restore calls.
  std::uint64_t tasks_failed = 0;       ///< PVM tasks killed by fail-stop.
  std::uint64_t task_notifications = 0; ///< TaskFailed messages delivered.
  sim::Time ckpt_ns = 0;                ///< simulated time spent capturing.
  sim::Time rollback_ns = 0;            ///< simulated time spent restoring.

  // --- simulation-time verification (spp::check) ----------------------------
  // All zero unless a Checker is attached; see docs/CHECKER.md.
  std::uint64_t check_events = 0;      ///< transactions the oracle examined.
  std::uint64_t check_violations = 0;  ///< coherence invariant violations.
  std::uint64_t races_detected = 0;    ///< happens-before race reports.
  std::uint64_t deadlock_cycles = 0;   ///< wait-for cycles diagnosed.
  std::uint64_t deadlock_reports = 0;  ///< blocked-state diagnoses produced.

  // --- host-I/O faults and durable-layer recovery (spp::io, ckpt) -----------
  // All zero unless the host filesystem misbehaves (or an io::FaultPlan is
  // armed); see docs/RECOVERY.md "Host I/O faults & the degradation ladder".
  // These describe the HOST, not the simulated machine: they are excluded
  // from digest() (like flops) so a run that weathered disk faults still
  // reproduces the fault-free run's digest bit-for-bit, and they are never
  // serialized into epoch files (a resumed process starts them at zero).
  std::uint64_t io_faults_injected = 0;   ///< faults an armed plan delivered.
  std::uint64_t io_transient_errors = 0;  ///< retryable failures observed.
  std::uint64_t io_permanent_errors = 0;  ///< non-retryable failures observed.
  std::uint64_t io_retries = 0;           ///< backoff-then-retry attempts.
  std::uint64_t io_commit_failures = 0;   ///< epoch commits abandoned.
  std::uint64_t io_degradations = 0;      ///< disk-commit stride widenings.
  std::uint64_t io_memory_only_epochs = 0;  ///< boundaries with no disk at all.
  std::uint64_t io_epochs_skipped = 0;    ///< corrupt epochs load fell past.

  CpuCounters total() const {
    CpuCounters t;
    for (const auto& c : cpu) {
      t.loads += c.loads;
      t.stores += c.stores;
      t.l1_hits += c.l1_hits;
      t.upgrades += c.upgrades;
      t.miss_fu_local += c.miss_fu_local;
      t.miss_node += c.miss_node;
      t.miss_gcache += c.miss_gcache;
      t.miss_remote += c.miss_remote;
      t.writebacks += c.writebacks;
      t.uncached_ops += c.uncached_ops;
      t.atomic_ops += c.atomic_ops;
      t.invals_received += c.invals_received;
      t.mem_stall += c.mem_stall;
      t.compute += c.compute;
      t.flops += c.flops;
    }
    return t;
  }

  void reset() {
    const auto n = cpu.size();
    *this = PerfCounters(static_cast<unsigned>(n));
  }

  /// Order-sensitive FNV-1a digest of every integer counter the machine
  /// keeps -- per-CPU families in declaration order, then the globals --
  /// plus the caller's final simulated time.  Two runs of the same workload
  /// must produce bit-identical digests regardless of host; this is the
  /// oracle the determinism tests and sppsim-bench use (docs/PERFORMANCE.md).
  /// `flops` is a double accumulated identically on every path and is
  /// deliberately excluded to keep the digest integral.
  /// The io_* family is also deliberately excluded: those counters describe
  /// host-filesystem weather, and a run that retried or degraded around
  /// disk faults must still digest identically to the fault-free run.
  std::uint64_t digest(sim::Time elapsed) const {
    std::uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](std::uint64_t v) {
      for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xffu;
        h *= 1099511628211ull;
      }
    };
    for (const CpuCounters& c : cpu) {
      mix(c.loads);
      mix(c.stores);
      mix(c.l1_hits);
      mix(c.upgrades);
      mix(c.miss_fu_local);
      mix(c.miss_node);
      mix(c.miss_gcache);
      mix(c.miss_remote);
      mix(c.writebacks);
      mix(c.uncached_ops);
      mix(c.atomic_ops);
      mix(c.invals_received);
      mix(c.mem_stall);
      mix(c.compute);
    }
    mix(ring_packets);
    mix(sci_purges);
    mix(sci_purge_targets);
    mix(invals_sent);
    mix(gcache_evictions);
    mix(l1_evictions);
    mix(faults_injected);
    mix(pvm_msgs_dropped);
    mix(pvm_msgs_duplicated);
    mix(pvm_msgs_delayed);
    mix(pvm_retries);
    mix(pvm_retransmitted_bytes);
    mix(ring_reroutes);
    mix(ring_reroute_hops);
    mix(cpu_recoveries);
    mix(recovery_ns);
    mix(checkpoints_taken);
    mix(ckpt_bytes);
    mix(rollbacks);
    mix(tasks_failed);
    mix(task_notifications);
    mix(ckpt_ns);
    mix(rollback_ns);
    mix(check_events);
    mix(check_violations);
    mix(races_detected);
    mix(deadlock_cycles);
    mix(deadlock_reports);
    mix(elapsed);
    return h;
  }
};

}  // namespace spp::arch
