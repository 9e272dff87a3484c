// Durable (crash-safe) run support: the protocol that turns spp::ckpt::Disk
// epochs into bit-exact resume (docs/RECOVERY.md, "Durable checkpoints &
// resume").
//
// A durable run executes its time loop in chunks of `interval` steps, each
// chunk its own parallel/spawn region.  Between chunks -- on the main
// simulated thread, with every worker joined -- DurableSession::boundary()
//
//   1. takes a charged Store::capture(step) (the same measurable checkpoint
//      cost the in-memory recovery loops pay),
//   2. optionally commits the epoch to disk (gated by --ckpt-wall-interval;
//      host-side, charges nothing), and
//   3. power-cycles the simulated machine (Machine::power_cycle): caches,
//      directory, TLB MRUs, and resource/ring contention state all reset to
//      cold.
//
// Step 3 is what makes resume bit-exact rather than merely close: the
// machine is deterministically cold at every epoch boundary, so a fresh
// process that seeds its Store from a disk epoch, restores the saved
// PerfCounters and main-thread clock, and re-enters the chunk loop at that
// step continues the simulation bit-identically -- the final digest equals
// the uninterrupted run's.  (The resumed process replays the same
// constructor-time allocation sequence, so simulated addresses line up too.)
//
// Graceful shutdown: SIGINT/SIGTERM set a flag (install_shutdown_handlers);
// boundary() notices it at the next quiesce point, force-flushes the epoch
// to disk, and returns false so the driver exits cleanly.
//
// Host-I/O recovery (docs/RECOVERY.md, "Host I/O faults & the degradation
// ladder"): disk commits route through the spp::io seam, so failures carry
// a transient/permanent taxonomy.  Transient failures (flaky-NFS EIO,
// EINTR, descriptor pressure) are retried under capped exponential backoff
// with deterministic jitter; a permanent failure -- or a transient one
// that exhausts its retries -- abandons that epoch's commit and walks the
// degradation ladder: each abandoned commit doubles the disk-commit stride
// (epochs stay in memory, charged and digest-identical; only durability
// thins out), and after `max_degradations` abandonments the session goes
// memory-only with a loud alarm.  The newest valid on-disk epoch is never
// touched by a failing commit (the temp-file protocol is all-or-nothing),
// and the simulated run itself never observes any of this: io_* counters
// are excluded from PerfCounters::digest, so a degraded run still
// reproduces the fault-free digest bit-for-bit.
#pragma once

// spp-lint: allow(sim-no-wallclock): wall_interval throttles disk commits only; no sim state depends on it
#include <chrono>
#include <csignal>
#include <cstdint>
#include <memory>
#include <string>

#include "spp/ckpt/ckpt.h"
#include "spp/ckpt/disk.h"
#include "spp/io/io.h"
#include "spp/rt/runtime.h"
#include "spp/sim/rng.h"

namespace spp::ckpt {

/// How a DurableSession responds to host-I/O failure (all host-side; none
/// of these constants can influence a simulated counter or digest).  The
/// defaults are documented in docs/RECOVERY.md -- change them there too.
struct RecoveryPolicy {
  unsigned max_retries = 4;         ///< extra attempts for TRANSIENT errors
  double backoff_base = 0.002;      ///< first retry delay, seconds
  double backoff_cap = 0.25;        ///< backoff ceiling, seconds
  unsigned max_degradations = 3;    ///< stride doublings before memory-only
  std::uint64_t jitter_seed = 0xBACC0FF5EEDull;  ///< backoff jitter stream
};

/// Configuration for a durable run.  `dir` empty means durability is off and
/// an application's run(spec) takes its plain path (zero-cost discipline).
struct DurableSpec {
  std::string dir;                  ///< checkpoint directory ("" = disabled)
  std::uint64_t interval = 1;       ///< sim steps per epoch (chunk length)
  double wall_interval = 0.0;       ///< min wall-seconds between disk writes
                                    ///< (0 = write every epoch)
  bool resume = false;              ///< seed from the newest valid disk epoch
  unsigned test_kill_after_writes = 0;  ///< test hook: raise(SIGKILL) after
                                        ///< this many disk commits (0 = off)
  RecoveryPolicy policy;            ///< host-I/O failure response

  bool enabled() const { return !dir.empty(); }
};

/// Asks the current run to flush a checkpoint and exit at the next epoch
/// boundary (what the SIGINT/SIGTERM handlers call).
void request_shutdown();
/// True once a shutdown has been requested and not cleared.
bool shutdown_requested();
/// Re-arms shutdown detection (call between runs in one process).
void clear_shutdown();
/// Installs SIGINT/SIGTERM handlers that call request_shutdown().
void install_shutdown_handlers();

/// Drives one durable run.  ckpt::run_chunks (loop.h) is its one driver:
/// begin() once, then boundary() before every chunk and after the last.
class DurableSession {
 public:
  /// Throws Error if `spec` is disabled -- a disabled spec means the caller
  /// should have taken the application's plain path.
  DurableSession(rt::Runtime& rt, Store& store, const DurableSpec& spec);

  /// Opens the checkpoint directory (acquiring the writer lock) and, when
  /// resuming, seeds the store/counters/clock from the newest valid epoch
  /// and power-cycles the machine.  Returns the step to re-enter the loop
  /// at: 0 fresh, the epoch step on resume.  Throws Error when --resume
  /// finds no valid epoch.
  std::uint64_t begin();

  /// Epoch boundary at `step`; see the file comment for the protocol.
  /// Returns false when the driver should stop (graceful shutdown); the
  /// epoch is on disk by then.  On the first boundary after a resume this
  /// is a no-op returning true: that epoch's capture charges are already in
  /// the restored counters.
  bool boundary(std::uint64_t step);

  std::uint64_t interval() const { return spec_.interval; }
  /// True once boundary() returned false because of a shutdown request.
  bool stopped() const { return stopped_; }
  unsigned epochs_written() const { return writes_; }

  /// True once the degradation ladder has engaged at all: at least one
  /// epoch commit was abandoned, so the disk trail is thinner than the
  /// epoch sequence (tools exit rt::kExitIoDegraded on this).
  bool degraded() const { return degradations_ > 0 || memory_only_; }
  /// Bottom of the ladder: no disk commits are attempted any more.
  bool memory_only() const { return memory_only_; }
  /// Commit-abandonment count (== stride doublings until memory-only).
  unsigned degradations() const { return degradations_; }
  /// Current disk-commit stride in epochs (1 until the ladder engages).
  unsigned disk_stride() const { return disk_stride_; }

 private:
  /// Commits `epoch` with transient-retry + backoff; returns false (after
  /// walking the degradation ladder) when the commit was abandoned.
  bool commit_with_recovery(const EpochData& epoch);
  /// One rung down: widen the stride, or go memory-only past the limit.
  void degrade(const char* why);
  void enter_memory_only(const std::string& why);
  /// Folds the armed FaultPlan's injection count delta into perf.
  void drain_injected();

  rt::Runtime* rt_;
  Store* store_;
  DurableSpec spec_;
  std::unique_ptr<Disk> disk_;
  bool skip_once_ = false;
  bool stopped_ = false;
  unsigned writes_ = 0;
  sim::Rng backoff_rng_;          ///< jitter stream (host-side only)
  unsigned disk_stride_ = 1;      ///< commit every Nth due boundary
  std::uint64_t since_commit_ = 0;
  unsigned degradations_ = 0;
  bool memory_only_ = false;
  std::uint64_t seen_injected_ = 0;
  /// Host-time stamp of the last disk commit.  Deliberate wall-clock use:
  /// --ckpt-wall-interval rate-limits *durability*, which must track real
  /// elapsed time (crash exposure), while the simulation itself stays a
  /// pure function of sim::Time.  Skipping a commit changes only which
  /// epochs exist on disk, never any counter or digest.
  // spp-lint: allow(sim-no-wallclock): wall_interval throttles disk commits only; no sim state depends on it
  std::chrono::steady_clock::time_point last_write_{};
};

}  // namespace spp::ckpt
