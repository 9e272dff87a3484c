// On-disk durability for spp::ckpt (docs/RECOVERY.md, "Durable checkpoints
// & resume").
//
// A Disk owns one checkpoint directory and serializes Store snapshots into
// versioned, checksummed epoch files:
//
//   <dir>/epoch-<step>.ckpt   one coordinated snapshot + the counters and
//                             main-thread clock needed to resume from it
//   <dir>/MANIFEST            human-readable epoch listing, rewritten after
//                             every epoch commit
//   <dir>/LOCK                single-writer guard (pid of the live writer)
//
// Epoch files carry a fixed header (magic, format version, payload CRC-32,
// and -- since format v2 -- a CRC-32 over the header fields themselves) and
// a per-region CRC-32 ahead of every region payload, so truncation, bit
// rot, and torn writes are all detected at load time.  Every file is
// committed with the temp-file + fsync + atomic-rename + directory-fsync
// protocol: a crash at any instant leaves either the old epoch set or the
// new one, never a half-written file under a final name.
//
// load_newest() walks the on-disk epochs newest-first and returns the first
// one that passes full validation, so a corrupted latest epoch degrades the
// resume point by one interval instead of killing the run; every epoch it
// falls past is counted (epochs_skipped()) and surfaces in the host-I/O
// report via PerfCounters::io_epochs_skipped.
//
// All host file I/O routes through the spp::io seam: host failures and
// injected faults surface as io::IoError (errno + transient/permanent
// taxonomy, docs/RECOVERY.md) while protocol/validation problems stay
// ckpt::Error.  DurableSession turns IoError into retry-with-backoff or
// graceful degradation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "spp/arch/perf.h"
#include "spp/ckpt/ckpt.h"
#include "spp/lib/thread_annotations.h"
#include "spp/sim/time.h"

namespace spp::ckpt {

/// Zero-size capability token standing for a checkpoint directory's on-disk
/// LOCK file (docs/STATIC_ANALYSIS.md).  The LOCK is a *cross-process*
/// exclusion -- no host mutex can express it -- but clang's thread-safety
/// analysis can still machine-check the in-process protocol around it:
/// every write path is annotated SPP_REQUIRES(writer_lock_), and the public
/// boundary bridges runtime state to the analysis with
/// Disk::assert_writer() (SPP_ASSERT_CAPABILITY).  A new write path that
/// forgets the assert fails the clang SPP_WERROR leg instead of corrupting
/// somebody's epoch set at 3am.
class SPP_CAPABILITY("ckpt-writer-LOCK") WriterLockCap {};

/// Everything a fresh process needs to continue a run from an epoch:
/// the region payloads, the perf counters as of the boundary (they already
/// include the capture that produced the snapshot), and the main simulated
/// thread's clock at the same instant.
struct EpochData {
  std::uint64_t step = 0;
  sim::Time clock = 0;
  arch::PerfCounters perf = arch::PerfCounters(0);
  Store::Snapshot snapshot;
};

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320, bit-reflected) of `n` bytes.
std::uint32_t crc32(const void* data, std::size_t n);

class Disk {
 public:
  /// Binds to checkpoint directory `dir`, creating it if needed.  A writer
  /// (read_only == false) must acquire the directory's LOCK file: if another
  /// live process holds it, this throws Error (concurrent-writer rejection);
  /// a lock left behind by a dead writer (e.g. the SIGKILL a --resume is
  /// recovering from) is taken over silently.
  explicit Disk(std::string dir, bool read_only = false);
  ~Disk();

  Disk(const Disk&) = delete;
  Disk& operator=(const Disk&) = delete;

  /// Durably commits one epoch: temp file, fsync, atomic rename, directory
  /// fsync, then the MANIFEST by the same protocol.  Overwrites any existing
  /// file for the same step.  Requires writer mode.
  void write_epoch(const EpochData& epoch);

  /// Newest epoch that passes full validation (magic, format version, file
  /// CRC, per-region CRCs).  Invalid files are skipped -- with a note on
  /// stderr -- and the next-newest is tried; nullopt when no valid epoch
  /// exists.
  std::optional<EpochData> load_newest() const;

  /// Loads and validates the epoch file for `step`; throws Error describing
  /// the first validation failure.
  EpochData load_epoch(std::uint64_t step) const;

  /// Steps that have an epoch file on disk (validated or not), oldest first.
  std::vector<std::uint64_t> epochs() const;

  /// Corrupt/unreadable epochs load_newest() has fallen past over this
  /// Disk's lifetime (each one degraded a resume point by one interval).
  std::uint64_t epochs_skipped() const { return epochs_skipped_; }

  const std::string& dir() const { return dir_; }

  static std::string epoch_filename(std::uint64_t step);

 private:
  void acquire_lock();
  /// Throws Error unless this Disk holds the writer LOCK; afterwards the
  /// static analysis treats writer_lock_ as held (the runtime/static bridge
  /// described on WriterLockCap).
  void assert_writer() const SPP_ASSERT_CAPABILITY(writer_lock_);
  void write_manifest() const SPP_REQUIRES(writer_lock_);
  std::string path(const std::string& name) const { return dir_ + "/" + name; }

  std::string dir_;
  bool locked_ = false;  ///< we hold <dir>/LOCK (mirrors writer_lock_).
  /// Mutable: load_newest() is logically const but keeps score of the
  /// corrupt epochs it had to skip.
  mutable std::uint64_t epochs_skipped_ = 0;
  WriterLockCap writer_lock_;
};

}  // namespace spp::ckpt
