// Host-I/O seam with deterministic fault injection (docs/RECOVERY.md,
// "Host I/O faults & the degradation ladder").
//
// Everything in this simulator that must survive host-filesystem
// misbehaviour -- today that is the durable checkpoint layer, spp::ckpt --
// performs its file I/O through this module instead of raw POSIX calls:
// io::File wraps open/write/fsync/read, io::Dir wraps rename/dir-fsync and
// directory housekeeping.  The seam buys two things:
//
//   * a single place where host-I/O failures acquire a *taxonomy*: every
//     failure surfaces as io::IoError carrying the errno and a
//     transient-vs-permanent classification, so callers can retry flaky-NFS
//     EIOs but degrade gracefully on a full disk;
//   * a deterministic fault injector, io::FaultPlan, that makes the messy
//     ways real cluster nodes fail -- ENOSPC, EIO, short writes, fsync
//     failure, torn renames, read-side bit rot -- reproducible at exact
//     operation counts, seeded by the same sim::Rng discipline spp::fault
//     uses for the simulated machine.
//
// Zero-cost discipline: with no plan armed every wrapper is the raw
// syscall plus one pointer test; no timing, digest, or on-disk byte
// changes.  spp-lint's posix-file-io check (docs/STATIC_ANALYSIS.md)
// enforces that src/spp/io/ stays the only module calling raw POSIX file
// APIs, so nothing can bypass the seam.
//
// Threading: arm_faults and the wrappers are called from the one simulated
// main thread that performs checkpoint I/O (the conductor admits one
// SThread at a time); the plan pointer is deliberately a plain pointer, not
// an atomic -- arming mid-run from another host thread is not a supported
// use.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "spp/sim/rng.h"

namespace spp::io {

/// Malformed fault plan: fail loudly up front rather than inject garbage
/// (mirrors fault::ConfigError).
class ConfigError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The host-I/O operations the seam distinguishes.  Fault rules key on
/// these; File/Dir report them in errors.
enum class Op {
  kOpen,      ///< open-for-write (create / create_exclusive)
  kRead,      ///< whole-file read (open + read + close as one op)
  kWrite,     ///< one write_all call
  kFsync,     ///< fsync of a file
  kRename,    ///< rename(2)
  kDirFsync,  ///< fsync of a directory fd
};
inline constexpr std::size_t kOpCount = 6;

const char* to_string(Op op);

/// Transient failures are worth retrying (flaky NFS, interrupted syscalls,
/// descriptor pressure); permanent ones are a property of the disk or the
/// path and retrying the same call cannot help.
enum class Sev { kTransient, kPermanent };

/// errno -> taxonomy.  Transient: EIO, EINTR, EAGAIN, EBUSY, ETIMEDOUT,
/// ESTALE, EMFILE, ENFILE, ENOMEM.  Everything else -- ENOSPC, EDQUOT,
/// EROFS, EACCES, EPERM, ENOENT, ENAMETOOLONG, ... -- is permanent.
Sev classify(int err);

/// One failed host-I/O operation: what + errno + operation + taxonomy.
class IoError : public std::runtime_error {
 public:
  IoError(const std::string& what, int err, Op op, bool injected = false);

  int error() const { return err_; }
  Op op() const { return op_; }
  Sev severity() const { return classify(err_); }
  /// True when this failure came from an armed FaultPlan, not the host.
  bool injected() const { return injected_; }

 private:
  int err_;
  Op op_;
  bool injected_;
};

/// A deterministic schedule of host-I/O faults.  Build with the chainable
/// helpers, then install with arm_faults(&plan); the plan counts every
/// operation of each kind and fires its rules at exact occurrence numbers
/// (1-based), or probabilistically for soak runs.  One seeded Rng drives
/// every probabilistic decision and every bit-rot flip, so a given (seed,
/// plan, workload) triple injects bit-identically.
class FaultPlan {
 public:
  explicit FaultPlan(std::uint64_t seed = 0x10FA0175EEDull)
      : seed_(seed), rng_(seed) {}

  /// The nth operation of `op` fails with errno `err` (one-shot).
  FaultPlan& fail_nth(Op op, std::uint64_t nth, int err);
  /// Every operation of `op` from the nth onwards fails with `err`
  /// (a persistent condition: the disk filled up and stayed full).
  FaultPlan& fail_from(Op op, std::uint64_t nth, int err);
  /// Each operation of `op` independently fails with probability `p`.
  FaultPlan& fail_rate(Op op, double p, int err);
  /// The nth write_all persists only the first half of its bytes, then
  /// fails with EIO (a torn write: partial data under the temp name).
  FaultPlan& short_write_nth(std::uint64_t nth);
  /// The nth rename leaves a *partial copy* of the source under the
  /// destination name, unlinks the source, and fails with EIO -- the
  /// non-atomic rename of a misbehaving network filesystem.  Load-time
  /// CRCs must catch the corpse.
  FaultPlan& torn_rename_nth(std::uint64_t nth);
  /// The nth whole-file read returns its data with one Rng-chosen bit
  /// flipped (silent media bit rot; the syscall itself "succeeds").
  FaultPlan& bitrot_read_nth(std::uint64_t nth);

  /// Checks rule axioms (nth >= 1, p in [0,1], err > 0); throws
  /// ConfigError on the first violation.  arm_faults runs this.
  void validate() const;

  /// What should happen to the operation being attempted.
  struct Fate {
    enum class Kind { kNone, kFail, kShortWrite, kTornRename, kBitRot };
    Kind kind = Kind::kNone;
    int err = 0;
  };
  /// Consumes one operation of kind `op`: bumps its counter, evaluates the
  /// rules in insertion order, and returns the first that fires.
  Fate decide(Op op);

  /// Deterministic corruption point for a bit-rot read: (byte, bit mask).
  std::pair<std::uint64_t, std::uint8_t> bitrot_point(std::uint64_t size);

  std::uint64_t ops_seen(Op op) const {
    return counts_[static_cast<std::size_t>(op)];
  }
  /// Total faults this plan has injected since it was armed.
  std::uint64_t injected() const { return injected_; }

  /// Re-zeroes the operation counters, the injection count, and the Rng
  /// stream (arm_faults calls this so re-arming replays identically).
  void reset();

  std::uint64_t seed() const { return seed_; }

 private:
  struct Rule {
    Op op;
    Fate::Kind kind;
    std::uint64_t nth = 0;
    bool persistent = false;
    double p = 0.0;
    int err = 0;
    bool probabilistic = false;  ///< fail_rate rule: fire on p, not nth.
  };

  std::uint64_t seed_ = 0x10FA0175EEDull;
  std::vector<Rule> rules_;
  sim::Rng rng_;
  std::uint64_t counts_[kOpCount] = {};
  std::uint64_t injected_ = 0;
};

/// Installs `plan` as the process-wide fault source for every File/Dir
/// operation (validates it and resets its runtime state first); nullptr
/// disarms.  The fault-free path stays one pointer test.
void arm_faults(FaultPlan* plan);
bool faults_armed();
/// The armed plan, or nullptr -- how callers read injection statistics.
FaultPlan* armed_plan();

/// RAII handle for a file open for writing.  All methods throw IoError on
/// failure (host or injected); the destructor closes silently.
class File {
 public:
  /// Creates (or truncates) `path` for writing, mode 0644.
  static File create(const std::string& path);
  /// O_CREAT|O_EXCL create; an existing file surfaces as IoError with
  /// error() == EEXIST (how ckpt::Disk detects a held LOCK).
  static File create_exclusive(const std::string& path);

  /// Reads the whole of `path`; one Op::kRead operation covering the
  /// open + read loop + close (bit-rot injection lands here).
  static std::vector<std::uint8_t> read_all(const std::string& path);

  File(File&& other) noexcept;
  File& operator=(File&&) = delete;
  File(const File&) = delete;
  File& operator=(const File&) = delete;
  ~File();

  /// Writes all `n` bytes (looping over short host writes; EINTR retried).
  void write_all(const void* data, std::size_t n);
  /// fsync(2); on failure the durability of everything written is unknown.
  void sync();
  /// Closes the descriptor (idempotent; destructor calls it too).
  void close() noexcept;

  const std::string& path() const { return path_; }

 private:
  File(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}

  int fd_;
  std::string path_;
};

/// Directory-level operations (the other half of atomic-commit protocols).
struct Dir {
  /// mkdir -p.  Throws IoError(Op::kOpen) when the tree cannot be made.
  static void create_all(const std::string& dir);
  /// Entry names (not paths) in `dir`, unsorted; empty on an unreadable
  /// directory (matches the old std::filesystem error_code behaviour).
  static std::vector<std::string> list(const std::string& dir);
  /// rename(2), the commit point of temp-file protocols.
  static void rename(const std::string& from, const std::string& to);
  /// fsyncs the directory so a just-renamed entry survives power loss.
  /// Filesystems that refuse O_DIRECTORY opens are skipped (best effort,
  /// as before); a real or injected fsync failure throws.
  static void sync(const std::string& dir);
  /// Best-effort unlink for cleanup paths (lock release in destructors);
  /// never throws, never injected.
  static void remove(const std::string& path) noexcept;
};

/// Capped exponential backoff with deterministic jitter: attempt 0 waits
/// ~base, each further attempt doubles, clamped to `cap`, scaled by a
/// jitter factor in [0.5, 1.0) drawn from `rng`.  Pure function of its
/// inputs -- the recovery tests replay it.
double backoff_seconds(unsigned attempt, double base, double cap,
                       sim::Rng& rng);

/// Host sleep (nanosleep).  Lives in spp::io so the retry/backoff path is
/// covered by this module's wall-clock exemption; simulated code must not
/// call it.
void sleep_seconds(double seconds);

}  // namespace spp::io
