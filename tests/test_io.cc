// spp::io seam tests (docs/RECOVERY.md, "Host I/O faults & the degradation
// ladder"):
//   * the tool exit-code contract is pinned (spp/rt/exit_codes.h);
//   * the transient/permanent errno taxonomy is what the docs promise;
//   * File/Dir round-trip bytes and every injected fault class -- failed
//     open, short write, torn rename, read-side bit rot -- produces exactly
//     the advertised wreckage, deterministically per seed;
//   * backoff_seconds is a pure function of (attempt, base, cap, rng);
//   * an armed-but-empty plan changes nothing: the durable digest equals
//     the unarmed run's (zero-cost discipline at the observable level);
//   * DurableSession's recovery ladder: transient faults retry and leave
//     the digest untouched, persistent ENOSPC degrades to memory-only but
//     still completes bit-exactly, and a resume through rotting media skips
//     the corrupt epoch and still reaches the uninterrupted digest;
//   * a host-I/O fault swallowed while a resume takes over a dead writer's
//     LOCK is still counted in the resumed process.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "spp/apps/fem/femgas.h"
#include "spp/arch/topology.h"
#include "spp/ckpt/durable.h"
#include "spp/io/io.h"
#include "spp/rt/exit_codes.h"
#include "spp/rt/runtime.h"
#include "spp/rt/watchdog.h"
#include "spp/sim/rng.h"

namespace spp::io {
namespace {

namespace fs = std::filesystem;
using arch::Topology;

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "sppio-" + name;
  fs::remove_all(dir);
  Dir::create_all(dir);
  return dir;
}

/// Arms `plan` for the enclosing scope; disarming in the destructor keeps a
/// failing EXPECT from leaking an armed plan into the next test.
struct ArmGuard {
  explicit ArmGuard(FaultPlan& plan) { arm_faults(&plan); }
  ~ArmGuard() { arm_faults(nullptr); }
  ArmGuard(const ArmGuard&) = delete;
  ArmGuard& operator=(const ArmGuard&) = delete;
};

void write_file(const std::string& path, const std::vector<std::uint8_t>& b) {
  File f = File::create(path);
  f.write_all(b.data(), b.size());
  f.sync();
  f.close();
}

// ---------------------------------------------------------------------------
// Exit codes and taxonomy
// ---------------------------------------------------------------------------

TEST(IoExitCodes, ContractIsPinned) {
  // Scripts and CI legs assert on these numbers; changing one is an
  // interface break, not a refactor.
  EXPECT_EQ(rt::kExitOk, 0);
  EXPECT_EQ(rt::kExitFailure, 1);
  EXPECT_EQ(rt::kExitUsage, 2);
  EXPECT_EQ(rt::kExitStall, 3);
  EXPECT_EQ(rt::kExitIoDegraded, 4);
  // The watchdog's historic exit code and the shared header must agree.
  EXPECT_EQ(rt::Watchdog::kExitCode, rt::kExitStall);
}

TEST(IoClassify, TransientVersusPermanent) {
  for (int err : {EIO, EINTR, EAGAIN, EBUSY, ETIMEDOUT, ESTALE, EMFILE,
                  ENFILE, ENOMEM}) {
    EXPECT_EQ(classify(err), Sev::kTransient) << err;
  }
  for (int err : {ENOSPC, EDQUOT, EROFS, EACCES, EPERM, ENOENT,
                  ENAMETOOLONG, EISDIR}) {
    EXPECT_EQ(classify(err), Sev::kPermanent) << err;
  }
}

// ---------------------------------------------------------------------------
// File / Dir basics
// ---------------------------------------------------------------------------

TEST(IoFile, RoundTripsBytesAndDirOps) {
  const std::string dir = fresh_dir("roundtrip");
  const std::vector<std::uint8_t> bytes = {0, 1, 2, 253, 254, 255, 42};
  write_file(dir + "/a.bin", bytes);
  EXPECT_EQ(File::read_all(dir + "/a.bin"), bytes);

  const auto names = Dir::list(dir);
  EXPECT_NE(std::find(names.begin(), names.end(), "a.bin"), names.end());

  Dir::rename(dir + "/a.bin", dir + "/b.bin");
  Dir::sync(dir);
  EXPECT_FALSE(fs::exists(dir + "/a.bin"));
  EXPECT_EQ(File::read_all(dir + "/b.bin"), bytes);

  Dir::remove(dir + "/b.bin");
  EXPECT_FALSE(fs::exists(dir + "/b.bin"));
}

TEST(IoFile, CreateExclusiveSurfacesEexist) {
  const std::string dir = fresh_dir("exclusive");
  write_file(dir + "/LOCK", {'1'});
  try {
    (void)File::create_exclusive(dir + "/LOCK");
    FAIL() << "create_exclusive over an existing file must fail";
  } catch (const IoError& e) {
    EXPECT_EQ(e.error(), EEXIST);
    EXPECT_FALSE(e.injected());
  }
}

// ---------------------------------------------------------------------------
// Injected fault classes
// ---------------------------------------------------------------------------

TEST(IoFaults, InjectedOpenFailureIsMarkedAndCounted) {
  const std::string dir = fresh_dir("inj-open");
  FaultPlan plan;
  plan.fail_nth(Op::kOpen, 1, ENOSPC);
  ArmGuard armed(plan);
  try {
    (void)File::create(dir + "/x.bin");
    FAIL() << "the armed plan must fail the first open";
  } catch (const IoError& e) {
    EXPECT_EQ(e.error(), ENOSPC);
    EXPECT_EQ(e.op(), Op::kOpen);
    EXPECT_EQ(e.severity(), Sev::kPermanent);
    EXPECT_TRUE(e.injected());
    EXPECT_NE(std::string(e.what()).find("(injected)"), std::string::npos);
  }
  EXPECT_EQ(plan.injected(), 1u);
  EXPECT_EQ(plan.ops_seen(Op::kOpen), 1u);
  EXPECT_FALSE(fs::exists(dir + "/x.bin"));
  // The second open is past the one-shot rule and succeeds.
  EXPECT_NO_THROW(File::create(dir + "/x.bin"));
}

TEST(IoFaults, ShortWriteLeavesATornPrefix) {
  const std::string dir = fresh_dir("short");
  FaultPlan plan;
  plan.short_write_nth(1);
  ArmGuard armed(plan);
  const std::vector<std::uint8_t> bytes(100, 0xAB);
  File f = File::create(dir + "/t.bin");
  try {
    f.write_all(bytes.data(), bytes.size());
    FAIL() << "the first write must tear";
  } catch (const IoError& e) {
    EXPECT_EQ(e.error(), EIO);
    EXPECT_EQ(e.severity(), Sev::kTransient);
    EXPECT_TRUE(e.injected());
  }
  f.close();
  // Half the payload reached the kernel before the "device" failed.
  EXPECT_EQ(fs::file_size(dir + "/t.bin"), 50u);
}

TEST(IoFaults, TornRenameLeavesACorpseAndUnlinksTheSource) {
  const std::string dir = fresh_dir("torn");
  write_file(dir + "/src.bin", std::vector<std::uint8_t>(100, 0x5C));
  FaultPlan plan;
  plan.torn_rename_nth(1);
  ArmGuard armed(plan);
  try {
    Dir::rename(dir + "/src.bin", dir + "/dst.bin");
    FAIL() << "the first rename must be torn";
  } catch (const IoError& e) {
    EXPECT_EQ(e.op(), Op::kRename);
    EXPECT_TRUE(e.injected());
  }
  // The corpse: half the source under the destination name, source gone.
  EXPECT_FALSE(fs::exists(dir + "/src.bin"));
  ASSERT_TRUE(fs::exists(dir + "/dst.bin"));
  EXPECT_EQ(fs::file_size(dir + "/dst.bin"), 50u);
}

TEST(IoFaults, BitRotFlipsExactlyOneBitDeterministically) {
  const std::string dir = fresh_dir("bitrot");
  std::vector<std::uint8_t> bytes(256);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>(i);
  }
  write_file(dir + "/r.bin", bytes);

  const auto rotted_read = [&] {
    FaultPlan plan(0xB17207u);
    plan.bitrot_read_nth(1);
    ArmGuard armed(plan);
    return File::read_all(dir + "/r.bin");
  };
  const std::vector<std::uint8_t> got1 = rotted_read();
  const std::vector<std::uint8_t> got2 = rotted_read();

  // Same seed, same workload -> bit-identical corruption.
  EXPECT_EQ(got1, got2);
  ASSERT_EQ(got1.size(), bytes.size());
  unsigned flipped_bits = 0;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::uint8_t diff = static_cast<std::uint8_t>(got1[i] ^ bytes[i]);
    while (diff != 0) {
      flipped_bits += diff & 1u;
      diff >>= 1;
    }
  }
  EXPECT_EQ(flipped_bits, 1u) << "bit rot must flip exactly one bit";
  // The file itself is untouched: the rot is in the read, not the media
  // image (a clean re-read sees the original).
  EXPECT_EQ(File::read_all(dir + "/r.bin"), bytes);
}

TEST(IoFaults, MalformedPlansAreRejectedUpFront) {
  FaultPlan zero_nth;
  zero_nth.fail_nth(Op::kWrite, 0, EIO);
  EXPECT_THROW(arm_faults(&zero_nth), ConfigError);
  EXPECT_FALSE(faults_armed());

  FaultPlan bad_p;
  bad_p.fail_rate(Op::kRead, 1.5, EIO);
  EXPECT_THROW(arm_faults(&bad_p), ConfigError);
  EXPECT_FALSE(faults_armed());
}

// ---------------------------------------------------------------------------
// Backoff
// ---------------------------------------------------------------------------

TEST(IoBackoff, DeterministicDoublingWithCapAndJitter) {
  sim::Rng a(42);
  sim::Rng b(42);
  const double base = 0.002;
  const double cap = 0.25;
  double nominal = base;
  for (unsigned attempt = 0; attempt < 12; ++attempt) {
    const double d1 = backoff_seconds(attempt, base, cap, a);
    const double d2 = backoff_seconds(attempt, base, cap, b);
    EXPECT_DOUBLE_EQ(d1, d2) << attempt;  // same rng stream, same delay
    EXPECT_GE(d1, nominal * 0.5) << attempt;
    EXPECT_LT(d1, nominal) << attempt;    // jitter in [0.5, 1.0)
    nominal = std::min(cap, nominal * 2.0);
  }
  // Deep attempts are clamped: never above the cap.
  EXPECT_LT(backoff_seconds(60, base, cap, a), cap);
}

// ---------------------------------------------------------------------------
// DurableSession recovery ladder (end to end, digest-exact)
// ---------------------------------------------------------------------------

/// One femgas durable run in a fresh Runtime (fresh Runtime == fresh
/// process for determinism purposes), returning the digest plus a copy of
/// the host-I/O counters.
struct Outcome {
  std::uint64_t digest = 0;
  std::uint64_t injected = 0;
  std::uint64_t transient = 0;
  std::uint64_t permanent = 0;
  std::uint64_t retries = 0;
  std::uint64_t commit_failures = 0;
  std::uint64_t degradations = 0;
  std::uint64_t memory_only = 0;
  std::uint64_t skipped = 0;
};

Outcome durable_fem(const std::string& dir, unsigned steps, bool resume,
                    const ckpt::RecoveryPolicy& policy = {}) {
  rt::Runtime runtime(Topology{.nodes = 1});
  ckpt::DurableSpec spec;
  spec.dir = dir;
  spec.interval = 1;
  spec.resume = resume;
  spec.policy = policy;
  runtime.run([&] {
    fem::FemConfig cfg;
    cfg.nx = 16;
    cfg.ny = 8;
    cfg.steps = steps;
    fem::FemGas app(runtime, cfg, 4, rt::Placement::kUniform);
    app.init_blast(2.0, 3.0);
    (void)app.run_durable(spec);
  });
  const arch::PerfCounters& p = runtime.machine().perf();
  return {p.digest(runtime.elapsed()), p.io_faults_injected,
          p.io_transient_errors,       p.io_permanent_errors,
          p.io_retries,                p.io_commit_failures,
          p.io_degradations,           p.io_memory_only_epochs,
          p.io_epochs_skipped};
}

TEST(IoDurable, ArmedEmptyPlanChangesNothing) {
  const std::string base = fresh_dir("empty-plan");
  const Outcome plain = durable_fem(base + "/plain", 3, false);

  FaultPlan plan;  // armed but ruleless: every op consulted, none faulted
  ArmGuard armed(plan);
  const Outcome watched = durable_fem(base + "/watched", 3, false);

  EXPECT_EQ(watched.digest, plain.digest);
  EXPECT_EQ(watched.injected, 0u);
  EXPECT_EQ(watched.commit_failures, 0u);
  // The seam really was consulted: the plan saw the LOCK + epoch traffic.
  EXPECT_GT(plan.ops_seen(Op::kWrite), 0u);
  EXPECT_GT(plan.ops_seen(Op::kRename), 0u);
}

TEST(IoDurable, TransientFsyncFaultRetriesToTheExactDigest) {
  const std::string base = fresh_dir("transient");
  const Outcome want = durable_fem(base + "/clean", 4, false);

  FaultPlan plan;
  // fsync #3 is epoch-1's payload fsync (each commit fsyncs the epoch file
  // then the MANIFEST); EIO is transient, so the ladder retries in place.
  plan.fail_nth(Op::kFsync, 3, EIO);
  ArmGuard armed(plan);
  const Outcome got = durable_fem(base + "/faulted", 4, false);

  EXPECT_EQ(got.digest, want.digest)
      << "a retried transient fault must not move the digest";
  EXPECT_EQ(got.injected, 1u);
  EXPECT_GE(got.retries, 1u);
  EXPECT_GE(got.transient, 1u);
  EXPECT_EQ(got.commit_failures, 0u);
  EXPECT_EQ(got.degradations, 0u);
  EXPECT_EQ(got.memory_only, 0u);
}

TEST(IoDurable, PersistentEnospcDegradesButCompletesBitExact) {
  const std::string base = fresh_dir("enospc");
  const Outcome want = durable_fem(base + "/clean", 4, false);

  FaultPlan plan;
  // write #1 is the LOCK pid; every epoch payload write from #2 onwards
  // hits a full disk.  Permanent -> no retries; one stride widening, then
  // the ladder bottoms out in memory-only mode.
  plan.fail_from(Op::kWrite, 2, ENOSPC);
  ArmGuard armed(plan);
  ckpt::RecoveryPolicy policy;
  policy.max_degradations = 1;
  const Outcome got = durable_fem(base + "/full-disk", 4, false, policy);

  EXPECT_EQ(got.digest, want.digest)
      << "the degradation ladder must never touch simulated state";
  EXPECT_EQ(got.commit_failures, 2u);  // epoch 0, then epoch 2 (stride 2)
  EXPECT_EQ(got.degradations, 1u);
  EXPECT_EQ(got.memory_only, 2u);      // epochs 3 and 4 never tried disk
  EXPECT_GE(got.permanent, 2u);
  EXPECT_EQ(got.retries, 0u);
}

TEST(IoDurable, ResumeThroughBitRotSkipsTheCorruptEpoch) {
  const std::string base = fresh_dir("rot-resume");
  const Outcome want = durable_fem(base + "/clean", 4, false);

  // A clean partial run leaves epochs {0, 1, 2} on disk.
  (void)durable_fem(base + "/rot", 2, false);

  // The resume reads the newest epoch through rotting media: read #1 is
  // epoch-2.ckpt (the previous run exited cleanly, so there is no stale
  // LOCK to read first).  The flipped bit must fail a CRC, the loader must
  // fall back to epoch 1, and the replayed tail must land on the exact
  // uninterrupted digest -- a corrupt epoch is a detour, never an answer.
  FaultPlan plan;
  plan.bitrot_read_nth(1);
  ArmGuard armed(plan);
  const Outcome got = durable_fem(base + "/rot", 4, true);

  EXPECT_EQ(got.digest, want.digest);
  EXPECT_EQ(got.skipped, 1u) << "the rotted epoch must be counted";
  EXPECT_EQ(got.injected, 1u);
  EXPECT_EQ(got.commit_failures, 0u);
}

TEST(IoDurable, ResumeCountsAFaultSwallowedWhileTakingOverTheLock) {
  const std::string base = fresh_dir("lock-takeover");
  const Outcome want = durable_fem(base + "/clean", 4, false);

  // A clean partial run, then the LOCK a SIGKILLed writer would leave: the
  // pid of a reaped child, guaranteed dead.
  const std::string dir = base + "/resumed";
  (void)durable_fem(dir, 2, false);
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) _exit(0);
  int wstatus = 0;
  ASSERT_EQ(waitpid(child, &wstatus, 0), child);
  const std::string pid = std::to_string(child) + "\n";
  write_file(dir + "/LOCK", std::vector<std::uint8_t>(pid.begin(), pid.end()));

  // Read #1 is the stale LOCK's pid.  Its failure is swallowed (the lock is
  // taken over anyway), but the fault was delivered and must be counted in
  // the resumed process, not erased by the counter restore.
  FaultPlan plan;
  plan.fail_nth(Op::kRead, 1, EIO);
  ArmGuard armed(plan);
  const Outcome got = durable_fem(dir, 4, true);

  EXPECT_EQ(plan.injected(), 1u);
  EXPECT_EQ(got.injected, 1u);
  EXPECT_EQ(got.digest, want.digest);
}

}  // namespace
}  // namespace spp::io
