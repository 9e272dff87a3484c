// Durable-checkpoint tests (docs/RECOVERY.md, "Durable checkpoints &
// resume"):
//   * the epoch file format round-trips and every corruption mode --
//     truncation, bit flips, stale versions, bad magic -- is detected at
//     load time, with load_newest() falling back to the newest VALID epoch;
//   * the LOCK protocol rejects a concurrent live writer and silently takes
//     over a dead one's lock (what --resume does after a SIGKILL);
//   * a resumed durable run reaches the exact digest of an uninterrupted
//     one, both after a mid-run stop and after a graceful-shutdown flush;
//   * every application, on one and two hypernodes, survives a SIGKILL of
//     its durable run: --resume reaches the uninterrupted digest and final
//     diagnostics, which equal the plain run()'s;
//   * --ckpt-wall-interval gates only the host-side disk writes, never the
//     charged capture, so it cannot perturb the digest;
//   * injected host-I/O faults (spp::io) against the commit protocol:
//     ENOSPC mid-rename and mid-MANIFEST-rewrite leave the newest valid
//     epoch loadable and never leak the LOCK, and load_newest counts every
//     epoch it skips;
//   * the host-side watchdog aborts a wedged simulation with exit code 3.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <tuple>
#include <vector>

#include "spp/apps/catalog.h"
#include "spp/apps/fem/femgas.h"
#include "spp/arch/topology.h"
#include "spp/ckpt/disk.h"
#include "spp/ckpt/durable.h"
#include "spp/io/io.h"
#include "spp/rt/runtime.h"
#include "spp/rt/watchdog.h"

namespace spp::ckpt {
namespace {

namespace fs = std::filesystem;
using arch::Topology;

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "sppdisk-" + name;
  fs::remove_all(dir);
  return dir;
}

EpochData make_epoch(std::uint64_t step) {
  EpochData d;
  d.step = step;
  d.clock = 123456789 + step;
  d.perf = arch::PerfCounters(2);
  d.perf.cpu[0].loads = 7 + step;
  d.perf.cpu[1].mem_stall = 42;
  d.perf.cpu[1].flops = 3.5;
  d.perf.ring_packets = 11;
  d.perf.checkpoints_taken = step;
  d.snapshot.names = {"alpha", "beta"};
  d.snapshot.blobs = {{1, 2, 3, 4}, {5, 6, 7, 8, 9}};
  return d;
}

void corrupt_file(const std::string& path, std::size_t offset,
                  std::uint8_t xor_mask) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good()) << path;
  f.seekg(static_cast<std::streamoff>(offset));
  char b = 0;
  f.read(&b, 1);
  f.seekp(static_cast<std::streamoff>(offset));
  b = static_cast<char>(b ^ xor_mask);
  f.write(&b, 1);
}

// ---------------------------------------------------------------------------
// File format
// ---------------------------------------------------------------------------

TEST(CkptDisk, Crc32KnownAnswer) {
  // The canonical IEEE 802.3 check value.
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0u);
}

TEST(CkptDisk, EpochRoundTripsThroughDisk) {
  const std::string dir = fresh_dir("roundtrip");
  Disk disk(dir);
  disk.write_epoch(make_epoch(0));
  disk.write_epoch(make_epoch(4));
  disk.write_epoch(make_epoch(2));

  EXPECT_EQ(disk.epochs(), (std::vector<std::uint64_t>{0, 2, 4}));
  EXPECT_TRUE(fs::exists(dir + "/MANIFEST"));

  const EpochData want = make_epoch(4);
  const EpochData got = disk.load_epoch(4);
  EXPECT_EQ(got.step, want.step);
  EXPECT_EQ(got.clock, want.clock);
  EXPECT_EQ(got.perf.digest(got.clock), want.perf.digest(want.clock));
  EXPECT_EQ(got.perf.cpu[1].flops, 3.5);
  EXPECT_EQ(got.snapshot.names, want.snapshot.names);
  EXPECT_EQ(got.snapshot.blobs, want.snapshot.blobs);

  const auto newest = disk.load_newest();
  ASSERT_TRUE(newest.has_value());
  EXPECT_EQ(newest->step, 4u);
}

TEST(CkptDisk, TruncatedEpochIsRejectedAndNewestValidWins) {
  const std::string dir = fresh_dir("truncated");
  Disk disk(dir);
  disk.write_epoch(make_epoch(0));
  disk.write_epoch(make_epoch(2));

  const std::string newest = dir + "/" + Disk::epoch_filename(2);
  fs::resize_file(newest, fs::file_size(newest) / 2);

  try {
    (void)disk.load_epoch(2);
    FAIL() << "a truncated epoch must not load";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
        << e.what();
  }
  // Fallback: the corrupted newest epoch is skipped, not fatal.
  const auto got = disk.load_newest();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->step, 0u);
}

TEST(CkptDisk, FlippedPayloadByteFailsTheCrc) {
  const std::string dir = fresh_dir("bitflip");
  Disk disk(dir);
  disk.write_epoch(make_epoch(3));
  // The fixed header is 48 bytes (44 covered fields + their CRC); offset 60
  // lands inside the payload.
  corrupt_file(dir + "/" + Disk::epoch_filename(3), 60, 0x01);
  try {
    (void)disk.load_epoch(3);
    FAIL() << "a flipped payload byte must not load";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("CRC"), std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(disk.load_newest().has_value());
}

TEST(CkptDisk, StaleFormatVersionIsRejected) {
  const std::string dir = fresh_dir("version");
  Disk disk(dir);
  disk.write_epoch(make_epoch(1));
  // The u32 format version sits right after the 8-byte magic; the file CRC
  // covers only the payload, so this exercises the version check itself.
  corrupt_file(dir + "/" + Disk::epoch_filename(1), 8, 0x03);
  try {
    (void)disk.load_epoch(1);
    FAIL() << "an unknown format version must not load";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("stale format version"),
              std::string::npos)
        << e.what();
  }
}

TEST(CkptDisk, BadMagicIsRejected) {
  const std::string dir = fresh_dir("magic");
  Disk disk(dir);
  disk.write_epoch(make_epoch(1));
  corrupt_file(dir + "/" + Disk::epoch_filename(1), 0, 0xFF);
  try {
    (void)disk.load_epoch(1);
    FAIL() << "a non-checkpoint file must not load";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("not a checkpoint file"),
              std::string::npos)
        << e.what();
  }
}

TEST(CkptDisk, FlippedHeaderClockByteFailsTheHeaderCrc) {
  const std::string dir = fresh_dir("header-flip");
  Disk disk(dir);
  disk.write_epoch(make_epoch(3));
  // Offset 20 is inside the u64 clock field (magic 8 + version 4 + step 8
  // puts clock at [20, 28)).  The payload CRC cannot see it; only the v2
  // header CRC can -- silent clock rot would resume with a skewed clock.
  corrupt_file(dir + "/" + Disk::epoch_filename(3), 20, 0x10);
  try {
    (void)disk.load_epoch(3);
    FAIL() << "a flipped header byte must not load";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("header CRC"), std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// Host-I/O faults against the commit protocol (spp::io seam)
// ---------------------------------------------------------------------------

/// Disarms any armed io::FaultPlan when the scope exits, even on a failed
/// ASSERT, so one test's plan cannot leak into the next.
struct Disarm {
  ~Disarm() { io::arm_faults(nullptr); }
};

TEST(CkptDisk, EnospcMidEpochRenameKeepsNewestValidEpochAndLock) {
  const std::string dir = fresh_dir("enospc-rename");
  {
    Disk disk(dir);
    disk.write_epoch(make_epoch(0));

    // rename #1 (counting from arming) is epoch-1's commit point.
    io::FaultPlan plan;
    plan.fail_nth(io::Op::kRename, 1, ENOSPC);
    Disarm guard;
    io::arm_faults(&plan);
    try {
      disk.write_epoch(make_epoch(1));
      FAIL() << "the injected rename failure must surface";
    } catch (const io::IoError& e) {
      EXPECT_EQ(e.error(), ENOSPC);
      EXPECT_TRUE(e.injected());
    }
    io::arm_faults(nullptr);

    // All-or-nothing: the failed commit left no epoch-1 entry and did not
    // touch epoch 0.
    EXPECT_FALSE(fs::exists(dir + "/" + Disk::epoch_filename(1)));
    const auto newest = disk.load_newest();
    ASSERT_TRUE(newest.has_value());
    EXPECT_EQ(newest->step, 0u);
    // The directory can still commit after the fault clears.
    disk.write_epoch(make_epoch(1));
    EXPECT_EQ(disk.load_newest()->step, 1u);
  }
  // The writer LOCK must not leak across an injected failure.
  EXPECT_FALSE(fs::exists(dir + "/LOCK"));
}

TEST(CkptDisk, EnospcMidManifestRewriteKeepsTheEpochDurable) {
  const std::string dir = fresh_dir("enospc-manifest");
  {
    Disk disk(dir);
    disk.write_epoch(make_epoch(0));

    // rename #1 lands epoch-1's file; rename #2 is the MANIFEST rewrite.
    io::FaultPlan plan;
    plan.fail_nth(io::Op::kRename, 2, ENOSPC);
    Disarm guard;
    io::arm_faults(&plan);
    EXPECT_THROW(disk.write_epoch(make_epoch(1)), io::IoError);
    io::arm_faults(nullptr);

    // The epoch itself was renamed into place before the MANIFEST failed:
    // it is durable, discoverable (epochs() scans the directory, the
    // MANIFEST is informational), and loadable.
    EXPECT_TRUE(fs::exists(dir + "/" + Disk::epoch_filename(1)));
    const auto newest = disk.load_newest();
    ASSERT_TRUE(newest.has_value());
    EXPECT_EQ(newest->step, 1u);
  }
  EXPECT_FALSE(fs::exists(dir + "/LOCK"));
}

TEST(CkptDisk, LoadNewestCountsTheEpochsItSkips) {
  const std::string dir = fresh_dir("skip-count");
  Disk disk(dir);
  disk.write_epoch(make_epoch(0));
  disk.write_epoch(make_epoch(1));
  disk.write_epoch(make_epoch(2));

  const std::string e2 = dir + "/" + Disk::epoch_filename(2);
  fs::resize_file(e2, fs::file_size(e2) / 2);
  EXPECT_EQ(disk.epochs_skipped(), 0u);

  const auto got = disk.load_newest();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->step, 1u);
  EXPECT_EQ(disk.epochs_skipped(), 1u)
      << "every skipped epoch must be counted for the recovery report";
}

// ---------------------------------------------------------------------------
// Single-writer LOCK protocol
// ---------------------------------------------------------------------------

TEST(CkptDisk, ConcurrentWriterIsRejectedButReadersAreNot) {
  const std::string dir = fresh_dir("lock");
  Disk writer(dir);
  try {
    Disk second(dir);
    FAIL() << "two live writers must not share a checkpoint directory";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("already open for writing"),
              std::string::npos)
        << e.what();
  }
  EXPECT_NO_THROW(Disk reader(dir, /*read_only=*/true));
}

TEST(CkptDisk, DeadWriterLockIsTakenOver) {
  const std::string dir = fresh_dir("stale-lock");
  {
    Disk once(dir);  // creates the directory; releases its lock on scope exit
  }
  // A pid that is guaranteed dead: a reaped child.
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) _exit(0);
  int wstatus = 0;
  ASSERT_EQ(waitpid(child, &wstatus, 0), child);
  {
    std::ofstream lock(dir + "/LOCK");
    lock << child << "\n";
  }
  // The SIGKILLed-writer situation --resume faces: steal the lock silently.
  EXPECT_NO_THROW(Disk taken(dir));
}

// ---------------------------------------------------------------------------
// Durable runs: resume, graceful shutdown, wall-interval gating
// ---------------------------------------------------------------------------

/// One femgas durable run in a fresh Runtime; a fresh Runtime per run is
/// equivalent to a fresh process (virtual memory and the clock both start
/// from zero), which is exactly what a real --resume sees.
std::uint64_t durable_fem_digest(const std::string& dir, unsigned steps,
                                 bool resume, double wall_interval = 0.0,
                                 unsigned nodes = 1) {
  rt::Runtime runtime(Topology{.nodes = nodes});
  DurableSpec spec;
  spec.dir = dir;
  spec.interval = 1;
  spec.resume = resume;
  spec.wall_interval = wall_interval;
  runtime.run([&] {
    fem::FemConfig cfg;
    cfg.nx = 16;
    cfg.ny = 8;
    cfg.steps = steps;
    fem::FemGas app(runtime, cfg, 4, rt::Placement::kUniform);
    app.init_blast(2.0, 3.0);
    (void)app.run(spec);
  });
  return runtime.machine().perf().digest(runtime.elapsed());
}

TEST(CkptDurable, ResumeReachesTheUninterruptedDigest) {
  const std::string base = fresh_dir("resume");
  const std::uint64_t want = durable_fem_digest(base + "/full", 4, false);

  // A run that stops after step 2's boundary stands in for a killed one:
  // the epochs it leaves on disk are the same bytes a SIGKILL would leave
  // (every commit is atomic-rename durable).
  (void)durable_fem_digest(base + "/killed", 2, false);
  const std::uint64_t got = durable_fem_digest(base + "/killed", 4, true);
  EXPECT_EQ(got, want) << "resume must continue the simulation bit-exactly";
}

TEST(CkptDurable, GracefulShutdownFlushesThenResumesBitExact) {
  const std::string base = fresh_dir("shutdown");
  const std::uint64_t want = durable_fem_digest(base + "/full", 4, false);

  // Shutdown already requested when the run starts: it must stop at the
  // first boundary with that epoch flushed to disk.
  request_shutdown();
  (void)durable_fem_digest(base + "/stopped", 4, false);
  EXPECT_TRUE(shutdown_requested());
  clear_shutdown();
  {
    Disk d(base + "/stopped", /*read_only=*/true);
    EXPECT_EQ(d.epochs(), (std::vector<std::uint64_t>{0}));
  }

  const std::uint64_t got = durable_fem_digest(base + "/stopped", 4, true);
  EXPECT_EQ(got, want);
}

TEST(CkptDurable, WallIntervalGatesDiskWritesOnly) {
  // An hour-long wall interval suppresses every write but the forced first
  // one; the charged captures still happen at every boundary, so the digest
  // cannot move.  On two hypernodes too, every counter bumped between
  // boundaries must survive a boundary that skips its disk write.
  for (const unsigned nodes : {1u, 2u}) {
    SCOPED_TRACE("nodes=" + std::to_string(nodes));
    const std::string base = fresh_dir("wall-" + std::to_string(nodes));
    const std::uint64_t every =
        durable_fem_digest(base + "/every", 3, false, 0.0, nodes);
    const std::uint64_t gated =
        durable_fem_digest(base + "/gated", 3, false, 3600.0, nodes);
    EXPECT_EQ(every, gated);

    Disk de(base + "/every", /*read_only=*/true);
    EXPECT_EQ(de.epochs(), (std::vector<std::uint64_t>{0, 1, 2, 3}));
    Disk dg(base + "/gated", /*read_only=*/true);
    EXPECT_EQ(dg.epochs(), (std::vector<std::uint64_t>{0}));
  }
}

TEST(CkptDurable, ResumeWithNoValidEpochIsAnError) {
  const std::string dir = fresh_dir("no-epoch");
  try {
    (void)durable_fem_digest(dir, 4, /*resume=*/true);
    FAIL() << "--resume with an empty directory must not silently restart";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("no valid epoch"), std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// Kill and resume, every application
// ---------------------------------------------------------------------------

/// What one application run leaves behind: the machine digest and the
/// catalogue's outcome (final diagnostics and result totals).
struct AppRun {
  std::uint64_t digest = 0;
  std::vector<double> diag;
  std::vector<double> totals;
};

/// Runs catalogue entry `app` (8 uniform threads) in a fresh Runtime,
/// durably when `spec` is enabled.
AppRun run_app(const std::string& app, unsigned nodes,
               const DurableSpec& spec) {
  const apps::App& entry = *apps::find(app);
  rt::Runtime runtime(Topology{.nodes = nodes});
  AppRun out;
  runtime.run([&] {
    apps::Outcome o = entry.run(runtime, 8, entry.steps, spec);
    out.diag = std::move(o.diag);
    out.totals = std::move(o.totals);
  });
  out.digest = runtime.machine().perf().digest(runtime.elapsed());
  return out;
}

std::vector<std::string> app_names() {
  std::vector<std::string> names;
  for (const apps::App& a : apps::catalog()) names.emplace_back(a.name);
  return names;
}

class CkptKillResume
    : public ::testing::TestWithParam<std::tuple<std::string, unsigned>> {};

TEST_P(CkptKillResume, ResumeMatchesUninterruptedAndPlainRuns) {
  const std::string app = std::get<0>(GetParam());
  const unsigned nodes = std::get<1>(GetParam());
  const std::string base =
      fresh_dir("kill-" + app + "-" + std::to_string(nodes));
  DurableSpec spec;
  spec.dir = base + "/full";
  spec.interval = 2;
  const AppRun full = run_app(app, nodes, spec);

  // The child dies right after its second epoch commit, exactly as a host
  // OOM-kill would: no unwinding, no flush, a stale LOCK left behind.
  spec.dir = base + "/killed";
  spec.test_kill_after_writes = 2;
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // The child must never return into the test runner.
    try {
      (void)run_app(app, nodes, spec);
    } catch (...) {
    }
    _exit(0);  // reached only if the kill never fired.
  }
  int wstatus = 0;
  ASSERT_EQ(waitpid(child, &wstatus, 0), child);
  ASSERT_TRUE(WIFSIGNALED(wstatus) && WTERMSIG(wstatus) == SIGKILL)
      << "the durable child must die by SIGKILL, status " << wstatus;

  spec.test_kill_after_writes = 0;
  spec.resume = true;
  const AppRun resumed = run_app(app, nodes, spec);
  EXPECT_EQ(resumed.digest, full.digest);
  EXPECT_EQ(resumed.diag, full.diag);
  EXPECT_EQ(resumed.totals, full.totals);

  // Durability changes what a run charges, never what it computes.  PVM PIC
  // is the exception: rank 0 sums the charge meshes in arrival order, and
  // arrivals shift with the charged timing.
  const AppRun plain = run_app(app, nodes, DurableSpec{});
  if (app != "pic-pvm") {
    EXPECT_EQ(full.diag, plain.diag);
  } else {
    ASSERT_EQ(full.diag.size(), plain.diag.size());
    for (std::size_t i = 0; i < plain.diag.size(); ++i) {
      EXPECT_NEAR(full.diag[i], plain.diag[i],
                  1e-12 * std::max(1.0, std::fabs(plain.diag[i])))
          << "diagnostic " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, CkptKillResume,
    ::testing::Combine(::testing::ValuesIn(app_names()),
                       ::testing::Values(1u, 2u)),
    [](const auto& p) {
      std::string name = std::get<0>(p.param);
      std::replace(name.begin(), name.end(), '-', '_');
      return name + "_" + std::to_string(std::get<1>(p.param)) + "n";
    });

// ---------------------------------------------------------------------------
// Watchdog
// ---------------------------------------------------------------------------

using CkptWatchdogDeathTest = ::testing::Test;

TEST(CkptWatchdogDeathTest, AbortsAWedgedSimulation) {
  // A simulated thread that never yields back to the conductor is the
  // wedge the watchdog exists for: dispatches stop, sim time freezes.
  EXPECT_EXIT(
      {
        rt::Runtime runtime(Topology{.nodes = 1});
        rt::Watchdog dog(runtime.conductor(), /*stall_seconds=*/0.3);
        runtime.run([&] {
          for (;;) {
          }
        });
      },
      ::testing::ExitedWithCode(rt::Watchdog::kExitCode), "wedged");
}

TEST(CkptWatchdog, StaysSilentWhileProgressContinues) {
  rt::Runtime runtime(Topology{.nodes = 1});
  rt::Watchdog dog(runtime.conductor(), /*stall_seconds=*/30.0);
  runtime.run([&] {
    runtime.parallel(4, rt::Placement::kUniform,
                     [&](unsigned, unsigned) { runtime.work_flops(1000); });
  });
  EXPECT_GT(runtime.conductor().progress(), 0u);
}

}  // namespace
}  // namespace spp::ckpt
