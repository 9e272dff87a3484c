// spp::check verification-layer tests (docs/CHECKER.md):
//   * the coherence oracle is silent on clean runs (no false positives);
//   * the mutation harness: each deliberately planted protocol bug
//     (lost local invalidation, dropped SCI back-pointer) is caught, and the
//     report names the line and the invariant;
//   * the race detector flags a missing barrier and stays silent when the
//     barrier (or a lock, or a PVM message edge) is restored;
//   * the deadlock analyzer throws DeadlockError on an AB-BA lock cycle and
//     diagnoses a lost wakeup, naming the blocked threads;
//   * attaching a checker changes NOTHING: simulated time and hardware
//     counters are bit-identical to an unchecked run.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "spp/arch/machine.h"
#include "spp/arch/topology.h"
#include "spp/check/check.h"
#include "spp/prof/profiler.h"
#include "spp/pvm/pvm.h"
#include "spp/rt/runtime.h"
#include "spp/rt/sync.h"

namespace spp::check {
namespace {

using arch::MemClass;
using arch::Topology;
using rt::Placement;

bool mentions(const std::vector<std::string>& reports, const char* needle) {
  for (const auto& r : reports) {
    if (r.find(needle) != std::string::npos) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Coherence oracle
// ---------------------------------------------------------------------------

// A heavily shared read/write workload with correct synchronization keeps the
// oracle silent: every invariant it checks actually holds in the seed
// protocol.
TEST(Oracle, SilentOnCleanMultinodeSharing) {
  rt::Runtime runtime(Topology{.nodes = 2});
  Checker checker(runtime);
  runtime.run([&] {
    const arch::VAddr va = runtime.alloc(4096, MemClass::kFarShared, "data");
    rt::Barrier barrier(runtime, 8);
    runtime.parallel(8, Placement::kUniform, [&](unsigned i, unsigned) {
      for (unsigned r = 0; r < 4; ++r) {
        for (unsigned k = 0; k < 16; ++k) runtime.read(va + k * 32, 8);
        barrier.wait();
        if (i == r % 8) {
          for (unsigned k = 0; k < 16; ++k) runtime.write(va + k * 32, 8);
        }
        barrier.wait();
      }
    });
  });
  EXPECT_TRUE(checker.clean()) << "oracle flagged a clean run";
  EXPECT_GT(checker.oracle().events(), 0u);
  EXPECT_EQ(runtime.machine().perf().check_violations, 0u);
}

// Planted bug 1: invalidate_local loses the invalidation message, leaving a
// stale Shared copy behind.  The oracle must catch both the bookkeeping skew
// (directory vs L1 census) and the stale value on the victim's next read hit.
TEST(Oracle, CatchesLostLocalInvalidation) {
  rt::Runtime runtime(Topology{.nodes = 1});
  Checker checker(runtime);
  runtime.machine().set_test_mutation({.skip_local_invalidate = true});
  runtime.run([&] {
    const arch::VAddr va = runtime.alloc(64, MemClass::kNearShared, "shared");
    rt::Barrier barrier(runtime, 2);
    runtime.parallel(2, Placement::kHighLocality, [&](unsigned i, unsigned) {
      runtime.read(va, 8);  // both cache the line Shared.
      barrier.wait();
      if (i == 0) runtime.write(va, 8);  // upgrade SHOULD invalidate cpu 1...
      barrier.wait();
      if (i == 1) runtime.read(va, 8);  // ...whose hit now returns stale data.
      barrier.wait();
    });
  });
  runtime.machine().set_test_mutation({});
  EXPECT_GT(checker.oracle().violations(), 0u);
  EXPECT_TRUE(mentions(checker.oracle().reports(), "sharer mask"))
      << "expected a directory/L1 census mismatch report";
  EXPECT_TRUE(mentions(checker.oracle().reports(), "stale"))
      << "expected a stale-read report naming the line";
  EXPECT_EQ(runtime.machine().perf().check_violations,
            checker.oracle().violations());
}

// Planted bug 2: the SCI purge walk drops the back-pointer update, so the
// purged node keeps an orphan gcache entry (and backed L1 copies) while the
// home sharing list forgets it.
TEST(Oracle, CatchesDroppedSciBackPointer) {
  rt::Runtime runtime(Topology{.nodes = 2});
  Checker checker(runtime);
  runtime.machine().set_test_mutation({.drop_sci_back_pointer = true});
  runtime.run([&] {
    // Home on node 0; the reader lives on node 1 so its copy goes through
    // the SCI list and its node's gcache.
    const arch::VAddr va =
        runtime.alloc(64, MemClass::kNearShared, "remote", /*home_node=*/0);
    rt::Barrier barrier(runtime, 2);
    runtime.parallel(2, Placement::kUniform, [&](unsigned i, unsigned) {
      if (i == 1) runtime.read(va, 8);  // node 1 joins the sharing list.
      barrier.wait();
      if (i == 0) runtime.write(va, 8);  // purge walk SHOULD clear node 1.
      barrier.wait();
      if (i == 1) runtime.read(va, 8);  // orphan gcache copy serves the read.
      barrier.wait();
    });
  });
  runtime.machine().set_test_mutation({});
  EXPECT_GT(checker.oracle().violations(), 0u);
  EXPECT_TRUE(mentions(checker.oracle().reports(), "orphan"))
      << "expected an orphan-gcache-entry report";
}

// The mutation flags themselves are inert while no mutation run is active:
// cleared flags on a fresh machine change nothing (the harness can't leak
// into production paths).
TEST(Oracle, MutationFlagsClearIsInert) {
  rt::Runtime runtime(Topology{.nodes = 1});
  Checker checker(runtime);
  runtime.machine().set_test_mutation({});
  runtime.run([&] {
    const arch::VAddr va = runtime.alloc(64, MemClass::kNearShared, "x");
    runtime.parallel(2, Placement::kHighLocality, [&](unsigned i, unsigned) {
      runtime.read(va, 8);
      (void)i;
    });
  });
  EXPECT_TRUE(checker.clean());
}

// ---------------------------------------------------------------------------
// Race detector
// ---------------------------------------------------------------------------

// Two threads write the same far-shared word with no synchronization between
// them: a textbook race.  The report must name the region label.
TEST(Race, FlagsMissingBarrier) {
  rt::Runtime runtime(Topology{.nodes = 1});
  Checker checker(runtime);
  runtime.run([&] {
    const arch::VAddr va =
        runtime.alloc(64, MemClass::kFarShared, "racy_flag");
    runtime.parallel(2, Placement::kHighLocality, [&](unsigned, unsigned) {
      runtime.write(va, 8);  // no barrier: unordered conflicting writes.
    });
  });
  EXPECT_GT(checker.races().races(), 0u);
  EXPECT_TRUE(mentions(checker.races().reports(), "racy_flag"))
      << "race report should carry the application-level site";
  EXPECT_EQ(runtime.machine().perf().races_detected,
            checker.races().races());
}

// The same access pattern with a barrier between writer turns is ordered:
// the barrier's release/acquire edges must silence the detector.
TEST(Race, BarrierEdgeSilences) {
  rt::Runtime runtime(Topology{.nodes = 1});
  Checker checker(runtime);
  runtime.run([&] {
    const arch::VAddr va = runtime.alloc(64, MemClass::kFarShared, "flag");
    rt::Barrier barrier(runtime, 2);
    runtime.parallel(2, Placement::kHighLocality, [&](unsigned i, unsigned) {
      if (i == 0) runtime.write(va, 8);
      barrier.wait();
      if (i == 1) runtime.write(va, 8);
    });
  });
  EXPECT_EQ(checker.races().races(), 0u);
}

// Lock-protected increments are ordered by the release->acquire chain.
TEST(Race, LockEdgeSilences) {
  rt::Runtime runtime(Topology{.nodes = 1});
  Checker checker(runtime);
  runtime.run([&] {
    const arch::VAddr va = runtime.alloc(64, MemClass::kNearShared, "ctr");
    rt::Lock lock(runtime);
    runtime.parallel(4, Placement::kHighLocality, [&](unsigned, unsigned) {
      rt::CriticalSection cs(lock);
      runtime.read(va, 8);
      runtime.write(va, 8);
    });
  });
  EXPECT_EQ(checker.races().races(), 0u);
}

// A PVM message is a happens-before edge: the receiver may touch data the
// sender prepared, provided the touch is after recv.
TEST(Race, MessageEdgeSilences) {
  rt::Runtime runtime(Topology{.nodes = 2});
  Checker checker(runtime);
  runtime.run([&] {
    const arch::VAddr va = runtime.alloc(64, MemClass::kFarShared, "payload");
    pvm::Pvm root(runtime);
    root.spawn(2, Placement::kUniform, [&](pvm::Pvm& vm, int me, int) {
      if (me == 0) {
        runtime.write(va, 8);
        pvm::Message m;
        double token = 1.0;
        m.pack(&token, 1);
        vm.send(1, 7, std::move(m));
      } else {
        (void)vm.recv(0, 7);
        runtime.read(va, 8);  // ordered by the message edge.
      }
    });
  });
  EXPECT_EQ(checker.races().races(), 0u);
}

// ThreadPrivate regions alias virtually but are physically distinct per CPU;
// they must never produce race reports.
TEST(Race, ThreadPrivateIsSkipped) {
  rt::Runtime runtime(Topology{.nodes = 1});
  Checker checker(runtime);
  runtime.run([&] {
    const arch::VAddr va =
        runtime.alloc(64, MemClass::kThreadPrivate, "scratch");
    runtime.parallel(4, Placement::kHighLocality, [&](unsigned, unsigned) {
      runtime.write(va, 8);
    });
  });
  EXPECT_EQ(checker.races().races(), 0u);
}

// ---------------------------------------------------------------------------
// Deadlock / lost-wakeup analyzer
// ---------------------------------------------------------------------------

// Classic AB-BA: thread 1 takes A then wants B; thread 2 takes B then wants
// A.  The wait-for graph closes a cycle at block time and the conductor
// throws with a report naming both threads.
TEST(Deadlock, AbBaLockCycleThrows) {
  rt::Runtime runtime(Topology{.nodes = 1});
  std::string diagnosis;
  try {
    runtime.run([&] {
      rt::Lock a(runtime), b(runtime);
      rt::Barrier barrier(runtime, 2);
      runtime.parallel(2, Placement::kHighLocality, [&](unsigned i, unsigned) {
        if (i == 0) {
          a.acquire();
          barrier.wait();  // both hold their first lock before crossing.
          b.acquire();
        } else {
          b.acquire();
          barrier.wait();
          a.acquire();
        }
      });
    });
    FAIL() << "AB-BA deadlock did not throw";
  } catch (const rt::DeadlockError& e) {
    diagnosis = e.what();
  }
  EXPECT_NE(diagnosis.find("wait-for cycle"), std::string::npos) << diagnosis;
  EXPECT_NE(diagnosis.find("lock"), std::string::npos) << diagnosis;
  EXPECT_GT(runtime.machine().perf().deadlock_cycles, 0u);
  EXPECT_GT(runtime.machine().perf().deadlock_reports, 0u);
}

// A semaphore p() that nobody will ever v(): no cycle, so the all-blocked
// backstop diagnoses a lost wakeup and names the blocked thread and object.
TEST(Deadlock, LostWakeupDiagnosed) {
  rt::Runtime runtime(Topology{.nodes = 1});
  std::string diagnosis;
  try {
    runtime.run([&] {
      rt::Semaphore sem(runtime, 0);
      sem.p();  // value 0, no signaller: blocks forever.
    });
    FAIL() << "lost wakeup did not throw";
  } catch (const rt::DeadlockError& e) {
    diagnosis = e.what();
  }
  EXPECT_NE(diagnosis.find("all live threads are blocked"), std::string::npos)
      << diagnosis;
  EXPECT_NE(diagnosis.find("semaphore"), std::string::npos) << diagnosis;
  EXPECT_NE(diagnosis.find("wakeup was lost"), std::string::npos) << diagnosis;
  EXPECT_EQ(runtime.machine().perf().deadlock_cycles, 0u);
  EXPECT_GT(runtime.machine().perf().deadlock_reports, 0u);
}

// Join's wait-for edges must NOT fire on healthy fork-join (children finish
// and unblock the parent), and lock handoff retargeting must keep queued
// waiters' edges fresh (no false cycles under contention).
TEST(Deadlock, NoFalsePositivesUnderContention) {
  rt::Runtime runtime(Topology{.nodes = 1});
  runtime.run([&] {
    rt::Lock lock(runtime);
    const arch::VAddr va = runtime.alloc(64, MemClass::kNearShared, "c");
    for (unsigned round = 0; round < 3; ++round) {
      runtime.parallel(8, Placement::kHighLocality, [&](unsigned, unsigned) {
        rt::CriticalSection cs(lock);
        runtime.write(va, 8);
      });
    }
  });
  EXPECT_EQ(runtime.machine().perf().deadlock_reports, 0u);
}

// ---------------------------------------------------------------------------
// Zero-cost / bit-exactness and reporting surface
// ---------------------------------------------------------------------------

// The tentpole's hard requirement: attaching the full checker must not move
// simulated time or any hardware counter by one bit.
TEST(Checker, AttachedRunIsBitExact) {
  const auto workload = [](rt::Runtime& runtime) {
    runtime.run([&] {
      const arch::VAddr va = runtime.alloc(4096, MemClass::kFarShared, "w");
      rt::Barrier barrier(runtime, 8);
      rt::Lock lock(runtime);
      runtime.parallel(8, Placement::kUniform, [&](unsigned i, unsigned) {
        for (unsigned k = 0; k < 32; ++k) runtime.read(va + k * 32, 8);
        barrier.wait();
        {
          rt::CriticalSection cs(lock);
          runtime.write(va + (i % 4) * 32, 8);
        }
        barrier.wait();
      });
    });
  };

  rt::Runtime plain(Topology{.nodes = 2});
  workload(plain);

  rt::Runtime checked(Topology{.nodes = 2});
  Checker checker(checked);
  workload(checked);

  EXPECT_EQ(plain.elapsed(), checked.elapsed()) << "checker moved time";
  const arch::CpuCounters a = plain.machine().perf().total();
  const arch::CpuCounters b = checked.machine().perf().total();
  EXPECT_EQ(a.loads, b.loads);
  EXPECT_EQ(a.stores, b.stores);
  EXPECT_EQ(a.l1_hits, b.l1_hits);
  EXPECT_EQ(a.misses(), b.misses());
  EXPECT_EQ(a.invals_received, b.invals_received);
  EXPECT_EQ(a.mem_stall, b.mem_stall);
  EXPECT_EQ(plain.machine().perf().invals_sent,
            checked.machine().perf().invals_sent);
  // PerfCounters::ring_packets is never incremented; the fabric keeps the
  // packet count.
  EXPECT_GT(plain.machine().rings().packets(), 0u);
  EXPECT_EQ(plain.machine().rings().packets(),
            checked.machine().rings().packets());
  EXPECT_TRUE(checker.clean());
}

// Counters surface through the Profiler and the Checker's own report.
TEST(Checker, ReportSurfacesCounters) {
  rt::Runtime runtime(Topology{.nodes = 1});
  Checker checker(runtime);
  runtime.run([&] {
    const arch::VAddr va = runtime.alloc(64, MemClass::kFarShared, "racy");
    runtime.parallel(2, Placement::kHighLocality, [&](unsigned, unsigned) {
      runtime.write(va, 8);
    });
  });
  EXPECT_FALSE(checker.clean());

  char buf[4096] = {};
  {
    std::FILE* f = fmemopen(buf, sizeof(buf) - 1, "w");
    ASSERT_NE(f, nullptr);
    checker.report(f);
    std::fclose(f);
  }
  EXPECT_NE(std::string(buf).find("races detected"), std::string::npos);
  EXPECT_NE(std::string(buf).find("racy"), std::string::npos);

  char pbuf[4096] = {};
  {
    std::FILE* f = fmemopen(pbuf, sizeof(pbuf) - 1, "w");
    ASSERT_NE(f, nullptr);
    prof::Profiler profiler(runtime, 2);
    profiler.check_report(f);
    std::fclose(f);
  }
  EXPECT_NE(std::string(pbuf).find("races_detected"), std::string::npos);
  EXPECT_NE(std::string(pbuf).find("check_events"), std::string::npos);
}

// reset() re-arms the analyzers between runs: stale shadow state from run 1
// must neither leak violations nor mask run-2 findings.
TEST(Checker, ResetBetweenRuns) {
  rt::Runtime runtime(Topology{.nodes = 1});
  Checker checker(runtime);
  const arch::VAddr va = runtime.alloc(64, MemClass::kFarShared, "again");
  runtime.run([&] {
    runtime.parallel(2, Placement::kHighLocality,
                     [&](unsigned, unsigned) { runtime.write(va, 8); });
  });
  EXPECT_GT(checker.races().races(), 0u);
  checker.reset();
  EXPECT_TRUE(checker.clean());
  runtime.run([&] {
    runtime.parallel(2, Placement::kHighLocality,
                     [&](unsigned, unsigned) { runtime.write(va, 8); });
  });
  EXPECT_GT(checker.races().races(), 0u) << "reset masked a run-2 race";
}

}  // namespace
}  // namespace spp::check
