// Protocol-level tests of the Machine: latency hierarchy, coherence state
// transitions, SWMR invariants, contention behaviour, and the page TLB.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "spp/arch/machine.h"
#include "spp/sim/rng.h"

namespace spp::arch {
namespace {

// The simulated latency hierarchy the paper reports (sections 2.6 and 6):
// 1-cycle hit, ~50-60-cycle miss within a hypernode, and remote misses about
// a factor of 8 above hypernode-local ones.

class MachineLatency : public ::testing::Test {
 protected:
  MachineLatency() : m_(Topology{.nodes = 2}) {}

  sim::Time read_at(unsigned cpu, VAddr va, sim::Time t = 0) {
    return m_.access(cpu, va, false, t) - t;
  }

  Machine m_;
};

TEST_F(MachineLatency, HitIsOneCycle) {
  const VAddr va = m_.vm().allocate(kPageBytes, MemClass::kNearShared, "x", 0);
  read_at(0, va);  // install
  EXPECT_EQ(read_at(0, va, 10000), sim::cycles(1));
}

TEST_F(MachineLatency, HypernodeMissIs50to60Cycles) {
  const VAddr va = m_.vm().allocate(kPageBytes, MemClass::kNearShared, "x", 0);
  const sim::Time lat = read_at(0, va);
  EXPECT_GE(lat, sim::cycles(45));
  EXPECT_LE(lat, sim::cycles(65));
}

TEST_F(MachineLatency, RemoteMissRoughlyEightTimesLocal) {
  // Data homed on node 1, read by a CPU in node 0.
  const VAddr va = m_.vm().allocate(kPageBytes, MemClass::kNearShared, "x", 1);
  const sim::Time local = read_at(8, va);    // cpu 8 is on node 1
  m_ = Machine(Topology{.nodes = 2});        // fresh state
  const VAddr va2 =
      m_.vm().allocate(kPageBytes, MemClass::kNearShared, "x", 1);
  const sim::Time remote = read_at(0, va2);  // cpu 0 is on node 0
  const double ratio = static_cast<double>(remote) / static_cast<double>(local);
  EXPECT_GE(ratio, 4.0) << "remote=" << remote << " local=" << local;
  EXPECT_LE(ratio, 12.0) << "remote=" << remote << " local=" << local;
}

TEST_F(MachineLatency, GcacheHitCostsLikeHypernodeMiss) {
  const VAddr va = m_.vm().allocate(kPageBytes, MemClass::kNearShared, "x", 1);
  read_at(0, va);  // full SCI fetch installs the line in node 0's gcache
  // A *different CPU* of node 0 misses in its L1 but hits the gcache.
  const sim::Time lat = read_at(2, va, 100000);
  EXPECT_GE(lat, sim::cycles(45));
  EXPECT_LE(lat, sim::cycles(75));
  EXPECT_EQ(m_.perf().cpu[2].miss_gcache, 1u);
}

TEST_F(MachineLatency, SecondReadSameCpuIsHit) {
  const VAddr va = m_.vm().allocate(kPageBytes, MemClass::kNearShared, "x", 1);
  read_at(0, va);
  EXPECT_EQ(read_at(0, va, 100000), sim::cycles(1));
  EXPECT_EQ(m_.perf().cpu[0].l1_hits, 1u);
}

class MachineCoherence : public ::testing::Test {
 protected:
  MachineCoherence() : m_(Topology{.nodes = 4}) {
    va_ = m_.vm().allocate(kPageBytes, MemClass::kNearShared, "line", 0);
  }

  sim::Time t_ = 0;
  void read(unsigned cpu) { t_ = m_.access(cpu, va_, false, t_); }
  void write(unsigned cpu) { t_ = m_.access(cpu, va_, true, t_); }

  Machine m_;
  VAddr va_;
};

TEST_F(MachineCoherence, ReadersShare) {
  read(0);
  read(1);
  read(9);   // node 1
  read(17);  // node 2
  EXPECT_EQ(m_.l1_state(0, va_), LineState::kShared);
  EXPECT_EQ(m_.l1_state(9, va_), LineState::kShared);
  EXPECT_TRUE(m_.check_line_invariants(va_));
  EXPECT_GE(m_.sharer_count(va_), 4u);
}

TEST_F(MachineCoherence, WriteInvalidatesAllSharers) {
  read(0);
  read(1);
  read(9);
  read(17);
  write(2);
  EXPECT_EQ(m_.l1_state(2, va_), LineState::kModified);
  EXPECT_EQ(m_.l1_state(0, va_), LineState::kInvalid);
  EXPECT_EQ(m_.l1_state(1, va_), LineState::kInvalid);
  EXPECT_EQ(m_.l1_state(9, va_), LineState::kInvalid);
  EXPECT_EQ(m_.l1_state(17, va_), LineState::kInvalid);
  EXPECT_TRUE(m_.check_line_invariants(va_));
  EXPECT_EQ(m_.sharer_count(va_), 1u);
  EXPECT_GE(m_.perf().sci_purge_targets, 2u);
}

TEST_F(MachineCoherence, RemoteWriteThenLocalReadRecalls) {
  write(9);  // node 1 takes the line dirty
  EXPECT_EQ(m_.l1_state(9, va_), LineState::kModified);
  read(0);   // home node reads: recall, owner downgraded
  EXPECT_EQ(m_.l1_state(0, va_), LineState::kShared);
  EXPECT_NE(m_.l1_state(9, va_), LineState::kModified);
  EXPECT_TRUE(m_.check_line_invariants(va_));
}

TEST_F(MachineCoherence, WriteAfterWriteMovesOwnership) {
  write(9);    // node 1
  write(17);   // node 2 steals
  EXPECT_EQ(m_.l1_state(17, va_), LineState::kModified);
  EXPECT_EQ(m_.l1_state(9, va_), LineState::kInvalid);
  EXPECT_TRUE(m_.check_line_invariants(va_));
  write(0);    // home steals back
  EXPECT_EQ(m_.l1_state(0, va_), LineState::kModified);
  EXPECT_EQ(m_.l1_state(17, va_), LineState::kInvalid);
  EXPECT_TRUE(m_.check_line_invariants(va_));
}

TEST_F(MachineCoherence, UpgradeOnSharedLine) {
  read(0);
  read(1);
  write(0);  // upgrade, not a data miss
  EXPECT_EQ(m_.perf().cpu[0].upgrades, 1u);
  EXPECT_EQ(m_.l1_state(0, va_), LineState::kModified);
  EXPECT_EQ(m_.l1_state(1, va_), LineState::kInvalid);
  EXPECT_TRUE(m_.check_line_invariants(va_));
}

TEST_F(MachineCoherence, RemoteUpgradeOnSharedLine) {
  read(9);
  read(0);
  write(9);  // node 1 upgrades its gcache-backed Shared copy
  EXPECT_EQ(m_.l1_state(9, va_), LineState::kModified);
  EXPECT_EQ(m_.l1_state(0, va_), LineState::kInvalid);
  EXPECT_TRUE(m_.check_line_invariants(va_));
}

TEST_F(MachineCoherence, PurgeCostGrowsWithSharerNodes) {
  // Upgrade latency with 1 vs 3 remote sharer nodes; the SCI purge issue
  // cost on the writer's path must make the larger set strictly more
  // expensive.  (Both writes are S->M upgrades so the comparison is clean.)
  read(0);
  read(8);
  sim::Time t1_start = t_;
  write(0);
  const sim::Time one = t_ - t1_start;

  // Reset sharing: three remote nodes now share.
  read(0);
  read(8);
  read(16);
  read(24);
  sim::Time t3_start = t_;
  write(0);
  const sim::Time three = t_ - t3_start;
  EXPECT_GT(three, one);
  EXPECT_GT(m_.perf().sci_purge_targets, 3u);
}

TEST_F(MachineCoherence, WorkingSetLargerThanL1Evicts) {
  Machine m(Topology{.nodes = 1});
  // 2 MB working set against a 1 MB cache: every revisit misses.
  const std::uint64_t bytes = 2ull << 20;
  const VAddr va = m.vm().allocate(bytes, MemClass::kNearShared, "big", 0);
  sim::Time t = 0;
  for (VAddr a = va; a < va + bytes; a += kLineBytes) {
    t = m.access(0, a, false, t);
  }
  const auto before = m.perf().cpu[0].misses();
  for (VAddr a = va; a < va + bytes; a += kLineBytes) {
    t = m.access(0, a, false, t);
  }
  const auto second_pass = m.perf().cpu[0].misses() - before;
  EXPECT_EQ(second_pass, bytes / kLineBytes)
      << "direct-mapped 1 MB cache must thrash on a 2 MB sweep";
  EXPECT_GT(m.perf().l1_evictions, 0u);
}

TEST_F(MachineCoherence, InCacheWorkingSetStaysResident) {
  Machine m(Topology{.nodes = 1});
  const std::uint64_t bytes = 512ull << 10;  // fits in 1 MB
  const VAddr va = m.vm().allocate(bytes, MemClass::kNearShared, "small", 0);
  sim::Time t = 0;
  for (VAddr a = va; a < va + bytes; a += kLineBytes) t = m.access(0, a, false, t);
  const auto before = m.perf().cpu[0].misses();
  for (VAddr a = va; a < va + bytes; a += kLineBytes) t = m.access(0, a, false, t);
  EXPECT_EQ(m.perf().cpu[0].misses(), before) << "resident set must not miss";
}

TEST_F(MachineCoherence, UncachedAlwaysPaysMemoryRoundTrip) {
  const sim::Time l1 = m_.access_uncached(0, va_, false, 0);
  const sim::Time l2 = m_.access_uncached(0, va_, false, l1) - l1;
  EXPECT_GE(l2, sim::cycles(40));
  EXPECT_EQ(m_.perf().cpu[0].uncached_ops, 2u);
}

TEST_F(MachineCoherence, AtomicsSerializeAtTheBank) {
  // Two CPUs issue atomics at the same instant; the second must queue.
  const sim::Time a = m_.atomic_rmw(0, va_, 0);
  const sim::Time b = m_.atomic_rmw(1, va_, 0);
  EXPECT_GT(b, a) << "rmw bank lock must serialize concurrent atomics";
}

TEST_F(MachineCoherence, BlockAccessTouchesEveryLine) {
  Machine m(Topology{.nodes = 1});
  const VAddr va = m.vm().allocate(kPageBytes, MemClass::kNearShared, "b", 0);
  m.access_block(0, va, 256, false, 0);  // 8 lines
  EXPECT_EQ(m.perf().cpu[0].loads, 8u);
}

TEST_F(MachineCoherence, FlushWritesBackDirtyLines) {
  write(0);
  m_.flush_l1(0);
  EXPECT_EQ(m_.l1_state(0, va_), LineState::kInvalid);
  EXPECT_GE(m_.perf().cpu[0].writebacks, 1u);
  EXPECT_TRUE(m_.check_line_invariants(va_));
}

// Property sweep: random access interleavings preserve SWMR + inclusion.
class MachineProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(MachineProperty, RandomTrafficPreservesInvariants) {
  const unsigned seed = GetParam();
  Machine m(Topology{.nodes = 4});
  const unsigned lines = 64;
  const VAddr va =
      m.vm().allocate(lines * kLineBytes, MemClass::kFarShared, "rnd");
  sim::Time t = 0;
  std::uint64_t s = seed;
  for (int i = 0; i < 4000; ++i) {
    const std::uint64_t r = spp::sim::splitmix64(s);
    const unsigned cpu = r % 32;
    const unsigned line = (r >> 8) % lines;
    const bool w = ((r >> 16) & 3) == 0;
    t = m.access(cpu, va + line * kLineBytes, w, t);
  }
  for (unsigned line = 0; line < lines; ++line) {
    ASSERT_TRUE(m.check_line_invariants(va + line * kLineBytes))
        << "line " << line << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MachineProperty,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

// --- Page TLB ----------------------------------------------------------------
// access() translates through a per-CPU page TLB that caches a page only when
// the region's interleave unit covers the whole page.  An attached observer
// sends every access down the out-of-line path, which still translates
// through the TLB, so each reported physical address must equal a fresh
// VMem::translate of the reported virtual address.

class PaRecorder : public MemObserver {
 public:
  void on_access(const MemEvent& ev) override { events.push_back(ev); }
  std::vector<MemEvent> events;
};

class MachineTlb : public ::testing::Test {
 protected:
  explicit MachineTlb(unsigned nodes = 2) : m_(Topology{.nodes = nodes}) {
    m_.set_observer(&rec_);
  }

  /// From `cpu`: one access() per line of [va, va+bytes) at a mid-line
  /// offset, every third a write, then one access_block() over the same
  /// span shifted by half a line.
  void sweep(unsigned cpu, VAddr va, std::uint64_t bytes) {
    for (std::uint64_t off = 0; off < bytes; off += kLineBytes) {
      t_ = m_.access(cpu, va + off + 8, (off / kLineBytes) % 3 == 0, t_);
      ++expected_;
    }
    t_ = m_.access_block(cpu, va + kLineBytes / 2, bytes - kLineBytes, false,
                         t_);
    expected_ += bytes / kLineBytes;
  }

  void expect_exact_translations() const {
    ASSERT_EQ(rec_.events.size(), expected_);
    for (const MemEvent& ev : rec_.events) {
      ASSERT_EQ(ev.pa, m_.vm().translate(ev.va, ev.cpu))
          << "cpu " << ev.cpu << " va 0x" << std::hex << ev.va;
    }
  }

  Machine m_;
  PaRecorder rec_;
  sim::Time t_ = 0;
  std::size_t expected_ = 0;
};

class MachineTlbOneNode : public MachineTlb {
 protected:
  MachineTlbOneNode() : MachineTlb(1) {}
};

TEST_F(MachineTlb, ThreadPrivateResolvesPerCpu) {
  const std::uint64_t bytes = 3 * kPageBytes;
  const VAddr va = m_.vm().allocate(bytes, MemClass::kThreadPrivate, "tp");
  for (const unsigned cpu : {0u, 1u, 2u, 9u, 15u, 0u}) sweep(cpu, va, bytes);
  expect_exact_translations();
  EXPECT_NE(m_.vm().translate(va, 0), m_.vm().translate(va, 1));
}

TEST_F(MachineTlb, NodePrivateResolvesPerNode) {
  const std::uint64_t bytes = 6 * kPageBytes;
  const VAddr va = m_.vm().allocate(bytes, MemClass::kNodePrivate, "np");
  for (const unsigned cpu : {0u, 8u, 3u, 12u}) sweep(cpu, va, bytes);
  expect_exact_translations();
  EXPECT_NE(m_.vm().translate(va, 0), m_.vm().translate(va, 8));
}

TEST_F(MachineTlb, NearAndFarSharedPagesInterleave) {
  const std::uint64_t bytes = 9 * kPageBytes;
  const VAddr near_va =
      m_.vm().allocate(bytes, MemClass::kNearShared, "near", /*home_node=*/1);
  const VAddr far_va = m_.vm().allocate(bytes, MemClass::kFarShared, "far");
  for (const unsigned cpu : {0u, 8u}) {
    sweep(cpu, near_va, bytes);
    sweep(cpu, far_va, bytes);
  }
  expect_exact_translations();
}

TEST_F(MachineTlb, TwoPageBlocksAreLinearPerPage) {
  const std::uint64_t bytes = 12 * kPageBytes;
  const VAddr va = m_.vm().allocate(bytes, MemClass::kBlockShared, "blk2p",
                                    0, 2 * kPageBytes);
  for (const unsigned cpu : {0u, 8u, 5u}) sweep(cpu, va, bytes);
  expect_exact_translations();
}

TEST_F(MachineTlbOneNode, SubPageBlocksAreNeverCached) {
  // 320-byte blocks deal FUs 0,1,2,3,0,... within one page: bytes 0 and
  // 4095 of the first page (blocks 0 and 12) both land in FU 0 at linear
  // offsets, so a fill that compared endpoint translations would cache
  // the page and misplace blocks 1-11.
  const std::uint64_t bytes = 4 * kPageBytes;
  const VAddr va =
      m_.vm().allocate(bytes, MemClass::kBlockShared, "blk320", 0, 320);
  const VMem& vm = m_.vm();
  ASSERT_EQ(vm.translate(va + kPageBytes - 1, 0),
            vm.translate(va, 0) + kPageBytes - 1);
  ASSERT_NE(home_fu_of(vm.translate(va + 320, 0)),
            home_fu_of(vm.translate(va, 0)));
  for (const unsigned cpu : {0u, 7u}) sweep(cpu, va, bytes);
  expect_exact_translations();
}

TEST_F(MachineTlb, ArraysSixtyFourPagesApartAlternate) {
  const std::uint64_t bytes = 64 * kPageBytes;
  const VAddr a = m_.vm().allocate(bytes, MemClass::kFarShared, "a");
  const VAddr b = m_.vm().allocate(bytes, MemClass::kFarShared, "b");
  ASSERT_EQ(b - a, bytes);
  for (std::uint64_t off = 0; off < bytes; off += 520) {
    t_ = m_.access(3, a + off, false, t_);
    t_ = m_.access(3, b + off, true, t_);
    expected_ += 2;
  }
  expect_exact_translations();
}

TEST_F(MachineTlb, UnmappedAddressStillThrows) {
  const VAddr va = m_.vm().allocate(kPageBytes, MemClass::kFarShared, "x");
  t_ = m_.access(0, va, false, t_);  // caches va's page
  EXPECT_THROW(m_.access(0, 0, false, t_), std::out_of_range);
  EXPECT_THROW(m_.access(0, va + kPageBytes, false, t_), std::out_of_range);
  // Same TLB slot as the cached page, different page.
  EXPECT_THROW(m_.access(0, va + 256 * kPageBytes, false, t_),
               std::out_of_range);
  m_.set_observer(nullptr);
  EXPECT_THROW(m_.access(0, va + 256 * kPageBytes, false, t_),
               std::out_of_range);
}

}  // namespace
}  // namespace spp::arch
