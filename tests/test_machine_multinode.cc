// Multi-hypernode protocol tests: ring-distance effects, gcache capacity and
// eviction bookkeeping, full-machine (16-node) configurations.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "spp/arch/machine.h"

namespace spp::arch {
namespace {

TEST(MultiNode, RoundTripHopsAreConstantOnAUnidirectionalRing) {
  // SCI rings are unidirectional: request hops + response hops always total
  // the ring size, so remote latency within one machine is
  // distance-INDEPENDENT -- a genuine property of the topology.
  Machine m(Topology{.nodes = 16});
  auto fetch_cycles = [&](unsigned home_node, sim::Time at) {
    const VAddr va = m.vm().allocate(kPageBytes, MemClass::kNearShared,
                                     "probe", home_node);
    return sim::to_cycles(m.access(0, va, false, at) - at);
  };
  const auto d1 = fetch_cycles(1, 1000000);
  const auto d8 = fetch_cycles(8, 2000000);
  const auto d15 = fetch_cycles(15, 3000000);
  EXPECT_EQ(d1, d8);
  EXPECT_EQ(d8, d15);
}

TEST(MultiNode, RemoteLatencyGrowsWithMachineSize) {
  // ...but BIGGER rings cost more: a 16-node machine's remote fetch pays 16
  // round-trip hops where a 2-node machine pays 2.
  auto fetch_cycles = [](unsigned nodes) {
    Machine m(Topology{.nodes = nodes});
    const VAddr va =
        m.vm().allocate(kPageBytes, MemClass::kNearShared, "probe", 1);
    return sim::to_cycles(m.access(0, va, false, 1000000) - 1000000);
  };
  const auto n2 = fetch_cycles(2);
  const auto n8 = fetch_cycles(8);
  const auto n16 = fetch_cycles(16);
  EXPECT_LT(n2, n8);
  EXPECT_LT(n8, n16);
  const CostModel cm;
  EXPECT_EQ(n16 - n2, (16u - 2u) * cm.ring_hop);
}

TEST(MultiNode, FullMachineSupports128Cpus) {
  Machine m(Topology{.nodes = 16});
  const VAddr va =
      m.vm().allocate(128 * kLineBytes, MemClass::kFarShared, "all");
  sim::Time t = 0;
  for (unsigned cpu = 0; cpu < 128; ++cpu) {
    t = m.access(cpu, va + (cpu % 4) * kLineBytes, false, t);
  }
  for (unsigned k = 0; k < 4; ++k) {
    EXPECT_TRUE(m.check_line_invariants(va + k * kLineBytes));
  }
  EXPECT_GE(m.sharer_count(va), 16u);  // many L1s + gcaches hold line 0
}

TEST(MultiNode, GcacheEvictionInvalidatesBackedL1s) {
  // A tiny gcache forces conflict evictions; inclusion must hold: when a
  // node's buffer entry is replaced, that node's L1 copies die with it.
  CostModel cm;
  cm.gcache_bytes = 4 * kLineBytes;  // 4 sets
  Machine m(Topology{.nodes = 2}, cm);
  // Remote lines that collide in the 4-set buffer.
  const VAddr a =
      m.vm().allocate(64 * kPageBytes, MemClass::kNearShared, "remote", 1);
  sim::Time t = 0;
  t = m.access(0, a, false, t);  // line A -> gcache set s, L1 of cpu 0
  EXPECT_EQ(m.l1_state(0, a), LineState::kExclusive);
  // Touch lines that map to the same gcache set until A is evicted.
  bool evicted = false;
  for (unsigned k = 1; k <= 64 && !evicted; ++k) {
    t = m.access(2, a + k * 4 * kLineBytes * /* cycle sets */ 1, false, t);
    evicted = m.perf().gcache_evictions > 0;
  }
  EXPECT_TRUE(evicted);
  // Invariants hold for every touched line.
  for (unsigned k = 0; k <= 64; ++k) {
    ASSERT_TRUE(m.check_line_invariants(a + k * 4 * kLineBytes));
  }
}

TEST(MultiNode, WriteSharedByManyNodesPurgesAll) {
  Machine m(Topology{.nodes = 8});
  const VAddr va =
      m.vm().allocate(kPageBytes, MemClass::kNearShared, "line", 0);
  sim::Time t = 0;
  // One reader per remote node.
  for (unsigned node = 1; node < 8; ++node) {
    t = m.access(node * kCpusPerNode, va, false, t);
  }
  EXPECT_GE(m.sharer_count(va), 7u);
  t = m.access(0, va, true, t);
  EXPECT_EQ(m.sharer_count(va), 1u);  // writer only
  EXPECT_EQ(m.perf().sci_purge_targets, 7u);
  EXPECT_TRUE(m.check_line_invariants(va));
}

TEST(MultiNode, SciListHoldsEveryRemoteNodeOnAFullMachine) {
  // One far-shared line homed on node 0 (far-shared page 0 lives on node
  // 0), read by one CPU on each of the other 15 hypernodes in turn.
  Machine m(Topology{.nodes = 16});
  const VAddr va = m.vm().allocate(kPageBytes, MemClass::kFarShared, "line");
  const LineAddr line = line_of(m.vm().translate(va, 0));
  ASSERT_EQ(m.topo().node_of_fu(home_fu_of(line_base(line))), 0u);
  sim::Time t = 0;
  for (unsigned node = 1; node < 16; ++node) {
    t = m.access(node * kCpusPerNode, va, false, t);
  }
  // Each reader attaches at the head: most recent first.
  std::vector<std::uint8_t> want;
  for (unsigned node = 15; node >= 1; --node) {
    want.push_back(static_cast<std::uint8_t>(node));
  }
  EXPECT_EQ(m.dir_view(line).sci_list, want);
  EXPECT_TRUE(m.check_line_invariants(va));

  // A home-node write purges all 15.
  t = m.access(0, va, true, t);
  EXPECT_EQ(m.perf().sci_purge_targets, 15u);
  EXPECT_TRUE(m.dir_view(line).sci_list.empty());
  EXPECT_TRUE(m.check_line_invariants(va));

  // A write from node 7 leaves it the only, dirty sharer.
  (void)m.access(7 * kCpusPerNode, va, true, t);
  const Machine::DirView v = m.dir_view(line);
  EXPECT_EQ(v.sci_list, (std::vector<std::uint8_t>{7}));
  EXPECT_TRUE(v.remote_dirty);
  EXPECT_EQ(v.owner_node, 7u);
  EXPECT_TRUE(m.check_line_invariants(va));
}

TEST(MultiNode, ThreadPrivateNeverLeavesTheFu) {
  Machine m(Topology{.nodes = 4});
  const VAddr va =
      m.vm().allocate(kPageBytes, MemClass::kThreadPrivate, "tp");
  sim::Time t = 0;
  for (unsigned cpu = 0; cpu < 32; ++cpu) {
    t = m.access(cpu, va, false, t);
    t = m.access(cpu, va, true, t);
  }
  // All accesses resolve to the accessor's own FU: no ring packets at all.
  EXPECT_EQ(m.rings().packets(), 0u);
  const auto total = m.perf().total();
  EXPECT_EQ(total.miss_remote, 0u);
  EXPECT_EQ(total.miss_gcache, 0u);
}

TEST(MultiNode, UncachedRemoteScalesWithMachineSizeToo) {
  auto rmw_cycles = [](unsigned nodes) {
    Machine m(Topology{.nodes = nodes});
    const VAddr sem =
        m.vm().allocate(kLineBytes, MemClass::kNearShared, "s", 1);
    return sim::to_cycles(m.atomic_rmw(0, sem, 1000000) - 1000000);
  };
  EXPECT_LT(rmw_cycles(2), rmw_cycles(16));
}

TEST(MultiNode, ContendedRemoteFetchesQueueOnTheRing) {
  // All 8 CPUs of node 0 fetch distinct lines from node 2 simultaneously:
  // ring-interface and link occupancy must show up as queueing.
  Machine m(Topology{.nodes = 4});
  const VAddr va =
      m.vm().allocate(64 * kLineBytes, MemClass::kNearShared, "far", 2);
  sim::Time done_first = 0, done_last = 0;
  for (unsigned k = 0; k < 8; ++k) {
    const sim::Time done = m.access(k, va + k * kLineBytes, false, 1000000);
    if (k == 0) done_first = done;
    done_last = std::max(done_last, done);
  }
  EXPECT_GT(done_last, done_first) << "simultaneous fetches must serialize "
                                      "partially at shared ring resources";
}

}  // namespace
}  // namespace spp::arch
