// Tests of the simulated-thread runtime: conductor determinism, fork-join
// semantics, placement policies, barriers, locks, semaphores, GlobalArray.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "spp/apps/nbody/nbody.h"
#include "spp/apps/ppm/ppm.h"
#include "spp/rt/garray.h"
#include "spp/rt/runtime.h"
#include "spp/rt/sync.h"
#include "spp/rt/watchdog.h"

namespace spp::rt {
namespace {

using arch::MemClass;
using arch::Topology;

TEST(Conductor, RunsMainToCompletion) {
  Runtime rt(Topology{.nodes = 1});
  bool ran = false;
  rt.run([&] { ran = true; });
  EXPECT_TRUE(ran);
}

TEST(Conductor, ForkJoinRunsAllBodies) {
  Runtime rt(Topology{.nodes = 2});
  std::vector<int> hits(16, 0);
  rt.run([&] {
    rt.parallel(16, Placement::kHighLocality,
                [&](unsigned i, unsigned n) {
                  EXPECT_EQ(n, 16u);
                  hits[i]++;
                });
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(Conductor, NestedForkJoin) {
  Runtime rt(Topology{.nodes = 2});
  int total = 0;
  Lock* lock = nullptr;
  rt.run([&] {
    Lock l(rt);
    lock = &l;
    rt.parallel(4, Placement::kHighLocality, [&](unsigned, unsigned) {
      rt.parallel(2, Placement::kHighLocality, [&](unsigned, unsigned) {
        CriticalSection cs(*lock);
        ++total;
      });
    });
  });
  EXPECT_EQ(total, 8);
}

TEST(Conductor, DeterministicTiming) {
  sim::Time first = 0;
  for (int trial = 0; trial < 3; ++trial) {
    Runtime rt(Topology{.nodes = 2});
    rt.run([&] {
      Barrier b(rt, 8);
      rt.parallel(8, Placement::kUniform, [&](unsigned i, unsigned) {
        rt.work_flops(100.0 * (i + 1));
        b.wait();
        rt.work_flops(50.0);
      });
    });
    if (trial == 0) {
      first = rt.elapsed();
    } else {
      EXPECT_EQ(rt.elapsed(), first) << "simulation must be deterministic";
    }
  }
  EXPECT_GT(first, 0u);
}

// The conductor runs the earliest ready thread on every topology, not only
// on one hypernode.  Two threads on different hypernodes align at 100 us and
// yield after every 100 ns step, so the clocks they record, in the order the
// steps execute, must never go backwards.
TEST(Conductor, MultiNodeDispatchFollowsGlobalClockOrder) {
  Runtime rt(Topology{.nodes = 2});
  constexpr int kSteps = 40;
  std::vector<std::pair<unsigned, sim::Time>> steps;  // (thread, clock)
  rt.run([&] {
    rt.parallel(2, Placement::kUniform, [&](unsigned i, unsigned) {
      ASSERT_EQ(rt.topo().node_of_cpu(rt.cpu()), i);
      SThread& me = Conductor::self();
      me.set_clock(100 * sim::kMicrosecond);
      for (int k = 0; k < kSteps; ++k) {
        me.advance(100 * sim::kNanosecond);
        steps.emplace_back(i, me.clock());
        rt.conductor().yield();
      }
    });
  });
  ASSERT_EQ(steps.size(), 2u * kSteps);
  unsigned inversions = 0;
  for (std::size_t k = 1; k < steps.size(); ++k) {
    if (steps[k].second < steps[k - 1].second) ++inversions;
  }
  EXPECT_EQ(inversions, 0u);
  // Equal clocks break ties by tid, so the two threads strictly alternate.
  for (std::size_t k = 0; k < steps.size(); ++k) {
    EXPECT_EQ(steps[k].first, k % 2) << "step " << k;
  }
}

std::uint64_t nbody_digest() {
  Runtime rt(Topology{.nodes = 4});
  nbody::NbodyConfig cfg;
  cfg.n = 192;
  cfg.steps = 2;
  nbody::NbodyShared nb(rt, cfg, 16, Placement::kUniform);
  rt.run([&] { (void)nb.run(); });
  return rt.machine().perf().digest(rt.elapsed());
}

std::uint64_t ppm_digest() {
  Runtime rt(Topology{.nodes = 4});
  ppm::PpmConfig cfg;
  cfg.nx = 24;
  cfg.ny = 24;
  cfg.tiles_x = 4;
  cfg.tiles_y = 4;
  cfg.steps = 3;
  ppm::PpmTiled ppm(rt, cfg, 16, Placement::kUniform);
  ppm.init_blast(3.0, 4.0);
  rt.run([&] { (void)ppm.run(); });
  return rt.machine().perf().digest(rt.elapsed());
}

// Multi-node determinism: whole apps on four hypernodes give the same
// digest on every run (no host state leaks into the schedule).
TEST(Conductor, MultiNodeRepeatRunsAreBitStable) {
  EXPECT_EQ(nbody_digest(), nbody_digest());
  EXPECT_EQ(ppm_digest(), ppm_digest());
}

TEST(Conductor, AsyncSpawnAndJoin) {
  Runtime rt(Topology{.nodes = 1});
  int done = 0;
  rt.run([&] {
    AsyncGroup g = rt.spawn_async(4, Placement::kHighLocality,
                                  [&](unsigned, unsigned) { ++done; });
    rt.work_flops(10);  // parent continues before join
    rt.join(g);
    EXPECT_EQ(done, 4);
  });
}

TEST(Conductor, DeadlockIsDetected) {
  Runtime rt(Topology{.nodes = 1});
  EXPECT_THROW(
      rt.run([&] {
        Semaphore s(rt, 0);
        s.p();  // nobody will ever v()
      }),
      std::runtime_error);
}

// Every SThread shares one host thread, whose C++ runtime keeps a single
// caught-exception chain; Fiber swaps it per fiber.  Each thread suspends
// inside its handler while the other throws, so a shared chain would hand
// each rethrow the other thread's exception.
TEST(Conductor, EachThreadRethrowsItsOwnException) {
  Runtime rt(Topology{.nodes = 1});
  std::vector<int> got(2, -1);
  rt.run([&] {
    Semaphore zero_caught(rt, 0);
    Semaphore one_caught(rt, 0);
    Semaphore zero_done(rt, 0);
    rt.parallel(2, Placement::kHighLocality, [&](unsigned i, unsigned) {
      if (i == 1) zero_caught.p();  // thread 0 is in its handler first
      try {
        throw static_cast<int>(i);
      } catch (int) {
        if (i == 0) {
          zero_caught.v();
          one_caught.p();
        } else {
          one_caught.v();
          zero_done.p();
        }
        try {
          throw;
        } catch (int v) {
          got[i] = v;
        }
        if (i == 0) zero_done.v();
      }
    });
  });
  EXPECT_EQ(got, (std::vector<int>{0, 1}));
}

TEST(Placement, HighLocalityFillsFirstNode) {
  Runtime rt(Topology{.nodes = 2});
  for (unsigned i = 0; i < 8; ++i) {
    EXPECT_EQ(rt.topo().node_of_cpu(rt.place_cpu(i, 16, Placement::kHighLocality)), 0u);
  }
  for (unsigned i = 8; i < 16; ++i) {
    EXPECT_EQ(rt.topo().node_of_cpu(rt.place_cpu(i, 16, Placement::kHighLocality)), 1u);
  }
}

TEST(Placement, UniformDealsAcrossNodes) {
  Runtime rt(Topology{.nodes = 2});
  unsigned node_count[2] = {0, 0};
  std::vector<unsigned> cpus;
  for (unsigned i = 0; i < 16; ++i) {
    const unsigned cpu = rt.place_cpu(i, 16, Placement::kUniform);
    node_count[rt.topo().node_of_cpu(cpu)]++;
    cpus.push_back(cpu);
  }
  EXPECT_EQ(node_count[0], 8u);
  EXPECT_EQ(node_count[1], 8u);
  // All 16 CPUs distinct.
  std::sort(cpus.begin(), cpus.end());
  EXPECT_TRUE(std::adjacent_find(cpus.begin(), cpus.end()) == cpus.end());
}

TEST(ForkJoin, CrossNodeForkCostsMore) {
  Runtime rt_local(Topology{.nodes = 2});
  rt_local.run([&] {
    rt_local.parallel(8, Placement::kHighLocality, [](unsigned, unsigned) {});
  });
  const sim::Time local = rt_local.elapsed();

  Runtime rt_split(Topology{.nodes = 2});
  rt_split.run([&] {
    rt_split.parallel(8, Placement::kUniform, [](unsigned, unsigned) {});
  });
  const sim::Time split = rt_split.elapsed();
  EXPECT_GT(split, local + 40 * sim::kMicrosecond)
      << "crossing a hypernode must add the ~50us engagement step";
}

TEST(ForkJoin, TimeScalesWithThreadCount) {
  auto forkjoin_time = [](unsigned n) {
    Runtime rt(Topology{.nodes = 1});
    rt.run([&] {
      rt.parallel(n, Placement::kHighLocality, [](unsigned, unsigned) {});
    });
    return rt.elapsed();
  };
  const sim::Time t2 = forkjoin_time(2);
  const sim::Time t4 = forkjoin_time(4);
  const sim::Time t8 = forkjoin_time(8);
  EXPECT_GT(t4, t2);
  EXPECT_GT(t8, t4);
  // Roughly linear: t8 - t4 should be close to 2x (t4 - t2).
  const double slope_ratio =
      static_cast<double>(t8 - t4) / static_cast<double>(t4 - t2);
  EXPECT_GT(slope_ratio, 1.5);
  EXPECT_LT(slope_ratio, 2.5);
}

TEST(BarrierTest, AllThreadsLeaveAfterLastArrives) {
  Runtime rt(Topology{.nodes = 2});
  std::vector<sim::Time> exit_time(8, 0);
  sim::Time last_entry = 0;
  rt.run([&] {
    Barrier b(rt, 8);
    rt.parallel(8, Placement::kHighLocality, [&](unsigned i, unsigned) {
      rt.work_flops(1000.0 * i);  // staggered arrivals
      last_entry = std::max(last_entry, rt.now());
      b.wait();
      exit_time[i] = rt.now();
    });
  });
  for (unsigned i = 0; i < 8; ++i) {
    EXPECT_GT(exit_time[i], last_entry)
        << "thread " << i << " left the barrier before the last arrival";
  }
}

TEST(BarrierTest, ReusableAcrossPhases) {
  Runtime rt(Topology{.nodes = 1});
  int phase_sum = 0;
  rt.run([&] {
    Barrier b(rt, 4);
    rt.parallel(4, Placement::kHighLocality, [&](unsigned, unsigned) {
      for (int phase = 0; phase < 5; ++phase) {
        b.wait();
      }
      ++phase_sum;
    });
  });
  EXPECT_EQ(phase_sum, 4);
}

TEST(BarrierTest, SecondHypernodeAddsLifoPenalty) {
  // Figure 3: the minimum last-in -> first-out time grows by about a
  // microsecond once threads on a second hypernode become involved.
  auto min_lifo = [](unsigned nthreads) {
    Runtime rt(Topology{.nodes = 2});
    sim::Time best = ~sim::Time{0};
    rt.run([&] {
      Barrier b(rt, nthreads);
      std::vector<sim::Time> entry(nthreads), exit_t(nthreads);
      for (unsigned k = 0; k < 4; ++k) {
        rt.parallel(nthreads, Placement::kHighLocality,
                    [&](unsigned i, unsigned n) {
                      b.wait();  // align
                      rt.work_flops(5000.0 * ((i * 5 + k * 3) % n));
                      entry[i] = rt.now();
                      b.wait();
                      exit_t[i] = rt.now();
                    });
        const sim::Time lifo =
            *std::min_element(exit_t.begin(), exit_t.end()) -
            *std::max_element(entry.begin(), entry.end());
        best = std::min(best, lifo);
      }
    });
    return best;
  };
  const sim::Time one_node = min_lifo(8);    // all on hypernode 0
  const sim::Time two_node = min_lifo(16);   // spills onto hypernode 1
  EXPECT_GT(two_node, one_node);
  EXPECT_LT(two_node, one_node + 3 * sim::kMicrosecond)
      << "the penalty should be around a microsecond, not a remote miss";
}

TEST(LockTest, MutualExclusionCount) {
  Runtime rt(Topology{.nodes = 2});
  long counter = 0;
  rt.run([&] {
    Lock l(rt);
    rt.parallel(16, Placement::kUniform, [&](unsigned, unsigned) {
      for (int k = 0; k < 10; ++k) {
        CriticalSection cs(l);
        ++counter;  // serialized by the conductor + lock
      }
    });
  });
  EXPECT_EQ(counter, 160);
}

TEST(LockTest, ContendedAcquireAdvancesTime) {
  Runtime rt(Topology{.nodes = 1});
  sim::Time uncontended = 0, contended = 0;
  rt.run([&] {
    Lock l(rt);
    const sim::Time t0 = rt.now();
    l.acquire();
    uncontended = rt.now() - t0;
    l.release();
    rt.parallel(4, Placement::kHighLocality, [&](unsigned i, unsigned) {
      const sim::Time s = rt.now();
      l.acquire();
      rt.work_flops(500);
      l.release();
      if (i == 3) contended = rt.now() - s;
    });
  });
  EXPECT_GT(contended, uncontended);
}

TEST(SemaphoreTest, ProducerConsumer) {
  Runtime rt(Topology{.nodes = 1});
  std::vector<int> consumed;
  rt.run([&] {
    Semaphore items(rt, 0);
    AsyncGroup consumer =
        rt.spawn_async(1, Placement::kHighLocality, [&](unsigned, unsigned) {
          for (int k = 0; k < 3; ++k) {
            items.p();
            consumed.push_back(k);
          }
        });
    rt.parallel(1, Placement::kHighLocality, [&](unsigned, unsigned) {
      for (int k = 0; k < 3; ++k) {
        rt.work_flops(100);
        items.v();
      }
    });
    rt.join(consumer);
  });
  EXPECT_EQ(consumed.size(), 3u);
}

TEST(GlobalArrayTest, SharedReadWrite) {
  Runtime rt(Topology{.nodes = 2});
  GlobalArray<double> a(rt, 64, MemClass::kFarShared, "a");
  rt.run([&] {
    rt.parallel(4, Placement::kUniform, [&](unsigned i, unsigned) {
      a.write(i, 2.5 * i);
    });
    rt.parallel(4, Placement::kUniform, [&](unsigned i, unsigned) {
      EXPECT_DOUBLE_EQ(a.read(i), 2.5 * i);
    });
  });
  EXPECT_DOUBLE_EQ(a.raw(3), 7.5);
}

TEST(GlobalArrayTest, ThreadPrivateInstancesAreIndependent) {
  Runtime rt(Topology{.nodes = 1});
  GlobalArray<int> a(rt, 4, MemClass::kThreadPrivate, "tp");
  rt.run([&] {
    rt.parallel(8, Placement::kHighLocality, [&](unsigned i, unsigned) {
      a.write(0, static_cast<int>(i) + 100);
    });
    rt.parallel(8, Placement::kHighLocality, [&](unsigned i, unsigned) {
      EXPECT_EQ(a.read(0), static_cast<int>(i) + 100)
          << "thread " << i << " sees another thread's private data";
    });
  });
}

TEST(GlobalArrayTest, NodePrivateSharedWithinNode) {
  Runtime rt(Topology{.nodes = 2});
  GlobalArray<int> a(rt, 1, MemClass::kNodePrivate, "np");
  rt.run([&] {
    rt.parallel(2, Placement::kUniform, [&](unsigned i, unsigned) {
      a.write(0, static_cast<int>(i) * 11 + 7);  // thread 0 -> node 0, 1 -> node 1
    });
    rt.parallel(2, Placement::kUniform, [&](unsigned i, unsigned) {
      EXPECT_EQ(a.read(0), static_cast<int>(i) * 11 + 7);
    });
  });
}

TEST(GlobalArrayTest, AccumulateChargesReadAndWrite) {
  Runtime rt(Topology{.nodes = 1});
  GlobalArray<double> a(rt, 8, MemClass::kNearShared, "acc");
  rt.run([&] {
    rt.parallel(1, Placement::kHighLocality, [&](unsigned, unsigned) {
      a.write(3, 1.0);
      a.accumulate(3, 2.0);
      a.accumulate(3, 4.0);
    });
  });
  EXPECT_DOUBLE_EQ(a.raw(3), 7.0);
  const auto& c = rt.machine().perf().cpu[0];
  EXPECT_GE(c.stores, 3u);
  EXPECT_GE(c.loads, 2u);
}

TEST(WorkCharging, FlopsAdvanceClockAndCounters) {
  Runtime rt(Topology{.nodes = 1});
  rt.run([&] {
    rt.parallel(1, Placement::kHighLocality, [&](unsigned, unsigned) {
      const sim::Time t0 = rt.now();
      rt.work_flops(35000);  // at 0.35 flops/cycle: 100k cycles = 1 ms
      EXPECT_EQ(rt.now() - t0, sim::cycles(100000));
    });
  });
  EXPECT_DOUBLE_EQ(rt.machine().perf().cpu[0].flops, 35000.0);
}

TEST(RuntimeLifecycle, SequentialRunsAccumulateTime) {
  Runtime rt(Topology{.nodes = 1});
  rt.run([&] { rt.work_flops(1000); });
  const sim::Time t1 = rt.elapsed();
  rt.run([&] { rt.work_flops(1000); });
  EXPECT_GT(rt.elapsed(), t1);
}

// The watchdog's only cross-thread traffic is the relaxed progress_ counter
// and the relaxed stop_ flag (see their comments in conductor.h /
// watchdog.h).  This test is the audit for that claim: it keeps the
// conductor dispatching for several watchdog poll periods (the poll thread
// samples progress() every 100 ms of wall time), so the tsan CI leg
// observes the watchdog's reads genuinely overlapping live bumps.  A data
// race here -- e.g. progress_ demoted to a plain uint64_t -- fails the tsan
// leg; on non-tsan builds the test still pins the silent-while-live
// contract.
TEST(Watchdog, PollsLiveRunWithoutRaces) {
  Runtime rt(Topology{.nodes = 2});
  Watchdog dog(rt.conductor(), /*stall_seconds=*/60.0);
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t rounds = 0;
  while (std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
             .count() < 0.35) {
    rt.run([&] {
      rt.parallel(8, Placement::kUniform,
                  [&](unsigned, unsigned) { rt.work_flops(500); });
    });
    ++rounds;
  }
  EXPECT_GT(rounds, 0u);
  EXPECT_GT(rt.conductor().progress(), rounds);
}

}  // namespace
}  // namespace spp::rt
