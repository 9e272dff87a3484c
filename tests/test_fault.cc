// Fault injection and recovery tests (docs/FAULTS.md):
//   * seed determinism -- identical (seed, plan, workload) runs are
//     bit-identical in time and counters;
//   * PVM ping-pong completes under message loss/duplication/delay, with
//     every retry visible in the machine counters;
//   * a CPU fail-stop mid-run migrates work to surviving CPUs and every
//     app of the catalogue still reaches its fault-free answer, with no
//     checkpoint (docs/RECOVERY.md);
//   * dead ring links reroute onto surviving rings and charge strictly more
//     than the healthy path;
//   * a zero-fault plan changes NOTHING: attaching an empty injector leaves
//     simulated time and counters exactly as an un-instrumented run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "spp/apps/catalog.h"
#include "spp/apps/nbody/nbody.h"
#include "spp/arch/cost_model.h"
#include "spp/arch/machine.h"
#include "spp/arch/topology.h"
#include "spp/fault/fault.h"
#include "spp/pvm/pvm.h"
#include "spp/rt/runtime.h"
#include "spp/sci/ring.h"

namespace spp::fault {
namespace {

using arch::CostModel;
using arch::Topology;

// ---------------------------------------------------------------------------
// Plan construction, parsing, validation
// ---------------------------------------------------------------------------

TEST(FaultPlan, ParsesTextFormat) {
  const FaultPlan plan = FaultPlan::parse(
      "# comment line\n"
      "seed 42\n"
      "link-down 1000 2 3   # trailing comment\n"
      "link-degrade 2000 1 0 4\n"
      "cpu-fail 3000 5\n"
      "pvm-loss 0 0.01 0.005 0.002 20000\n"
      "link-up 4000 2 3\n");
  EXPECT_EQ(plan.seed, 42u);
  ASSERT_EQ(plan.events.size(), 5u);
  EXPECT_EQ(plan.events[0].kind, FaultEvent::Kind::kLinkDown);
  EXPECT_EQ(plan.events[0].at, 1000u);
  EXPECT_EQ(plan.events[0].ring, 2u);
  EXPECT_EQ(plan.events[0].node, 3u);
  EXPECT_EQ(plan.events[1].degrade, 4u);
  EXPECT_EQ(plan.events[2].cpu, 5u);
  EXPECT_DOUBLE_EQ(plan.events[3].drop_p, 0.01);
  EXPECT_EQ(plan.events[3].delay_ns, 20000u);
  EXPECT_TRUE(plan.has_message_faults());
}

TEST(FaultPlan, ParseErrorsNameTheLine) {
  try {
    FaultPlan::parse("seed 1\nlink-down 5 0\n");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::strstr(e.what(), "line 2"), nullptr) << e.what();
  }
  EXPECT_THROW(FaultPlan::parse("warp-core-breach 12\n"), ConfigError);
  EXPECT_THROW(FaultPlan::parse("cpu-fail 10 3 junk\n"), ConfigError);
  EXPECT_THROW(FaultPlan::from_file("/nonexistent/plan.txt"), ConfigError);
}

TEST(FaultPlan, ValidateRejectsOutOfRangeEvents) {
  const Topology topo{.nodes = 2};  // 16 CPUs, rings 0..3, nodes 0..1.
  EXPECT_NO_THROW(FaultPlan{}.link_down(0, 3, 1).validate(topo));
  EXPECT_THROW(FaultPlan{}.link_down(0, 4, 0).validate(topo), ConfigError);
  EXPECT_THROW(FaultPlan{}.link_down(0, 0, 2).validate(topo), ConfigError);
  EXPECT_THROW(FaultPlan{}.link_degrade(0, 0, 0, 0).validate(topo),
               ConfigError);
  EXPECT_THROW(FaultPlan{}.cpu_fail(0, 16).validate(topo), ConfigError);
  EXPECT_THROW(FaultPlan{}.pvm_loss(0, 1.5, 0, 0, 0).validate(topo),
               ConfigError);
  EXPECT_THROW(FaultPlan{}.pvm_loss(0, 0.5, 0.4, 0.2, 0).validate(topo),
               ConfigError);
}

TEST(FaultPlan, ValidateRejectsContradictoryEventSequences) {
  const Topology topo{.nodes = 2};
  // Fail-stop is permanent: a second fail of the same CPU is contradictory.
  EXPECT_THROW(FaultPlan{}.cpu_fail(100, 3).cpu_fail(200, 3).validate(topo),
               ConfigError);
  EXPECT_NO_THROW(
      FaultPlan{}.cpu_fail(100, 3).cpu_fail(200, 4).validate(topo));
  // Link state must walk down/up alternately from the initial up state.
  EXPECT_THROW(
      FaultPlan{}.link_down(0, 1, 0).link_down(50, 1, 0).validate(topo),
      ConfigError);
  EXPECT_THROW(FaultPlan{}.link_up(0, 1, 0).validate(topo), ConfigError);
  EXPECT_NO_THROW(FaultPlan{}
                      .link_down(0, 1, 0)
                      .link_up(10, 1, 0)
                      .link_down(20, 1, 0)
                      .validate(topo));
  // Same-resource events at the same instant have no defined order; the
  // message must say so.
  try {
    FaultPlan{}.link_down(5, 1, 0).link_up(5, 1, 0).validate(topo);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::strstr(e.what(), "distinct times"), nullptr) << e.what();
  }
  // Order of construction does not matter, only the schedule.
  EXPECT_THROW(
      FaultPlan{}.link_up(5, 1, 0).link_down(5, 1, 0).validate(topo),
      ConfigError);
  // Two pvm-loss regime changes at one instant are equally ambiguous.
  EXPECT_THROW(FaultPlan{}
                   .pvm_loss(5, 0.1, 0, 0, 0)
                   .pvm_loss(5, 0, 0, 0, 0)
                   .validate(topo),
               ConfigError);
  EXPECT_NO_THROW(FaultPlan{}
                      .pvm_loss(5, 0.1, 0, 0, 0)
                      .pvm_loss(6, 0, 0, 0, 0)
                      .validate(topo));
}

TEST(FaultPlan, AttachValidatesAndRefusesDoubleAttach) {
  rt::Runtime runtime(Topology{.nodes = 1});
  FaultInjector bad(FaultPlan{}.cpu_fail(0, 99));
  EXPECT_THROW(bad.attach(runtime), ConfigError);

  FaultInjector inj((FaultPlan()));
  inj.attach(runtime);
  EXPECT_THROW(inj.attach(runtime), ConfigError);
  inj.detach();
  EXPECT_EQ(runtime.fault_hook(), nullptr);
}

// ---------------------------------------------------------------------------
// Config hardening
// ---------------------------------------------------------------------------

TEST(FaultConfig, TopologyValidateThrows) {
  EXPECT_THROW(Topology{.nodes = 0}.validate(), std::invalid_argument);
  EXPECT_THROW(Topology{.nodes = 17}.validate(), std::invalid_argument);
  EXPECT_NO_THROW(Topology{.nodes = 16}.validate());
  EXPECT_THROW(arch::Machine(Topology{.nodes = 0}, CostModel{}),
               std::invalid_argument);
}

TEST(FaultConfig, CostModelValidateThrows) {
  CostModel cm;
  EXPECT_NO_THROW(cm.validate());
  cm.flops_per_cycle = 0;
  EXPECT_THROW(cm.validate(), std::invalid_argument);
  cm = CostModel{};
  cm.l1_bytes = 0;
  EXPECT_THROW(cm.validate(), std::invalid_argument);
  cm = CostModel{};
  cm.pvm_retry_backoff = 0;
  EXPECT_THROW(cm.validate(), std::invalid_argument);
  // Zero LATENCIES stay legal: the ablation experiments rely on them.
  cm = CostModel{};
  cm.ring_hop = 0;
  EXPECT_NO_THROW(cm.validate());
}

// ---------------------------------------------------------------------------
// Ring link faults
// ---------------------------------------------------------------------------

TEST(FaultRing, DeadLinkReroutesAndChargesStrictlyMore) {
  const CostModel cm;
  const Topology topo{.nodes = 4};
  {
    sci::RingFabric healthy(topo, cm);
    sci::RingFabric faulty(topo, cm);
    faulty.set_link_alive(0, 1, false);  // kill ring 0's link out of node 1.
    const sim::Time h = healthy.transit(0, 0, 3, 0);
    const sim::Time f = faulty.transit(0, 0, 3, 0);
    EXPECT_GT(f, h) << "detour must be strictly slower than the healthy path";
    EXPECT_EQ(f - h, sim::cycles(2u * cm.ring_hop + cm.xbar_transit));
    EXPECT_EQ(faulty.rerouted_packets(), 1u);
    EXPECT_EQ(faulty.reroute_hops(), 2u);
    EXPECT_EQ(healthy.rerouted_packets(), 0u);
  }
}

TEST(FaultRing, ReroutedPacketAvoidsTheDeadLink) {
  const CostModel cm;
  sci::RingFabric rings(Topology{.nodes = 4}, cm);
  rings.set_link_alive(2, 0, false);
  // Path 0->2 on ring 2 detours at node 0 onto ring 0 and stays there.
  rings.transit(2, 0, 2, 0);
  EXPECT_EQ(rings.rerouted_packets(), 1u);
  // A later packet on healthy ring 1 is unaffected.
  const sim::Time t = rings.transit(1, 0, 1, 0);
  EXPECT_EQ(t, sim::cycles(cm.ring_hop));
}

TEST(FaultRing, LinkUpRestoresHealthyCharging) {
  const CostModel cm;
  sci::RingFabric rings(Topology{.nodes = 4}, cm);
  rings.set_link_alive(0, 0, false);
  rings.transit(0, 0, 1, 0);
  rings.set_link_alive(0, 0, true);
  const std::uint64_t hops_before = rings.reroute_hops();
  rings.transit(0, 0, 1, 1000000);
  EXPECT_EQ(rings.reroute_hops(), hops_before) << "revived link reroutes";
}

TEST(FaultRing, DegradedLinkIsSlowerButNotRerouted) {
  const CostModel cm;
  const Topology topo{.nodes = 4};
  sci::RingFabric healthy(topo, cm);
  sci::RingFabric degraded(topo, cm);
  degraded.set_link_degrade(0, 0, 4);
  const sim::Time h = healthy.transit(0, 0, 2, 0);
  const sim::Time d = degraded.transit(0, 0, 2, 0);
  EXPECT_GT(d, h);
  EXPECT_EQ(degraded.rerouted_packets(), 0u);
  EXPECT_THROW(degraded.set_link_degrade(0, 0, 0), std::invalid_argument);
}

TEST(FaultRing, FullPartitionThrows) {
  sci::RingFabric rings(Topology{.nodes = 4}, CostModel{});
  for (unsigned r = 0; r < arch::kNumRings; ++r) {
    rings.set_link_alive(r, 1, false);
  }
  EXPECT_THROW(rings.transit(0, 0, 3, 0), std::runtime_error);
}

// ---------------------------------------------------------------------------
// PVM under message faults
// ---------------------------------------------------------------------------

struct PingPongStats {
  sim::Time elapsed = 0;
  std::uint64_t dropped = 0, duplicated = 0, delayed = 0;
  std::uint64_t retries = 0, retransmitted_bytes = 0;
  std::uint64_t bad_payloads = 0;
};

/// Runs `rounds` verified ping-pong exchanges of 64B between two tasks on a
/// 2-node machine under `plan`; returns counters.
PingPongStats ping_pong(const FaultPlan& plan, unsigned rounds,
                        bool attach_injector = true) {
  rt::Runtime runtime(Topology{.nodes = 2});
  FaultInjector inj(plan);
  if (attach_injector) inj.attach(runtime);
  PingPongStats out;
  runtime.run([&] {
    pvm::Pvm root(runtime);
    root.spawn(2, rt::Placement::kUniform, [&](pvm::Pvm& vm, int me, int) {
      std::vector<double> buf(8);
      for (unsigned r = 0; r < rounds; ++r) {
        if (me == 0) {
          for (std::size_t k = 0; k < buf.size(); ++k) {
            buf[k] = static_cast<double>(r * 100 + k);
          }
          pvm::Message m;
          m.pack(buf.data(), buf.size());
          vm.send(1, 1, std::move(m));
          pvm::Message echo = vm.recv(1, 2);
          std::vector<double> back(8, -1.0);
          echo.unpack(back.data(), back.size());
          if (back != buf) ++out.bad_payloads;
        } else {
          pvm::Message m = vm.recv(0, 1);
          std::vector<double> got(8, -1.0);
          m.unpack(got.data(), got.size());
          pvm::Message reply;
          reply.pack(got.data(), got.size());
          reply.tag = 2;
          vm.send(0, 2, std::move(reply));
        }
      }
    });
  });
  const arch::PerfCounters& p = runtime.machine().perf();
  out.elapsed = runtime.elapsed();
  out.dropped = p.pvm_msgs_dropped;
  out.duplicated = p.pvm_msgs_duplicated;
  out.delayed = p.pvm_msgs_delayed;
  out.retries = p.pvm_retries;
  out.retransmitted_bytes = p.pvm_retransmitted_bytes;
  return out;
}

TEST(FaultPvm, PingPongCompletesUnderOnePercentDrop) {
  FaultPlan plan;
  plan.pvm_loss(0, /*drop=*/0.01, 0, 0, 0);
  const PingPongStats s = ping_pong(plan, /*rounds=*/500);
  EXPECT_EQ(s.bad_payloads, 0u);
  // 1000 sends at 1% loss: this seed must see at least one drop, and every
  // drop is repaired by exactly one recorded retransmission.
  EXPECT_GE(s.dropped, 1u);
  EXPECT_EQ(s.retries, s.dropped);
  EXPECT_EQ(s.retransmitted_bytes, s.retries * 64u);
}

TEST(FaultPvm, DuplicatesAreDeliveredOnceAndDelaysArriveLate) {
  FaultPlan plan;
  plan.pvm_loss(0, 0, /*dup=*/0.05, /*delay=*/0.05, /*delay_ns=*/50000);
  const PingPongStats s = ping_pong(plan, /*rounds=*/200);
  // Payload verification doubles as ordering/dedup verification: a stray
  // duplicate delivered to the app would desynchronize the round counter.
  EXPECT_EQ(s.bad_payloads, 0u);
  EXPECT_GE(s.duplicated, 1u);
  EXPECT_GE(s.delayed, 1u);
  EXPECT_EQ(s.retries, 0u) << "nothing was dropped, nothing should resend";
}

TEST(FaultPvm, LossyRunsAreSeedDeterministic) {
  FaultPlan plan;
  plan.seed = 20260805;
  plan.pvm_loss(0, 0.02, 0.01, 0.01, 30000);
  const PingPongStats a = ping_pong(plan, 300);
  const PingPongStats b = ping_pong(plan, 300);
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.duplicated, b.duplicated);
  EXPECT_EQ(a.delayed, b.delayed);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.retransmitted_bytes, b.retransmitted_bytes);

  FaultPlan other = plan;
  other.seed = 1;
  const PingPongStats c = ping_pong(other, 300);
  EXPECT_NE(a.dropped + a.duplicated + a.delayed,
            c.dropped + c.duplicated + c.delayed)
      << "different seeds should draw different fault streams";
}

TEST(FaultPvm, ZeroFaultPlanChangesNothing) {
  // Pay-for-what-you-use: an attached injector with an empty plan must leave
  // simulated time and every counter bit-identical to no injector at all.
  const PingPongStats bare = ping_pong(FaultPlan{}, 100,
                                       /*attach_injector=*/false);
  const PingPongStats empty = ping_pong(FaultPlan{}, 100,
                                        /*attach_injector=*/true);
  EXPECT_EQ(bare.elapsed, empty.elapsed);
  EXPECT_EQ(empty.dropped + empty.duplicated + empty.delayed + empty.retries,
            0u);
  EXPECT_EQ(bare.bad_payloads, 0u);
  EXPECT_EQ(empty.bad_payloads, 0u);
}

TEST(FaultPvm, RecvTimeoutThrowsWhenNothingArrives) {
  rt::Runtime runtime(Topology{.nodes = 1});
  bool threw = false;
  sim::Time waited = 0;
  runtime.run([&] {
    pvm::Pvm root(runtime);
    root.spawn(2, rt::Placement::kHighLocality,
             [&](pvm::Pvm& vm, int me, int) {
               if (me != 0) return;  // task 1 never sends.
               const sim::Time t0 = runtime.now();
               try {
                 vm.recv_timeout(1, 7, 100000);
               } catch (const TimeoutError&) {
                 threw = true;
               }
               waited = runtime.now() - t0;
             });
  });
  EXPECT_TRUE(threw);
  EXPECT_GE(waited, 100000u) << "the wait itself must be charged";
}

TEST(FaultPvm, RecvTimeoutDeliversWhenMessageArrivesInTime) {
  rt::Runtime runtime(Topology{.nodes = 1});
  double got = 0;
  runtime.run([&] {
    pvm::Pvm root(runtime);
    root.spawn(2, rt::Placement::kHighLocality,
             [&](pvm::Pvm& vm, int me, int) {
               if (me == 0) {
                 pvm::Message m = vm.recv_timeout(1, 7, sim::kSecond);
                 m.unpack(&got, 1);
               } else {
                 runtime.delay(50000);  // arrive fashionably late.
                 pvm::Message m;
                 const double x = 2.5;
                 m.pack(&x, 1);
                 vm.send(0, 7, std::move(m));
               }
             });
  });
  EXPECT_DOUBLE_EQ(got, 2.5);
}

TEST(FaultPvm, RecvTimeoutZeroDeliversAlreadyVisibleMessage) {
  // timeout 0 is a poll, not an error: a message already in the mailbox is
  // delivered, never timed out.  Task 1 stages tag 7 well before task 0
  // looks for it (the tag-8 rendezvous orders the two).
  rt::Runtime runtime(Topology{.nodes = 1});
  double got = 0;
  runtime.run([&] {
    pvm::Pvm root(runtime);
    root.spawn(2, rt::Placement::kHighLocality,
               [&](pvm::Pvm& vm, int me, int) {
                 if (me == 1) {
                   pvm::Message early;
                   const double x = 3.75;
                   early.pack(&x, 1);
                   vm.send(0, 7, std::move(early));
                   runtime.delay(100000);
                   pvm::Message gate;
                   gate.pack(&x, 1);
                   vm.send(0, 8, std::move(gate));
                 } else {
                   vm.recv(1, 8);  // after this, tag 7 is long since visible.
                   pvm::Message m = vm.recv_timeout(1, 7, 0);
                   m.unpack(&got, 1);
                 }
               });
  });
  EXPECT_DOUBLE_EQ(got, 3.75);
}

TEST(FaultPvm, RecvTimeoutZeroPollsOnceThenThrows) {
  // With an empty mailbox, timeout 0 gives up immediately and charges no
  // waiting time of its own.
  rt::Runtime runtime(Topology{.nodes = 1});
  bool threw = false;
  sim::Time waited = 0;
  runtime.run([&] {
    pvm::Pvm root(runtime);
    root.spawn(2, rt::Placement::kHighLocality,
               [&](pvm::Pvm& vm, int me, int) {
                 if (me != 0) return;  // task 1 never sends.
                 const sim::Time t0 = runtime.now();
                 try {
                   vm.recv_timeout(1, 7, 0);
                 } catch (const TimeoutError&) {
                   threw = true;
                 }
                 waited = runtime.now() - t0;
               });
  });
  EXPECT_TRUE(threw);
  EXPECT_EQ(waited, 0u) << "a pure poll must not advance the poller's clock";
}

TEST(FaultPvm, UncaughtTimeoutPropagatesOutOfRun) {
  // A plan the transport cannot beat (100% drop): send exhausts all
  // retransmissions and throws inside a simulated thread.  The conductor
  // must tear the simulation down and rethrow to the run() caller -- not
  // std::terminate the process.
  rt::Runtime runtime(Topology{.nodes = 1});
  FaultPlan plan;
  plan.pvm_loss(0, /*drop=*/1.0, 0.0, 0.0, 0);
  FaultInjector inj(plan);
  inj.attach(runtime);
  EXPECT_THROW(
      runtime.run([&] {
        pvm::Pvm root(runtime);
        root.spawn(2, rt::Placement::kHighLocality,
                 [](pvm::Pvm& vm, int me, int) {
                   if (me == 0) {
                     pvm::Message m;
                     const double x = 1.0;
                     m.pack(&x, 1);
                     vm.send(1, 1, std::move(m));
                   } else {
                     vm.recv(0, 1);
                   }
                 });
      }),
      TimeoutError);
}

// ---------------------------------------------------------------------------
// CPU fail-stop
// ---------------------------------------------------------------------------

struct NbodyStats {
  sim::Time elapsed = 0;
  std::uint64_t interactions = 0;
  std::uint64_t recoveries = 0;
  sim::Time recovery_ns = 0;
};

NbodyStats run_nbody(FaultPlan plan, bool attach) {
  rt::Runtime runtime(Topology{.nodes = 1});
  FaultInjector inj(std::move(plan));
  if (attach) inj.attach(runtime);
  nbody::NbodyConfig cfg;
  cfg.n = 512;
  cfg.steps = 2;
  nbody::NbodyShared nb(runtime, cfg, 8, rt::Placement::kHighLocality);
  nbody::NbodyResult res;
  runtime.run([&] { res = nb.run(); });
  const arch::PerfCounters& p = runtime.machine().perf();
  return {runtime.elapsed(), res.interactions, p.cpu_recoveries,
          p.recovery_ns};
}

TEST(FaultCpu, NbodyCompletesWithOneCpuFailStopped) {
  const NbodyStats healthy = run_nbody(FaultPlan{}, /*attach=*/false);
  ASSERT_GT(healthy.elapsed, 0u);

  // Fail CPU 3 halfway through the healthy run's schedule: squarely inside
  // the force phase of the first or second step.
  FaultPlan plan;
  plan.cpu_fail(healthy.elapsed / 2, 3);
  const NbodyStats faulty = run_nbody(plan, /*attach=*/true);

  EXPECT_GE(faulty.recoveries, 1u) << "the failed CPU's thread must migrate";
  EXPECT_GT(faulty.recovery_ns, 0u);
  EXPECT_EQ(faulty.interactions, healthy.interactions)
      << "all work must still be done after redistribution";
  // The migration visibly perturbs timing (recovery cost + cold L1 on the
  // new CPU vs constructive sharing with its new cache-mate: the sign can
  // go either way on a small problem), but never correctness.
  EXPECT_NE(faulty.elapsed, healthy.elapsed);
}

TEST(FaultCpu, FailStopIsDeterministic) {
  FaultPlan plan;
  plan.cpu_fail(2000000, 2).cpu_fail(2500000, 5);
  const NbodyStats a = run_nbody(plan, true);
  const NbodyStats b = run_nbody(plan, true);
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.interactions, b.interactions);
  EXPECT_EQ(a.recoveries, b.recoveries);
  EXPECT_EQ(a.recovery_ns, b.recovery_ns);
  EXPECT_GE(a.recoveries, 2u);
}

TEST(FaultCpu, ZeroFaultPlanLeavesNbodyBitIdentical) {
  const NbodyStats bare = run_nbody(FaultPlan{}, /*attach=*/false);
  const NbodyStats empty = run_nbody(FaultPlan{}, /*attach=*/true);
  EXPECT_EQ(bare.elapsed, empty.elapsed);
  EXPECT_EQ(bare.interactions, empty.interactions);
  EXPECT_EQ(empty.recoveries, 0u);
}

// ---------------------------------------------------------------------------
// Every app survives a CPU fail-stop by migration alone (docs/RECOVERY.md)
// ---------------------------------------------------------------------------

struct AppRun {
  std::vector<double> diagnostics;
  sim::Time elapsed = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t cpu_recoveries = 0;
};

/// Runs `app` with 4 threads on one hypernode, fail-stopping `victim_cpu` at
/// `fail_at` (0 = no fault).
AppRun run_app(const apps::App& app, sim::Time fail_at, unsigned victim_cpu) {
  rt::Runtime runtime(Topology{.nodes = 1});
  FaultPlan plan;
  if (fail_at != 0) plan.cpu_fail(fail_at, victim_cpu);
  FaultInjector inj(std::move(plan));
  inj.attach(runtime);
  AppRun out;
  runtime.run(
      [&] { out.diagnostics = app.run(runtime, 4, app.steps, {}).diag; });
  const arch::PerfCounters& p = runtime.machine().perf();
  out.elapsed = runtime.elapsed();
  out.checkpoints = p.checkpoints_taken;
  out.cpu_recoveries = p.cpu_recoveries;
  return out;
}

std::vector<std::string> app_names() {
  std::vector<std::string> names;
  for (const apps::App& app : apps::catalog()) names.emplace_back(app.name);
  return names;
}

class FaultCpuRecovers : public ::testing::TestWithParam<std::string> {};

/// Fail-stops task/thread 2's CPU at half the fault-free schedule and
/// requires the fault-free diagnostics from a run that migrated and never
/// checkpointed: bit-exact for the shared-memory codes, within 1e-12
/// relative for the PVM codes, whose combines add partial sums in arrival
/// order, which the migration can perturb.
TEST_P(FaultCpuRecovers, ByMigrationAlone) {
  const apps::App& app = *apps::find(GetParam());
  const AppRun base = run_app(app, 0, 0);
  ASSERT_GT(base.elapsed, 0u);

  rt::Runtime probe(Topology{.nodes = 1});
  const unsigned victim = probe.place_cpu(2, 4, rt::Placement::kUniform);
  const AppRun faulted = run_app(app, base.elapsed / 2, victim);

  EXPECT_GE(faulted.cpu_recoveries, 1u)
      << "the victim's thread must migrate to a surviving CPU";
  EXPECT_EQ(faulted.checkpoints, 0u);
  ASSERT_EQ(faulted.diagnostics.size(), base.diagnostics.size());
  for (std::size_t i = 0; i < base.diagnostics.size(); ++i) {
    const double want = base.diagnostics[i];
    const double got = faulted.diagnostics[i];
    if (!app.pvm) {
      EXPECT_EQ(got, want) << "diagnostic " << i << " must be bit-exact";
    } else {
      EXPECT_LE(std::fabs(got - want), 1e-12 * std::max(1.0, std::fabs(want)))
          << "diagnostic " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllApps, FaultCpuRecovers,
                         ::testing::ValuesIn(app_names()),
                         [](const auto& p) {
                           std::string name = p.param;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

// ---------------------------------------------------------------------------
// Whole-machine determinism under faults
// ---------------------------------------------------------------------------

/// Whole-machine counter digest plus final simulated time; the digest
/// itself (field order and all) lives on PerfCounters so the determinism
/// tests and sppsim-bench share one oracle.
std::uint64_t perf_digest(rt::Runtime& runtime) {
  return runtime.machine().perf().digest(runtime.elapsed());
}

struct DigestStats {
  std::uint64_t digest = 0;
  std::uint64_t migrations = 0;
  sim::Time elapsed = 0;
};

DigestStats nbody_digest(const FaultPlan& plan) {
  rt::Runtime runtime(Topology{.nodes = 1});
  FaultInjector inj(plan);
  inj.attach(runtime);
  nbody::NbodyConfig cfg;
  cfg.n = 512;
  cfg.steps = 3;
  nbody::NbodyShared nb(runtime, cfg, 8, rt::Placement::kHighLocality);
  runtime.run([&] { nb.run(); });
  return {perf_digest(runtime), runtime.machine().perf().cpu_recoveries,
          runtime.elapsed()};
}

TEST(FaultCpu, FaultedRunsDigestIdentically) {
  // Same seed, same plan, same workload: the complete counter state of the
  // machine -- every per-CPU family plus the fault, checkpoint, and checker
  // families -- and the final simulated time must be bit-identical.  This is
  // the regression net for the migration path staying deterministic.
  const DigestStats healthy = nbody_digest(FaultPlan{});
  ASSERT_GT(healthy.elapsed, 0u);

  FaultPlan plan;
  plan.seed = 20260805;
  plan.cpu_fail(healthy.elapsed / 2, 3);
  const DigestStats a = nbody_digest(plan);
  const DigestStats b = nbody_digest(plan);
  EXPECT_GE(a.migrations, 1u) << "the fault must actually migrate a thread";
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_NE(a.digest, healthy.digest)
      << "the faulted run must not accidentally be the healthy run";
}

}  // namespace
}  // namespace spp::fault
