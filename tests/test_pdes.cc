// Tests for the multi-node phase/fusion schedule (docs/PERFORMANCE.md,
// "Multi-node schedule"): deterministic cross-shard event ordering, digest
// stability on a 4-hypernode machine, and the dispatch count the watchdog
// supervises.
//
// The schedule is a pure function of simulated state, so every simulated
// observable -- PerfCounters::digest above all -- is bit-identical from run
// to run.  These tests are the in-tree half of that guarantee; the
// committed BENCH_pdes_*.json baselines checked by the bench-smoke leg are
// the tool half.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "spp/apps/nbody/nbody.h"
#include "spp/apps/ppm/ppm.h"
#include "spp/arch/topology.h"
#include "spp/pdes/event.h"
#include "spp/rt/conductor.h"
#include "spp/rt/runtime.h"
#include "spp/rt/watchdog.h"

namespace spp {
namespace {

using arch::Topology;

// --- EventKey tie-breaking -------------------------------------------------

TEST(PdesEventKey, TimestampDominates) {
  const pdes::EventKey early{.ts = 10, .shard = 3, .seq = 99};
  const pdes::EventKey late{.ts = 11, .shard = 0, .seq = 0};
  EXPECT_LT(early, late);
  EXPECT_FALSE(late < early);
}

TEST(PdesEventKey, SameTimestampBreaksOnShardId) {
  // Two shards defer at the same simulated instant: the lower shard id
  // replays first, regardless of which worker queued first on the host.
  const pdes::EventKey s1{.ts = 42, .shard = 1, .seq = 7};
  const pdes::EventKey s2{.ts = 42, .shard = 2, .seq = 0};
  EXPECT_LT(s1, s2);
  EXPECT_FALSE(s2 < s1);
}

TEST(PdesEventKey, SameShardBreaksOnSequence) {
  // Same shard, same timestamp: the shard's own dispatch order (the
  // per-shard monotonic seq) is preserved, i.e. program order.
  const pdes::EventKey a{.ts = 42, .shard = 1, .seq = 7};
  const pdes::EventKey b{.ts = 42, .shard = 1, .seq = 8};
  EXPECT_LT(a, b);
  EXPECT_FALSE(b < a);
  EXPECT_FALSE(a == b);
  EXPECT_TRUE((a == pdes::EventKey{.ts = 42, .shard = 1, .seq = 7}));
}

TEST(PdesEventKey, TotalOrderIsStrict) {
  const std::vector<pdes::EventKey> keys = {
      {.ts = 5, .shard = 2, .seq = 1}, {.ts = 5, .shard = 2, .seq = 0},
      {.ts = 5, .shard = 0, .seq = 9}, {.ts = 4, .shard = 3, .seq = 0},
      {.ts = 6, .shard = 0, .seq = 0},
  };
  for (const auto& a : keys) {
    EXPECT_FALSE(a < a);
    for (const auto& b : keys) {
      if (a == b) continue;
      EXPECT_NE(a < b, b < a);
    }
  }
}

// --- digest stability on four hypernodes -----------------------------------

std::uint64_t nbody_digest() {
  rt::Runtime rt(Topology{.nodes = 4});
  nbody::NbodyConfig cfg;
  cfg.n = 192;
  cfg.steps = 2;
  nbody::NbodyShared nb(rt, cfg, 16, rt::Placement::kUniform);
  rt.run([&] { (void)nb.run(); });
  return rt.machine().perf().digest(rt.elapsed());
}

std::uint64_t ppm_digest() {
  rt::Runtime rt(Topology{.nodes = 4});
  ppm::PpmConfig cfg;
  cfg.nx = 24;
  cfg.ny = 24;
  cfg.tiles_x = 4;
  cfg.tiles_y = 4;
  cfg.steps = 3;
  ppm::PpmTiled ppm(rt, cfg, 16, rt::Placement::kUniform);
  ppm.init_blast(3.0, 4.0);
  rt.run([&] { (void)ppm.run(); });
  return rt.machine().perf().digest(rt.elapsed());
}

// Repeated runs are bit-stable (no hidden host nondeterminism leaking
// through the fusion order).
TEST(PdesDigest, RepeatedRunsAreBitStable) {
  EXPECT_EQ(nbody_digest(), nbody_digest());
  EXPECT_EQ(ppm_digest(), ppm_digest());
}

// --- dispatch progress through phases and fusion ---------------------------

// Conductor::progress() counts every dispatch, in a phase and at fusion
// alike, so a supervised 4-node run reads as live.  A fork across
// hypernodes gates each child's completion record, so every child is
// dispatched at least twice: once in its phase (where it parks at the
// gate) and once at the fusion that resumes it.
TEST(PdesWatchdog, ProgressCountsPhaseAndFusionDispatches) {
  rt::Runtime rt(Topology{.nodes = 4});
  ASSERT_TRUE(rt.conductor().engine_active());
  rt::Watchdog dog(rt.conductor(), /*stall_seconds=*/60.0);
  constexpr unsigned kChildren = 16;
  constexpr std::uint64_t kRounds = 4;
  std::uint64_t last = rt.conductor().progress();
  for (std::uint64_t r = 0; r < kRounds; ++r) {
    rt.run([&] {
      rt.parallel(kChildren, rt::Placement::kUniform,
                  [&](unsigned, unsigned) { rt.work_flops(500); });
    });
    const std::uint64_t now = rt.conductor().progress();
    EXPECT_GE(now - last, 2u * kChildren) << "round " << r;
    last = now;
  }
}

}  // namespace
}  // namespace spp
