// Regression tests for the wall-clock fast paths (docs/PERFORMANCE.md):
// the FlatMap backing the home directory, the inline L1-hit path's
// bit-exactness against the out-of-line protocol walk, and the pvm message
// buffer pre-sizing.  None of these may change simulated time or counters;
// the digest comparisons here are the oracle that they do not.  The oracle
// itself, PerfCounters::digest, is pinned to a constant below.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "spp/apps/catalog.h"
#include "spp/arch/flat_map.h"
#include "spp/arch/machine.h"
#include "spp/ckpt/disk.h"
#include "spp/lib/psort.h"
#include "spp/pvm/pvm.h"
#include "spp/rt/conductor.h"
#include "spp/rt/garray.h"
#include "spp/rt/loops.h"
#include "spp/rt/runtime.h"
#include "spp/sim/rng.h"

namespace spp {
namespace {

using arch::FlatMap;
using arch::Topology;

// ---------------------------------------------------------------------------
// FlatMap vs std::unordered_map under churn
// ---------------------------------------------------------------------------

TEST(FlatMap, MatchesUnorderedMapUnderChurn) {
  // The directory workload: dense churn of insert / update / erase / lookup
  // over a bounded key space (lines wrap around the caches).  Every lookup
  // must agree with the reference map, including after the backward-shift
  // deletions that make open addressing tricky.
  FlatMap<std::uint64_t, std::uint64_t> fm;
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  std::uint64_t x = 88172645463325252ull;  // xorshift64 state.
  const auto next = [&x]() {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (int op = 0; op < 200000; ++op) {
    const std::uint64_t key = next() % 2048;
    switch (next() % 4) {
      case 0:
      case 1: {  // insert or update.
        const std::uint64_t v = next();
        fm[key] = v;
        ref[key] = v;
        break;
      }
      case 2: {  // erase.
        fm.erase(key);
        ref.erase(key);
        break;
      }
      default: {  // lookup.
        const std::uint64_t* got = fm.find(key);
        const auto it = ref.find(key);
        if (it == ref.end()) {
          ASSERT_EQ(got, nullptr) << "key " << key << " at op " << op;
        } else {
          ASSERT_NE(got, nullptr) << "key " << key << " at op " << op;
          ASSERT_EQ(*got, it->second) << "key " << key << " at op " << op;
        }
        break;
      }
    }
    ASSERT_EQ(fm.size(), ref.size()) << "at op " << op;
  }
  // Full-content sweep both ways.
  std::size_t walked = 0;
  fm.for_each([&](const std::uint64_t& k, const std::uint64_t& v) {
    ++walked;
    const auto it = ref.find(k);
    ASSERT_NE(it, ref.end()) << "key " << k;
    EXPECT_EQ(v, it->second) << "key " << k;
  });
  EXPECT_EQ(walked, ref.size());
}

TEST(FlatMap, SurvivesGrowthFromEmptyAndClear) {
  FlatMap<std::uint64_t, int> fm;
  EXPECT_EQ(fm.find(7), nullptr);
  EXPECT_TRUE(fm.empty());
  for (std::uint64_t k = 0; k < 10000; ++k) fm[k] = static_cast<int>(k);
  EXPECT_EQ(fm.size(), 10000u);
  for (std::uint64_t k = 0; k < 10000; ++k) {
    ASSERT_NE(fm.find(k), nullptr);
    ASSERT_EQ(*fm.find(k), static_cast<int>(k));
  }
  fm.clear();
  EXPECT_TRUE(fm.empty());
  EXPECT_EQ(fm.find(0), nullptr);
  fm[3] = 4;
  EXPECT_EQ(fm.size(), 1u);
}

// ---------------------------------------------------------------------------
// Directory churn at machine level, cross-checked against dir_view
// ---------------------------------------------------------------------------

class DirectoryFlatMap : public testing::TestWithParam<unsigned> {};

TEST_P(DirectoryFlatMap, ChurnAcrossNodesKeepsInvariants) {
  // Drive enough distinct lines through enough CPUs on `GetParam()`
  // hypernodes that the directory sees sustained insert / erase / evict
  // churn (a deliberately tiny gcache makes SCI entries recycle constantly
  // on more than one node), then verify the protocol invariants and
  // directory view for a sweep of lines.  Every directory map starts empty,
  // so each one grows and rehashes in the middle of that churn.
  const unsigned nodes = GetParam();
  arch::CostModel cm;
  cm.gcache_bytes = 64 * arch::kLineBytes;
  rt::Runtime runtime(Topology{.nodes = nodes}, cm);
  const std::size_t n = 1u << 15;
  rt::GlobalArray<double> a(runtime, n, arch::MemClass::kFarShared, "churn.a");
  rt::GlobalArray<double> b(runtime, n, arch::MemClass::kFarShared, "churn.b");
  runtime.run([&] {
    rt::parallel_for(runtime, n, 16, rt::Placement::kUniform,
                     rt::LoopOptions{}, [&](std::size_t i) {
                       a.write(i, static_cast<double>(i));
                       b.accumulate(i ^ (n - 1), 1.0);
                       if ((i & 7u) == 0) a.read(n - 1 - i);
                     });
  });
  const arch::Machine& m = runtime.machine();
  unsigned present = 0;
  for (std::size_t i = 0; i < n; i += 16) {
    ASSERT_TRUE(m.check_line_invariants(a.vaddr(i))) << "a line at " << i;
    ASSERT_TRUE(m.check_line_invariants(b.vaddr(i))) << "b line at " << i;
    const auto dv = m.dir_view(arch::line_of(
        m.vm().translate(a.vaddr(i), 0)));
    if (dv.present) {
      ++present;
      // A present entry is non-empty by construction: some sharer, owner,
      // or remote state must justify its existence.
      EXPECT_TRUE(dv.cpu_sharers != 0 || dv.owner_cpu >= 0 ||
                  dv.remote_dirty || !dv.sci_list.empty())
          << "empty-but-present entry for a line at " << i;
    }
  }
  EXPECT_GT(present, 0u) << "churn must leave live directory entries behind";
  if (nodes > 1) {
    EXPECT_GT(m.perf().gcache_evictions, 0u)
        << "working set must overflow the gcaches for this test to bite";
  }
}

INSTANTIATE_TEST_SUITE_P(Hypernodes, DirectoryFlatMap,
                         testing::Values(1u, 2u, 4u, 16u),
                         testing::PrintToStringParamName());

// ---------------------------------------------------------------------------
// Digest workloads
// ---------------------------------------------------------------------------

struct RunDigest {
  sim::Time elapsed = 0;
  std::uint64_t digest = 0;
};

/// Conductor-switch-heavy sync microbenchmark (dynamic loop scheduling).
RunDigest sync_micro() {
  rt::Runtime runtime(Topology{.nodes = 2});
  rt::LoopOptions opts;
  opts.schedule = rt::Schedule::kDynamic;
  opts.chunk = 8;
  runtime.run([&] {
    rt::parallel_for(runtime, 2048, 16, rt::Placement::kUniform, opts,
                     [&](std::size_t i) {
                       runtime.work_flops(20.0 + static_cast<double>(i) * 0.5);
                     });
  });
  return {runtime.elapsed(),
          runtime.machine().perf().digest(runtime.elapsed())};
}

/// Small real application (barriers, shared scratch, streaming memory).
/// `observer`, when set, is attached to the machine for the whole run.
RunDigest small_app(arch::MemObserver* observer) {
  rt::Runtime runtime(Topology{.nodes = 2});
  runtime.machine().set_observer(observer);
  rt::GlobalArray<double> data(runtime, 2048, arch::MemClass::kFarShared,
                               "sort.bitexact");
  sim::Rng rng(1234);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data.raw(i) = rng.uniform(-1, 1);
  }
  lib::parallel_sort(runtime, data, 8, rt::Placement::kUniform);
  EXPECT_TRUE(std::is_sorted(&data.raw(0), &data.raw(0) + data.size()));
  return {runtime.elapsed(),
          runtime.machine().perf().digest(runtime.elapsed())};
}

// ---------------------------------------------------------------------------
// Inline L1-hit path vs the out-of-line protocol walk: bit-exact simulation
// ---------------------------------------------------------------------------

/// Attached, it sends every cached access -- hits included -- through
/// Machine::access_at instead of the inline hit path.
class NoopMemObserver : public arch::MemObserver {
 public:
  void on_access(const arch::MemEvent&) override {}
};

TEST(HitPath, InlineMatchesOutOfLineOnRealApps) {
  NoopMemObserver noop;
  const auto expect_same = [&](const char* name, const auto& run) {
    const RunDigest inline_path = run(nullptr);
    const RunDigest out_of_line = run(&noop);
    EXPECT_EQ(inline_path.elapsed, out_of_line.elapsed) << name;
    EXPECT_EQ(inline_path.digest, out_of_line.digest) << name;
  };

  expect_same("psort", [](arch::MemObserver* obs) { return small_app(obs); });
  for (const apps::App& app : apps::catalog()) {
    expect_same(app.name, [&](arch::MemObserver* obs) {
      rt::Runtime runtime(Topology{.nodes = 2});
      runtime.machine().set_observer(obs);
      runtime.run([&] { (void)app.run(runtime, 8, app.steps, {}); });
      return RunDigest{runtime.elapsed(),
                       runtime.machine().perf().digest(runtime.elapsed())};
    });
  }
}

TEST(Conductor, RepeatRunsDigestIdentically) {
  // Digests depend only on the workload, never on host scheduling or
  // allocator state.
  const RunDigest a = sync_micro();
  const RunDigest b = sync_micro();
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.digest, b.digest);
}

// ---------------------------------------------------------------------------
// PerfCounters::digest pinned
// ---------------------------------------------------------------------------
// Every committed bench baseline and durable epoch rests on this function's
// exact field order.  The fault, ckpt and check counters are zero in every
// bench, so only this pin covers their place in it.

/// A 2-CPU PerfCounters with a distinct value in every field, digest-
/// excluded ones included.  It names every field by hand on purpose: it is
/// the reference the pins stand on.  Filled from the counter table, values
/// would follow table positions, and a reordered row would pass both pins.
arch::PerfCounters populated_counters() {
  arch::PerfCounters p(2);
  std::uint64_t k = 0;
  const auto next = [&k] { return ++k * 0x9E3779B97F4A7C15ull; };
  for (arch::CpuCounters& c : p.cpu) {
    c.loads = next();
    c.stores = next();
    c.l1_hits = next();
    c.upgrades = next();
    c.miss_fu_local = next();
    c.miss_node = next();
    c.miss_gcache = next();
    c.miss_remote = next();
    c.writebacks = next();
    c.uncached_ops = next();
    c.atomic_ops = next();
    c.invals_received = next();
    c.mem_stall = next();
    c.compute = next();
    c.flops = static_cast<double>(next() >> 11);
    c.memo_hits = next();
    c.memo_misses = next();
    c.memo_invalidations = next();
  }
  p.ring_packets = next();
  p.sci_purges = next();
  p.sci_purge_targets = next();
  p.invals_sent = next();
  p.gcache_evictions = next();
  p.l1_evictions = next();
  p.faults_injected = next();
  p.pvm_msgs_dropped = next();
  p.pvm_msgs_duplicated = next();
  p.pvm_msgs_delayed = next();
  p.pvm_retries = next();
  p.pvm_retransmitted_bytes = next();
  p.ring_reroutes = next();
  p.ring_reroute_hops = next();
  p.cpu_recoveries = next();
  p.recovery_ns = next();
  p.checkpoints_taken = next();
  p.ckpt_bytes = next();
  p.rollbacks = next();
  p.tasks_failed = next();
  p.task_notifications = next();
  p.ckpt_ns = next();
  p.rollback_ns = next();
  p.check_events = next();
  p.check_violations = next();
  p.races_detected = next();
  p.deadlock_cycles = next();
  p.deadlock_reports = next();
  p.io_faults_injected = next();
  p.io_transient_errors = next();
  p.io_permanent_errors = next();
  p.io_retries = next();
  p.io_commit_failures = next();
  p.io_degradations = next();
  p.io_memory_only_epochs = next();
  p.io_epochs_skipped = next();
  return p;
}

constexpr sim::Time kPinElapsed = 123456789;

TEST(PerfDigest, PinnedForFullyPopulatedCounters) {
  EXPECT_EQ(populated_counters().digest(kPinElapsed), 0xfabcdbea8a416025ull);
}

TEST(PerfDigest, IgnoresFlopsMemoAndIoCounters) {
  const arch::PerfCounters base = populated_counters();
  const std::uint64_t want = base.digest(kPinElapsed);
  for (unsigned cpu = 0; cpu < base.cpu.size(); ++cpu) {
    arch::PerfCounters p = base;
    p.cpu[cpu].flops *= 3;
    EXPECT_EQ(p.digest(kPinElapsed), want) << "flops, cpu " << cpu;
    for (std::uint64_t arch::CpuCounters::*f :
         {&arch::CpuCounters::memo_hits, &arch::CpuCounters::memo_misses,
          &arch::CpuCounters::memo_invalidations}) {
      p = base;
      p.cpu[cpu].*f += 1;
      EXPECT_EQ(p.digest(kPinElapsed), want) << "memo_* counter, cpu " << cpu;
    }
  }
  // Every host-side row, straight from the table: a future io row is
  // covered without touching this test.
  for (const auto& row : arch::kIoCounters) {
    arch::PerfCounters p = base;
    p.*row.field += 1;
    EXPECT_EQ(p.digest(kPinElapsed), want) << row.name;
  }
  // Control: a digested counter does move it.
  arch::PerfCounters p = base;
  p.cpu[1].compute += 1;
  EXPECT_NE(p.digest(kPinElapsed), want);
}

// ---------------------------------------------------------------------------
// Epoch-file bytes pinned
// ---------------------------------------------------------------------------
// A --resume reads epoch files an earlier build wrote, so the counters'
// save order and the saved/unsaved split are pinned like the digest: the
// size and CRC-32 of one epoch file with every field populated.

/// Every saved field of `p` as its 64-bit pattern, in epoch-file order.
std::vector<std::uint64_t> saved_words(const arch::PerfCounters& p) {
  std::vector<std::uint64_t> words;
  arch::PerfCounters::for_each_saved(p, [&words](const auto& v) {
    words.push_back(std::bit_cast<std::uint64_t>(v));
  });
  return words;
}

TEST(PerfEpochFile, PinnedForFullyPopulatedCounters) {
  const std::string dir = ::testing::TempDir() + "sppperf-epoch-pin";
  std::filesystem::remove_all(dir);
  ckpt::EpochData epoch;
  epoch.step = 3;
  epoch.clock = kPinElapsed;
  epoch.perf = populated_counters();
  epoch.snapshot.names = {"alpha"};
  epoch.snapshot.blobs = {{1, 2, 3}};
  {
    ckpt::Disk disk(dir);
    disk.write_epoch(epoch);
  }

  std::ifstream in(dir + "/" + ckpt::Disk::epoch_filename(3),
                   std::ios::binary);
  const std::vector<char> bytes{std::istreambuf_iterator<char>(in),
                                std::istreambuf_iterator<char>()};
  EXPECT_EQ(bytes.size(), 540u);
  EXPECT_EQ(ckpt::crc32(bytes.data(), bytes.size()), 0x345d0ac8u);

  // Loading returns every saved field exactly, flops included; the
  // unsaved io_* and memo_* come back zero.
  const arch::PerfCounters got = ckpt::Disk(dir, true).load_epoch(3).perf;
  EXPECT_EQ(saved_words(got), saved_words(epoch.perf));
  for (unsigned cpu = 0; cpu < got.cpu.size(); ++cpu) {
    EXPECT_EQ(got.cpu[cpu].memo_hits, 0u) << cpu;
    EXPECT_EQ(got.cpu[cpu].memo_misses, 0u) << cpu;
    EXPECT_EQ(got.cpu[cpu].memo_invalidations, 0u) << cpu;
  }
  for (const auto& row : arch::kIoCounters) {
    EXPECT_EQ(got.*row.field, 0u) << row.name;
  }
}

// ---------------------------------------------------------------------------
// pvm::Message buffer pre-sizing
// ---------------------------------------------------------------------------

TEST(PvmMessage, PreSizedPackDoesNotReallocate) {
  pvm::Message m;
  m.reserve(128 * sizeof(double));
  const std::size_t cap = m.capacity_bytes();
  ASSERT_GE(cap, 128 * sizeof(double));
  for (int i = 0; i < 128; ++i) {
    const double v = static_cast<double>(i) * 1.5;
    m.pack(&v, 1);  // element-at-a-time, the common app pattern.
  }
  EXPECT_EQ(m.capacity_bytes(), cap)
      << "pack() must not reallocate a pre-sized payload";
  EXPECT_EQ(m.size_bytes(), 128 * sizeof(double));
  for (int i = 0; i < 128; ++i) {
    double v = 0;
    m.unpack(&v, 1);
    ASSERT_EQ(v, static_cast<double>(i) * 1.5) << "element " << i;
  }
  EXPECT_EQ(m.remaining(), 0u);
}

TEST(PvmMessage, UnsizedPackGrowsGeometrically) {
  // Element-at-a-time packing without reserve() must stay amortized O(1):
  // capacity only ever doubles, so the number of distinct capacities seen
  // over N elements is O(log N), not O(N).
  pvm::Message m;
  std::size_t last_cap = m.capacity_bytes();
  unsigned growths = 0;
  for (int i = 0; i < 4096; ++i) {
    const double v = 0.5;
    m.pack(&v, 1);
    if (m.capacity_bytes() != last_cap) {
      ++growths;
      last_cap = m.capacity_bytes();
    }
  }
  EXPECT_LE(growths, 20u) << "pack growth must be geometric, not linear";
}

}  // namespace
}  // namespace spp
