// Heap-allocation budgets of the simulator's hot paths (docs/PERFORMANCE.md):
// a cross-node miss materialises only the global-cache and directory state
// it touches, a warm home miss and a warm SCI sharing list are handled
// without the heap, and a warm conductor dispatches without it.
//
// This executable replaces the global operator new/delete with counting
// versions (over malloc/free), which is why these tests live apart from the
// rest.  The counts are of operator new calls and the bytes they ask for.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "spp/arch/machine.h"
#include "spp/rt/conductor.h"
#include "spp/rt/runtime.h"

namespace {

std::atomic<std::uint64_t> g_news{0};
std::atomic<std::uint64_t> g_bytes{0};

void* counted_new(std::size_t bytes) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(bytes, std::memory_order_relaxed);
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}

void* counted_new(std::size_t bytes, std::align_val_t align) {
  const auto a = static_cast<std::size_t>(align);
  g_news.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(bytes, std::memory_order_relaxed);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = (bytes + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_new(n); }
void* operator new[](std::size_t n) { return counted_new(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_new(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_new(n, a);
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_new(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_new(n);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace spp {
namespace {

using arch::kCpusPerNode;
using arch::kLineBytes;
using arch::kPageBytes;
using arch::MemClass;
using arch::Topology;

struct Allocs {
  std::uint64_t news = 0;
  std::uint64_t bytes = 0;
};

Allocs allocs_now() {
  return {g_news.load(std::memory_order_relaxed),
          g_bytes.load(std::memory_order_relaxed)};
}

Allocs allocs_since(const Allocs& before) {
  const Allocs now = allocs_now();
  return {now.news - before.news, now.bytes - before.bytes};
}

TEST(Alloc, CountingOperatorNewIsInstalled) {
  const Allocs before = allocs_now();
  // Stored through a volatile so the compiler cannot elide the pair.
  static std::uint64_t* volatile p;
  p = new std::uint64_t[100];
  const Allocs used = allocs_since(before);
  delete[] p;
  EXPECT_EQ(used.news, 1u);
  EXPECT_EQ(used.bytes, 100 * sizeof(std::uint64_t));
}

// A node-1 CPU reads a far-shared line homed on node 0 that lies 5 MB into
// its FU window, where PVM's per-task pool slices sit.  The node's global
// cache for that ring must materialise the state around the line's set, not
// an array covering every set up to it.
TEST(Alloc, CrossNodeMissAtAFarSetAllocatesOnlyWhatItTouches) {
  arch::Machine m(Topology{.nodes = 2});
  constexpr std::uint64_t kOffset = 5ull << 20;
  (void)m.vm().allocate(kOffset, MemClass::kFarShared, "filler");
  const arch::VAddr va =
      m.vm().allocate(kPageBytes, MemClass::kFarShared, "probe");
  const unsigned cpu = kCpusPerNode;  // the first CPU of node 1.
  const arch::PAddr pa = m.vm().translate(va, cpu);
  const arch::LineAddr line = arch::line_of(pa);
  const unsigned home_fu = arch::home_fu_of(pa);
  ASSERT_EQ(arch::fu_offset_of(pa), kOffset);
  ASSERT_EQ(m.topo().node_of_fu(home_fu), 0u);
  ASSERT_EQ(m.l1(cpu).set_of(line), 0u);
  ASSERT_EQ(m.gcache(1, m.topo().ring_of_fu(home_fu)).set_of(line),
            kOffset / kLineBytes);  // set 163,840 of 262,144.

  const Allocs before = allocs_now();
  (void)m.access(cpu, va, /*write=*/false, 0);
  const Allocs used = allocs_since(before);
  EXPECT_LT(used.bytes, 64u << 10) << used.news << " operator new calls";
  EXPECT_EQ(m.perf().cpu[cpu].miss_remote, 1u);
  EXPECT_TRUE(m.check_line_invariants(va));
}

// Two pages of a near-shared region lie 1 MB apart in FU 0's window, so in
// every L1 each line of one conflicts with its twin in the other.  The
// first pass gives both pages their directory chunks and grows the L1s.
// In the second, the fills, evictions (six per line), recalls and
// upgrades update directory entries in place, emptying and refilling
// some, without the heap.
TEST(Alloc, WarmHomeMissChurnDoesNotAllocate) {
  arch::Machine m(Topology{.nodes = 1});
  constexpr std::uint64_t kApart = 1ull << 20;  // one L1 of lines.
  constexpr unsigned kLines = kPageBytes / kLineBytes;
  const arch::VAddr base = m.vm().allocate(kApart + kPageBytes,
                                           MemClass::kNearShared, "pages", 0);
  ASSERT_EQ(arch::home_fu_of(m.vm().translate(base + kApart, 0)), 0u);
  ASSERT_EQ(arch::home_fu_of(m.vm().translate(base, 0)), 0u);
  // CPUs 0 and 1 are on FU 0, CPU 2 on FU 1.  The comments give the
  // second pass, which starts from the first's end state.
  sim::Time t = 0;
  const auto pass = [&] {
    for (unsigned k = 0; k < kLines; ++k) {
      const arch::VAddr a = base + k * kLineBytes;
      const arch::VAddr b = a + kApart;
      t = m.access(0, a, false, t);  // evicts b, recalls CPU 1's dirty a.
      t = m.access(0, b, false, t);  // evicts a.
      t = m.access(1, b, false, t);  // evicts a: its entry empties.
      t = m.access(0, a, true, t);   // evicts b.
      t = m.access(2, a, false, t);  // evicts b, recalls CPU 0's dirty a.
      t = m.access(1, a, true, t);   // evicts b, invalidates CPUs 0 and 2.
      t = m.access(2, b, true, t);   // b owned by CPU 2.
      t = m.access(0, b, false, t);  // recalls CPU 2's dirty b.
    }
  };
  pass();
  const std::uint64_t evictions = m.perf().l1_evictions;
  const Allocs before = allocs_now();
  pass();
  const Allocs used = allocs_since(before);
  EXPECT_EQ(used.news, 0u) << used.bytes << " bytes";
  EXPECT_EQ(m.perf().l1_evictions - evictions, 6u * kLines);
  for (unsigned k = 0; k < kLines; ++k) {
    ASSERT_TRUE(m.check_line_invariants(base + k * kLineBytes));
    ASSERT_TRUE(m.check_line_invariants(base + kApart + k * kLineBytes));
  }
}

// Remote reads put nodes on a line's SCI sharing list and writes purge
// them, on every path that edits the list: insert at the head, a remote
// upgrade that purges all but the writer, a home read that recalls the
// remote-dirty copy, and a home write that purges every sharer.  Once the
// caches and directory hold the working set, none of that may allocate.
TEST(Alloc, WarmSciListUpdatesDoNotAllocate) {
  arch::Machine m(Topology{.nodes = 4});
  constexpr unsigned kLines = 64;
  const arch::VAddr base =
      m.vm().allocate(kLines * kLineBytes, MemClass::kNearShared, "lines", 0);
  const unsigned home = 0, n1 = kCpusPerNode, n2 = 2 * kCpusPerNode,
                 n3 = 3 * kCpusPerNode;
  sim::Time t = 0;
  const auto pass = [&] {
    for (unsigned k = 0; k < kLines; ++k) {
      const arch::VAddr va = base + k * kLineBytes;
      t = m.access(n1, va, false, t);    // list {1}.
      t = m.access(n2, va, false, t);    // list {2, 1}.
      t = m.access(n3, va, false, t);    // list {3, 2, 1}.
      t = m.access(n2, va, true, t);     // upgrade: purge 3 and 1, {2}.
      t = m.access(home, va, false, t);  // recall node 2's dirty copy.
      t = m.access(n1, va, false, t);    // list {1, 2}.
      t = m.access(home, va, true, t);   // purge both: list empty.
    }
  };
  pass();
  const std::uint64_t purges = m.perf().sci_purges;
  const Allocs before = allocs_now();
  pass();
  const Allocs used = allocs_since(before);
  EXPECT_EQ(used.news, 0u) << used.bytes << " bytes";
  EXPECT_EQ(m.perf().sci_purges - purges, 2u * kLines)
      << "the pass must purge the list twice per line";
  for (unsigned k = 0; k < kLines; ++k) {
    ASSERT_TRUE(m.check_line_invariants(base + k * kLineBytes));
  }
}

// Two simulated threads hand the CPU back and forth: each step advances the
// clock and yields, and the other thread is then the earliest.  After a
// warm-up, a window of those dispatches must not touch the heap.
TEST(Alloc, WarmDispatchDoesNotAllocate) {
  rt::Runtime runtime(Topology{.nodes = 1});
  constexpr int kWarmup = 100, kWindow = 1000;
  Allocs before, used;
  std::uint64_t dispatches = 0;
  runtime.run([&] {
    runtime.parallel(2, rt::Placement::kHighLocality,
                     [&](unsigned i, unsigned) {
                       // Both threads start the loop at the same clock.
                       rt::SThread& me = rt::Conductor::self();
                       me.set_clock(sim::kMillisecond);
                       runtime.conductor().yield();
                       for (int k = 0; k < kWarmup + kWindow + kWarmup; ++k) {
                         if (i == 0 && k == kWarmup) {
                           before = allocs_now();
                           dispatches = runtime.conductor().progress();
                         }
                         if (i == 0 && k == kWarmup + kWindow) {
                           used = allocs_since(before);
                           dispatches =
                               runtime.conductor().progress() - dispatches;
                         }
                         me.advance(100 * sim::kNanosecond);
                         runtime.conductor().yield();
                       }
                     });
  });
  EXPECT_EQ(used.news, 0u) << used.bytes << " bytes";
  EXPECT_GE(dispatches, 2u * kWindow - 2) << "the threads must alternate";
}

}  // namespace
}  // namespace spp
