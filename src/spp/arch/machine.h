// The SPP-1000 machine model: CPUs, L1 caches, functional-unit memory banks,
// hypernode crossbars and directories, global cache buffers, and the SCI
// ring fabric, composed into a single memory-transaction engine.
//
// Machine::access() is the simulator's inner loop: given (cpu, virtual
// address, read/write, local time) it walks the two-level coherence protocol
// -- L1 -> hypernode directory -> SCI -- updating all sharing state and
// charging latency against the contended hardware resources on the path.
// The caller (the spp::rt conductor) guarantees calls are serialized and
// arrive in approximately nondecreasing time order.
//
// Thread safety: NONE by design; see DESIGN.md section 5.1.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "spp/arch/address.h"
#include "spp/arch/cache.h"
#include "spp/arch/cost_model.h"
#include "spp/arch/flat_map.h"
#include "spp/arch/observer.h"
#include "spp/arch/perf.h"
#include "spp/arch/topology.h"
#include "spp/arch/vmem.h"
#include "spp/sci/gcache.h"
#include "spp/sci/ring.h"
#include "spp/sim/resource.h"
#include "spp/sim/time.h"

namespace spp::arch {

class Machine {
 public:
  explicit Machine(Topology topo, CostModel cm = CostModel{});

  const Topology& topo() const { return topo_; }
  const CostModel& cost() const { return cm_; }
  VMem& vm() { return vm_; }
  const VMem& vm() const { return vm_; }
  PerfCounters& perf() { return perf_; }
  const PerfCounters& perf() const { return perf_; }
  sci::RingFabric& rings() { return rings_; }

  /// One cached access from `cpu` at local time `now`; returns completion
  /// time (>= now + 1 cycle).  Inline up to the L1 hit: a hit with no
  /// observer attached makes no call (docs/PERFORMANCE.md).
  sim::Time access(unsigned cpu, VAddr va, bool write, sim::Time now) {
    const PAddr pa = tlb_translate(cpu, va);
    if (observer_ == nullptr && l1_hit(cpu, line_of(pa), write, now)) {
      return now;
    }
    return access_at(cpu, va, pa, write, now);
  }

  /// Sequential cached access to [va, va+bytes), charged line by line but
  /// with at most one transaction per distinct line.
  sim::Time access_block(unsigned cpu, VAddr va, std::uint64_t bytes,
                         bool write, sim::Time now) {
    if (bytes == 0) return now;
    const VAddr first = va & ~(kLineBytes - 1);
    const VAddr last = (va + bytes - 1) & ~(kLineBytes - 1);
    if (first == last) return access(cpu, first, write, now);
    return access_lines(cpu, first, last, write, now);
  }

  /// Uncached access (semaphore pages bypass the caches; section 4.2).
  sim::Time access_uncached(unsigned cpu, VAddr va, bool write, sim::Time now);

  /// Uncached atomic fetch-and-op (locks the home bank for the rmw window).
  sim::Time atomic_rmw(unsigned cpu, VAddr va, sim::Time now);

  /// Invalidates every line in `cpu`'s L1, with full directory bookkeeping
  /// (used at thread teardown and by tests).
  void flush_l1(unsigned cpu);

  /// Drops all counters; protocol state is retained.
  void reset_stats() { perf_.reset(); }

  /// Resets all cached/contended hardware state to a deterministic cold
  /// machine -- L1s, gcaches, the home directory, the page TLBs, every
  /// contended resource, and ring contention counters -- while leaving
  /// counters, allocations, ring health (alive/degraded lanes), and armed
  /// faults untouched.  Used at durable-checkpoint epoch boundaries
  /// (spp::ckpt::DurableSession) so a resumed process continues from a state
  /// it can reconstruct exactly.
  void power_cycle();

  /// Attaches (or clears, with nullptr) a transaction observer.  One pointer
  /// test per access when null; observers never alter timing or state.
  void set_observer(MemObserver* observer) { observer_ = observer; }
  MemObserver* observer() const { return observer_; }

  // --- test-only protocol mutations (mutation harness; tests/test_check) ----
  /// Deliberate protocol bugs, compiled in but dead until set.  Used to prove
  /// the spp::check analyzers detect real coherence violations; never enable
  /// outside tests.
  struct TestMutation {
    /// invalidate_local leaves victims' stale L1 copies in place (but still
    /// clears the directory's sharer bits), as if an invalidation message
    /// from the hypernode directory were lost.
    bool skip_local_invalidate = false;
    /// The SCI purge walk removes a node from the home sharing list without
    /// clearing that node's gcache entry or backed L1 copies, as if a
    /// back-pointer update in the distributed list were dropped.
    bool drop_sci_back_pointer = false;
  };
  void set_test_mutation(const TestMutation& m) { mutation_ = m; }

  // --- introspection for tests ---------------------------------------------
  LineState l1_state(unsigned cpu, VAddr va) const;
  /// Number of distinct caches (L1 or gcache) holding the line of `va`,
  /// translated as seen from cpu 0.
  unsigned sharer_count(VAddr va) const;
  /// True if protocol invariants hold for the line of `va`: a modified copy
  /// excludes all other copies, and every L1 copy of a remote line is backed
  /// by its node's gcache.
  bool check_line_invariants(VAddr va) const;

  /// Read-only copy of the home directory entry for `line` (empty-state view
  /// when the line has no entry).  For checkers and tests.
  struct DirView {
    bool present = false;
    std::uint8_t cpu_sharers = 0;
    int owner_cpu = -1;
    bool remote_dirty = false;
    std::uint8_t owner_node = 0;
    std::vector<std::uint8_t> sci_list;
  };
  DirView dir_view(LineAddr line) const;

  const L1Cache& l1(unsigned cpu) const { return l1_[cpu]; }
  const sci::GCache& gcache(unsigned node, unsigned ring) const {
    return gcaches_[node * kNumRings + ring];
  }

 private:
  struct HomeEntry {
    std::uint8_t cpu_sharers = 0;  ///< L1 sharers among the home node's CPUs.
    int owner_cpu = -1;            ///< local CPU holding Modified, or -1.
    bool remote_dirty = false;     ///< a remote node holds the only copy.
    std::uint8_t owner_node = 0;   ///< valid when remote_dirty.
    /// SCI sharing list: remote sharer nodes, head first.  Stored centrally
    /// for simplicity; semantics match the distributed doubly-linked list.
    std::vector<std::uint8_t> sci_list;

    bool empty() const {
      return cpu_sharers == 0 && owner_cpu < 0 && !remote_dirty &&
             sci_list.empty();
    }
  };

  /// Per-functional-unit contended resources.
  struct FuState {
    sim::Resource port;     ///< crossbar port.
    sim::Resource dir;      ///< CCMC directory/coherence controller.
    sim::Resource ring_if;  ///< SCI ring interface.
    std::vector<sim::Resource> banks;
  };

  /// The home directory map owning `line` (indexed by the line's home
  /// node).
  FlatMap<LineAddr, HomeEntry>& dir_for(LineAddr line) {
    return directory_[topo_.node_of_fu(home_fu_of(line_base(line)))];
  }
  const FlatMap<LineAddr, HomeEntry>& dir_for(LineAddr line) const {
    return directory_[topo_.node_of_fu(home_fu_of(line_base(line)))];
  }
  HomeEntry& home_entry(LineAddr line) { return dir_for(line)[line]; }
  void maybe_erase(LineAddr line);

  sim::Resource& bank_for(PAddr pa) {
    FuState& fu = fus_[home_fu_of(pa)];
    return fu.banks[line_of(pa) % cm_.banks_per_fu];
  }
  sci::GCache& gcache_for(unsigned node, unsigned ring) {
    return gcaches_[node * kNumRings + ring];
  }

  /// `va` translated for `cpu` through the CPU's page TLB: a hit costs one
  /// compare and an add, a miss goes to tlb_fill().
  PAddr tlb_translate(unsigned cpu, VAddr va) {
    const TlbEntry& e = tlb_slot(cpu, va);
    if (e.tag == (va | (kPageBytes - 1))) return va + e.delta;
    return tlb_fill(cpu, va);
  }
  /// Translates through VMem and caches the page if it is physically linear.
  PAddr tlb_fill(unsigned cpu, VAddr va);

  /// The L1-hit rule, the one place it is written: a Modified or Exclusive
  /// line, or a Shared line read, completes in the L1 (section 2.6).  On a
  /// hit this charges the access -- loads or stores, l1_hits, the silent
  /// Exclusive->Modified upgrade of a write -- advances `now` to completion
  /// and returns true.  Otherwise it changes nothing and returns false.
  bool l1_hit(unsigned cpu, LineAddr line, bool write, sim::Time& now) {
    L1Cache::Entry* e = l1_[cpu].find(line);
    const LineState st = e != nullptr ? e->state : LineState::kInvalid;
    if (!(st == LineState::kModified || st == LineState::kExclusive ||
          (st == LineState::kShared && !write))) {
      return false;
    }
    if (write) e->state = LineState::kModified;
    CpuCounters& c = perf_.cpu[cpu];
    (write ? c.stores : c.loads)++;
    ++c.l1_hits;
    now += sim::cycles(cm_.l1_hit);
    return true;
  }

  /// The protocol walk behind access(), after address translation: `pa`
  /// must be the translation of `va` for `cpu`.  Handles every access the
  /// inline path does not: misses, upgrades, and all accesses while an
  /// observer is attached.
  sim::Time access_at(unsigned cpu, VAddr va, PAddr pa, bool write,
                      sim::Time now);
  /// access_block() over two or more lines: access() per line base.
  sim::Time access_lines(unsigned cpu, VAddr first, VAddr last, bool write,
                         sim::Time now);

  sim::Time miss_fill(unsigned cpu, PAddr pa, bool write, sim::Time t);
  sim::Time local_fill(unsigned cpu, PAddr pa, bool write, sim::Time t);
  sim::Time remote_fill(unsigned cpu, PAddr pa, bool write, sim::Time t);
  sim::Time local_upgrade(unsigned cpu, PAddr pa, sim::Time t);
  sim::Time remote_upgrade(unsigned cpu, PAddr pa, sim::Time t);

  /// Home-driven sequential SCI purge of all remote sharers except
  /// `keep_node` (pass topo_.nodes to purge everyone).  Returns time after
  /// the walk; clears purged nodes' gcache entries and L1 copies.
  sim::Time purge_remote(LineAddr line, HomeEntry& e, unsigned keep_node,
                         sim::Time t);

  /// Recalls a remote-dirty line back to home memory.  `t` is at the home
  /// directory.  Afterwards the line is clean at home with the former owner
  /// keeping a Shared copy iff `owner_keeps_shared`.
  sim::Time recall_remote_dirty(LineAddr line, HomeEntry& e,
                                bool owner_keeps_shared, sim::Time t);

  /// Invalidates every local-home-node L1 sharer except `keep_cpu`
  /// (pass a huge value to invalidate all); returns updated time.
  sim::Time invalidate_local(LineAddr line, HomeEntry& e, unsigned keep_cpu,
                             sim::Time t);

  void evict_l1_entry(unsigned cpu, L1Cache::Entry& entry, sim::Time now);
  void evict_gcache_entry(unsigned node, unsigned ring, sci::GCache::Entry& ge,
                          sim::Time now);
  /// Invalidates the L1 copies a gcache entry backs (inclusion).
  void invalidate_gcache_backed_l1(unsigned node,
                                   const sci::GCache::Entry& ge);

  /// One page-TLB entry.  Translations are immutable (the VMem bump
  /// allocator only appends regions), so replaying a physically linear page
  /// is exact -- it skips the region binary search, nothing else.  Purely a
  /// wall-clock cache: no simulated state or timing depends on it
  /// (docs/PERFORMANCE.md).
  struct TlbEntry {
    /// The page's last byte address, va | (kPageBytes - 1).  Never 0, so an
    /// all-zero entry is empty.
    VAddr tag = 0;
    PAddr delta = 0;  ///< pa - va for every byte of the page.
  };
  /// Entries per CPU, direct-mapped by virtual page number.  PIC's particle
  /// arrays sit exactly 64 pages apart, so 64 entries thrash on them.
  static constexpr unsigned kTlbEntries = 256;
  TlbEntry& tlb_slot(unsigned cpu, VAddr va) {
    return tlb_[cpu * kTlbEntries + (page_of(va) & (kTlbEntries - 1))];
  }

  Topology topo_;
  CostModel cm_;
  VMem vm_;
  PerfCounters perf_;
  sci::RingFabric rings_;
  std::vector<L1Cache> l1_;
  std::vector<FuState> fus_;
  std::vector<sci::GCache> gcaches_;  ///< [node * 4 + ring]
  /// Home directory: open-addressing flat maps (docs/PERFORMANCE.md) -- one
  /// cache-friendly probe per access() instead of an unordered_map node
  /// chase, and no per-line heap allocation.  One map per home node.
  std::vector<FlatMap<LineAddr, HomeEntry>> directory_;
  /// Per-CPU page TLBs (tlb_slot()).  Each CPU only ever touches its own
  /// 4 KB slice.
  std::vector<TlbEntry> tlb_;
  MemObserver* observer_ = nullptr;
  TestMutation mutation_;
};

}  // namespace spp::arch
