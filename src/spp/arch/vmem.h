// Virtual memory classes and address translation.
//
// The SPP-1000 compilers expose five classes of virtual memory (section 3.2);
// translation policy, not page tables, is what distinguishes them, so the
// simulator translates arithmetically from per-region placement rules:
//
//   ThreadPrivate  one physical instance per CPU, resident in that CPU's FU
//   NodePrivate    one instance per hypernode, page-interleaved over its FUs
//   NearShared     single instance, page-interleaved over one home node's FUs
//   FarShared      single instance, pages round-robin over all nodes and FUs
//   BlockShared    like FarShared with a user block size instead of the page
//
// (The paper notes node-private and block-shared were not yet operational on
// the measured system; we implement them anyway — they are part of the
// documented architecture and the ablation benches exercise them.)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "spp/arch/address.h"
#include "spp/arch/topology.h"

namespace spp::arch {

enum class MemClass : std::uint8_t {
  kThreadPrivate,
  kNodePrivate,
  kNearShared,
  kFarShared,
  kBlockShared,
};

const char* to_string(MemClass mc);

/// One virtual allocation and its placement rule.
struct Region {
  VAddr base = 0;
  std::uint64_t size = 0;
  MemClass mem_class = MemClass::kFarShared;
  unsigned home_node = 0;        ///< NearShared only.
  std::uint64_t block_bytes = kPageBytes;  ///< BlockShared only.
  /// Physical byte offset of this region's slice within every participating
  /// FU window (the same offset is reserved in each FU).
  std::uint64_t fu_base = 0;
  /// Bytes reserved per participating FU / per instance.
  std::uint64_t per_fu_bytes = 0;
  std::string label;  ///< for diagnostics and memory maps.
};

/// Allocation map + translation for one machine.
///
/// Allocation is a bump allocator in virtual space; each region reserves an
/// identical slice at the same offset in every functional unit window it can
/// touch, which keeps translation O(log #regions) with no page tables.
class VMem {
 public:
  explicit VMem(const Topology& topo) : topo_(topo) {}

  /// Reserves `bytes` of virtual space with the given class.  `home_node`
  /// applies to NearShared; `block_bytes` to BlockShared.
  VAddr allocate(std::uint64_t bytes, MemClass mem_class,
                 const std::string& label, unsigned home_node = 0,
                 std::uint64_t block_bytes = kPageBytes);

  /// Translates a virtual address as seen from `cpu`.  ThreadPrivate and
  /// NodePrivate resolve to the accessor's own instance.
  PAddr translate(VAddr va, unsigned cpu) const;

  /// Like translate(), but also reports whether the 4 KB page holding `va`
  /// is physically linear: every byte of it translates to `va`'s physical
  /// address plus its distance from `va`, so a page-grain cache may replay
  /// the page.  Decided from the region's interleave granularity -- the
  /// region for ThreadPrivate, the block for BlockShared, the page
  /// otherwise: a page is linear exactly when it sits inside one unit.
  PAddr translate_page(VAddr va, unsigned cpu, bool* linear) const;

  /// Region lookup (asserts the address is mapped).
  const Region& region_of(VAddr va) const;

  /// True if two CPUs resolve `va` to the same physical address (i.e. the
  /// data is genuinely shared between them).
  bool shared_between(VAddr va, unsigned cpu_a, unsigned cpu_b) const;

  const std::vector<Region>& regions() const { return regions_; }
  std::uint64_t reserved_bytes_per_fu() const { return fu_bump_; }

 private:
  PAddr translate_in(const Region& r, VAddr va, unsigned cpu) const;

  Topology topo_;
  std::vector<Region> regions_;  ///< sorted by base.
  VAddr vbump_ = kPageBytes;     ///< never hand out address 0.
  std::uint64_t fu_bump_ = 0;    ///< physical bump offset, same in every FU.
};

}  // namespace spp::arch
