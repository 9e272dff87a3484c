#include "spp/arch/vmem.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace spp::arch {

const char* to_string(MemClass mc) {
  switch (mc) {
    case MemClass::kThreadPrivate:
      return "thread_private";
    case MemClass::kNodePrivate:
      return "node_private";
    case MemClass::kNearShared:
      return "near_shared";
    case MemClass::kFarShared:
      return "far_shared";
    case MemClass::kBlockShared:
      return "block_shared";
  }
  return "?";
}

namespace {
std::uint64_t round_up(std::uint64_t x, std::uint64_t align) {
  return (x + align - 1) / align * align;
}
}  // namespace

VAddr VMem::allocate(std::uint64_t bytes, MemClass mem_class,
                     const std::string& label, unsigned home_node,
                     std::uint64_t block_bytes) {
  assert(bytes > 0);
  assert(home_node < topo_.nodes);
  assert(block_bytes >= kLineBytes && block_bytes % kLineBytes == 0);

  Region r;
  r.base = vbump_;
  r.size = round_up(bytes, kPageBytes);
  r.mem_class = mem_class;
  r.home_node = home_node;
  r.block_bytes = block_bytes;
  r.fu_base = fu_bump_;
  r.label = label;

  // Every region occupies a machine-wide unique offset range; each page or
  // block lives at ITS OWN offset inside whichever FU window hosts it.  This
  // wastes window space (windows are 64 GB, the real FU had 32 MB -- holes
  // are free in simulation) but makes the within-window offset a faithful
  // direct-mapped cache index (see compact_line in address.h).
  switch (mem_class) {
    case MemClass::kThreadPrivate:
      // One instance per CPU; both CPUs of a FU keep instances in that FU,
      // at consecutive unique offset ranges.
      r.per_fu_bytes = r.size * kCpusPerFu;
      break;
    default:
      // Shared classes and NodePrivate (whose per-node instances reuse the
      // same offsets in different nodes, never sharing a CPU).
      r.per_fu_bytes = r.size;
      break;
  }

  vbump_ = round_up(vbump_ + r.size, kPageBytes);
  fu_bump_ = round_up(fu_bump_ + r.per_fu_bytes, kPageBytes);
  if (fu_bump_ >= (1ull << kFuWindowBits)) {
    throw std::runtime_error("VMem: physical FU window exhausted");
  }
  regions_.push_back(r);
  return r.base;
}

const Region& VMem::region_of(VAddr va) const {
  // Regions are appended in increasing base order; binary search.
  auto it = std::upper_bound(
      regions_.begin(), regions_.end(), va,
      [](VAddr a, const Region& r) { return a < r.base; });
  if (it == regions_.begin()) throw std::out_of_range("VMem: unmapped address");
  --it;
  if (va >= it->base + it->size) {
    throw std::out_of_range("VMem: unmapped address");
  }
  return *it;
}

PAddr VMem::translate(VAddr va, unsigned cpu) const {
  return translate_in(region_of(va), va, cpu);
}

PAddr VMem::translate_in(const Region& r, VAddr va, unsigned cpu) const {
  const std::uint64_t off = va - r.base;
  const unsigned my_node = topo_.node_of_cpu(cpu);

  switch (r.mem_class) {
    case MemClass::kThreadPrivate: {
      // Instance per CPU, in the CPU's own FU; the two CPUs of a FU get
      // consecutive slots.
      const unsigned fu = topo_.fu_of_cpu(cpu);
      const unsigned slot = cpu % kCpusPerFu;
      return make_paddr(fu, r.fu_base + slot * r.size + off);
    }
    case MemClass::kNodePrivate: {
      // Instance per node, page-interleaved across the node's FUs.
      const std::uint64_t page = off / kPageBytes;
      const unsigned fu = topo_.fu_id(
          my_node, static_cast<unsigned>(page % kFusPerNode));
      return make_paddr(fu, r.fu_base + off);
    }
    case MemClass::kNearShared: {
      const std::uint64_t page = off / kPageBytes;
      const unsigned fu = topo_.fu_id(
          r.home_node, static_cast<unsigned>(page % kFusPerNode));
      return make_paddr(fu, r.fu_base + off);
    }
    case MemClass::kFarShared: {
      // Pages round-robin across nodes first, then FU position, matching
      // "the memory is interleaved across hypernodes as well as functional
      // units within each participating hypernode" (section 2.6).
      const std::uint64_t page = off / kPageBytes;
      const unsigned node = static_cast<unsigned>(page % topo_.nodes);
      const unsigned fu_in =
          static_cast<unsigned>((page / topo_.nodes) % kFusPerNode);
      return make_paddr(topo_.fu_id(node, fu_in), r.fu_base + off);
    }
    case MemClass::kBlockShared: {
      const std::uint64_t block = off / r.block_bytes;
      const unsigned node = static_cast<unsigned>(block % topo_.nodes);
      const unsigned fu_in =
          static_cast<unsigned>((block / topo_.nodes) % kFusPerNode);
      return make_paddr(topo_.fu_id(node, fu_in), r.fu_base + off);
    }
  }
  throw std::logic_error("VMem: bad memory class");
}

PAddr VMem::translate_page(VAddr va, unsigned cpu, bool* linear) const {
  const Region& r = region_of(va);
  std::uint64_t unit;
  switch (r.mem_class) {
    case MemClass::kThreadPrivate:
      // One instance, physically contiguous: the whole region is one unit.
      unit = r.size;
      break;
    case MemClass::kBlockShared:
      unit = r.block_bytes;
      break;
    default:
      // Page-interleaved classes change FU at page boundaries.
      unit = kPageBytes;
      break;
  }
  // Regions start on page boundaries, so the page's offset in the region is
  // its offset in the interleave pattern.
  const std::uint64_t first = (va - r.base) & ~(kPageBytes - 1);
  *linear = first / unit == (first + kPageBytes - 1) / unit;
  return translate_in(r, va, cpu);
}

bool VMem::shared_between(VAddr va, unsigned cpu_a, unsigned cpu_b) const {
  return translate(va, cpu_a) == translate(va, cpu_b);
}

}  // namespace spp::arch
