#include "spp/ckpt/ckpt.h"

#include <cstring>

#include "spp/arch/vmem.h"
#include "spp/rt/conductor.h"

namespace spp::ckpt {

void Registrar::push(Region r) {
  for (const Region& existing : regions_) {
    if (existing.name == r.name) {
      throw Error("ckpt: region '" + r.name + "' registered twice");
    }
  }
  regions_.push_back(std::move(r));
}

void Store::ensure_arena(std::uint64_t bytes) {
  if (bytes <= arena_bytes_) return;
  // The vmem allocator never frees, so growth abandons the old arena; in
  // practice the region set is fixed after setup and this runs once.
  arena_va_ = rt_->alloc(bytes, arch::MemClass::kFarShared, "ckpt.store");
  arena_bytes_ = bytes;
}

void Store::capture(std::uint64_t epoch) {
  const std::vector<Region>& regions = reg_.regions();
  if (regions.empty()) {
    throw Error("ckpt: capture with no registered regions");
  }
  rt::SThread& th = rt::Conductor::self();
  const sim::Time t0 = th.clock();

  std::uint64_t total = 0;
  for (const Region& r : regions) total += r.locate().second;
  ensure_arena(total);

  // Fill the held snapshot in place; a durable run captures the same region
  // set at every boundary, so each blob reuses its buffer.
  epoch_.reset();
  snap_.names.resize(regions.size());
  snap_.blobs.resize(regions.size());
  std::uint64_t off = 0;
  for (std::size_t i = 0; i < regions.size(); ++i) {
    const Region& r = regions[i];
    const auto [ptr, bytes] = r.locate();
    // Stream the region out of the application's simulated memory and into
    // the checkpoint arena; both halves are genuine charged traffic.
    if (r.va != 0 && bytes != 0) rt_->read(r.va, bytes);
    if (bytes != 0) rt_->write(arena_va_ + off, bytes);
    off += bytes;
    snap_.names[i] = r.name;
    const auto* src = static_cast<const std::uint8_t*>(ptr);
    snap_.blobs[i].assign(src, src + bytes);
  }
  epoch_ = epoch;

  arch::PerfCounters& perf = rt_->machine().perf();
  ++perf.checkpoints_taken;
  perf.ckpt_bytes += total;
  perf.ckpt_ns += th.clock() - t0;
}

const Store::Snapshot& Store::epoch_image(std::uint64_t epoch) const {
  if (epoch_ != epoch) {
    throw Error("ckpt: no snapshot for epoch " + std::to_string(epoch));
  }
  return snap_;
}

void Store::seed_epoch(std::uint64_t epoch, Snapshot snap) {
  const std::vector<Region>& regions = reg_.regions();
  if (regions.size() != snap.names.size()) {
    throw Error("ckpt: disk epoch " + std::to_string(epoch) + " holds " +
                std::to_string(snap.names.size()) + " regions but " +
                std::to_string(regions.size()) + " are registered");
  }
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < regions.size(); ++i) {
    const Region& r = regions[i];
    if (r.name != snap.names[i]) {
      throw Error("ckpt: region '" + r.name + "' does not match '" +
                  snap.names[i] + "' in disk epoch " + std::to_string(epoch));
    }
    const auto [ptr, bytes] = r.locate();
    (void)ptr;
    if (bytes != snap.blobs[i].size()) {
      throw Error("ckpt: region '" + r.name + "' is " +
                  std::to_string(bytes) + " bytes but disk epoch " +
                  std::to_string(epoch) + " holds " +
                  std::to_string(snap.blobs[i].size()));
    }
    total += bytes;
  }
  // Validated; now mutate.  The arena allocation happens at the same point
  // in the process's allocation sequence as the original run's first
  // capture, so simulated address layout matches the run being resumed.
  ensure_arena(total);
  for (std::size_t i = 0; i < regions.size(); ++i) {
    const auto [ptr, bytes] = regions[i].locate();
    if (bytes != 0) std::memcpy(ptr, snap.blobs[i].data(), bytes);
  }
  snap_ = std::move(snap);
  epoch_ = epoch;
}

}  // namespace spp::ckpt
