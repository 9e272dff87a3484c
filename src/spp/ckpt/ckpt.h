// Coordinated checkpoints for simulated applications (spp::ckpt).
//
// Applications register named state regions -- GlobalArray segments, POD
// structs, host-side mirrors -- with a Registrar, then take quiesced
// snapshots between parallel regions with Store::capture(epoch).  A capture
// is an in-simulation operation: it charges a streaming read of each
// region's simulated address range plus a streaming write into a
// lazily-allocated far-shared "ckpt.store" arena, so checkpoint overhead is
// a measurable quantity in the profiler (checkpoints_taken / ckpt_bytes /
// ckpt_ns counters, Profiler::recovery_report()).  The durable layer
// (durable.h) persists each capture's host image to disk and seeds a fresh
// process's Store from it on resume (docs/RECOVERY.md).
//
// Zero-cost-when-detached discipline: constructing a Store allocates and
// charges nothing; an application that registers no regions and never calls
// capture() is bit-exact with one that has no Store at all.
//
// Consistency contract: capture is called by ONE thread while every other
// participant is quiesced (the durable chunk loop in loop.h captures on the
// main thread with every worker joined).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "spp/arch/address.h"
#include "spp/rt/garray.h"
#include "spp/rt/runtime.h"
#include "spp/sim/time.h"

namespace spp::ckpt {

/// Checkpoint protocol violation (unknown epoch, region mismatch, duplicate
/// registration, resized host mirror, ...).
class Error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One named piece of application state covered by checkpoints.  `locate`
/// is evaluated at capture/seed time so host mirrors that live in
/// resizable containers stay valid; `va` is the simulated address charged
/// for the application-side half of the copy (0 = host-only mirror, charged
/// by the application through explicit messages instead).
struct Region {
  std::string name;
  arch::VAddr va = 0;
  std::function<std::pair<void*, std::size_t>()> locate;
};

/// Collects the regions a Store snapshots.  Registration is host-side
/// bookkeeping and charges nothing.
class Registrar {
 public:
  /// Registers elements [first, first+count) of a GlobalArray.  Only
  /// single-instance (shared-class) arrays are supported: private classes
  /// keep one copy per CPU/node and a single snapshot would silently lose
  /// the others.
  template <typename T>
  void add(const std::string& name, rt::GlobalArray<T>& a, std::size_t first,
           std::size_t count) {
    if (a.instances() != 1) {
      throw Error("ckpt: region '" + name +
                  "' is a private-class array (one instance per CPU/node); "
                  "register shared-class state only");
    }
    if (first + count > a.size()) {
      throw Error("ckpt: region '" + name + "' range outside array");
    }
    rt::GlobalArray<T>* arr = &a;
    push(Region{name, a.vaddr(first), [arr, first, count] {
                  return std::pair<void*, std::size_t>(&arr->raw(first),
                                                       count * sizeof(T));
                }});
  }

  /// Registers a whole GlobalArray.
  template <typename T>
  void add(const std::string& name, rt::GlobalArray<T>& a) {
    add(name, a, 0, a.size());
  }

  /// Registers a trivially-copyable object (scalars, POD control structs).
  /// Pass the object's simulated address when it has one.
  template <typename T>
  void add_pod(const std::string& name, T& pod, arch::VAddr va = 0) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "checkpointed PODs must be trivially copyable");
    T* p = &pod;
    push(Region{name, va, [p] {
                  return std::pair<void*, std::size_t>(p, sizeof(T));
                }});
  }

  /// Registers a host-side mirror vector (no simulated address; the
  /// application charges its assembly through real messages).  The vector
  /// must hold the same element count when an epoch is seeded as at capture.
  template <typename T>
  void add_host(const std::string& name, std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "checkpointed host mirrors must be trivially copyable");
    std::vector<T>* vp = &v;
    push(Region{name, 0, [vp] {
                  return std::pair<void*, std::size_t>(
                      vp->data(), vp->size() * sizeof(T));
                }});
  }

  const std::vector<Region>& regions() const { return regions_; }
  bool empty() const { return regions_.empty(); }
  void clear() { regions_.clear(); }

 private:
  void push(Region r);
  std::vector<Region> regions_;
};

/// Holds the newest snapshot.  Its host blobs keep the data Disk persists;
/// the simulated "ckpt.store" arena carries the charged traffic.
class Store {
 public:
  /// Host-side image of one epoch: region names plus their byte payloads,
  /// in registration order.  This is the unit spp::ckpt::Disk persists.
  struct Snapshot {
    std::vector<std::string> names;
    std::vector<std::vector<std::uint8_t>> blobs;
  };

  explicit Store(rt::Runtime& rt) : rt_(&rt) {}

  Registrar& registrar() { return reg_; }

  /// Takes a coordinated snapshot tagged `epoch`, replacing the one the
  /// store held.  Must run in exactly one simulated thread with all other
  /// participants quiesced.  Charges the full copy cost and bumps
  /// checkpoints_taken / ckpt_bytes / ckpt_ns.
  void capture(std::uint64_t epoch);

  /// Host image of snapshot `epoch`; throws Error unless `epoch` is the
  /// newest one captured or seeded.  Used by the durability layer to persist
  /// epochs to disk.
  const Snapshot& epoch_image(std::uint64_t epoch) const;

  /// Seeds the store from a disk epoch in a fresh process: validates `snap`
  /// against the registered regions (same names, same sizes, registration
  /// order), copies each payload into its region host-side, allocates the
  /// arena, and installs `snap` as the store's snapshot.  This charges
  /// nothing -- the traffic was charged by the original run's capture and
  /// is already part of the resumed counters.
  void seed_epoch(std::uint64_t epoch, Snapshot snap);

 private:
  /// Grows the simulated arena to hold `bytes` (first capture allocates it).
  void ensure_arena(std::uint64_t bytes);

  rt::Runtime* rt_;
  Registrar reg_;
  arch::VAddr arena_va_ = 0;
  std::uint64_t arena_bytes_ = 0;
  Snapshot snap_;
  std::optional<std::uint64_t> epoch_;  ///< snap_'s epoch; empty until the
                                        ///< first capture or seed.
};

}  // namespace spp::ckpt
