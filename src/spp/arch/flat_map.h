// Open-addressing hash map for the simulator's hottest lookup tables
// (docs/PERFORMANCE.md).
//
// Machine::access() probes the home directory once per cached access, so the
// container behind it dominates the memory system's wall-clock cost.
// std::unordered_map pays a heap node per entry (an allocation on insert, a
// pointer chase per probe, and -- because simulation runs create and destroy
// whole Machines -- heap churn that glibc answers with page-granular trim and
// refault).  This map stores entries inline in two flat arrays (a state byte
// array scanned linearly and a key/value array), probes linearly from a
// multiplicative hash, grows by doubling at 7/8 load, and erases by backward
// shift so no tombstones accumulate.
//
// Deliberately minimal: the simulator needs find/insert/erase/iterate with
// u64-ish trivially-copyable keys, not a general container.  Iteration order
// is unspecified and changes across rehash; nothing simulated may depend on
// it (the determinism tests enforce that indirectly).
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace spp::arch {

template <typename K, typename V>
class FlatMap {
 public:
  FlatMap() = default;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void clear() {
    states_.assign(states_.size(), kEmpty);
    slots_.assign(slots_.size(), Slot{});
    size_ = 0;
  }

  V* find(const K& key) {
    if (size_ == 0) return nullptr;
    for (std::size_t i = hash(key);; i = (i + 1) & mask_) {
      if (states_[i] == kEmpty) return nullptr;
      if (slots_[i].key == key) return &slots_[i].value;
    }
  }
  const V* find(const K& key) const {
    return const_cast<FlatMap*>(this)->find(key);
  }

  /// Inserts a default-constructed value when absent (std::map semantics).
  V& operator[](const K& key) {
    if (capacity() == 0 || size_ + 1 > capacity() - capacity() / 8) {
      rehash(capacity() == 0 ? kMinCapacity : capacity() * 2);
    }
    for (std::size_t i = hash(key);; i = (i + 1) & mask_) {
      if (states_[i] == kEmpty) {
        states_[i] = kFull;
        slots_[i].key = key;
        slots_[i].value = V{};
        ++size_;
        return slots_[i].value;
      }
      if (slots_[i].key == key) return slots_[i].value;
    }
  }

  /// Removes `key` if present; returns whether it was.  Backward-shift
  /// deletion: entries displaced past the hole are moved back, so probe
  /// chains stay tombstone-free no matter the churn.
  bool erase(const K& key) {
    if (size_ == 0) return false;
    std::size_t i = hash(key);
    for (;; i = (i + 1) & mask_) {
      if (states_[i] == kEmpty) return false;
      if (slots_[i].key == key) break;
    }
    std::size_t hole = i;
    for (std::size_t j = (hole + 1) & mask_;; j = (j + 1) & mask_) {
      if (states_[j] == kEmpty) break;
      const std::size_t home = hash(slots_[j].key);
      // Move j back iff its home position lies at or before the hole on the
      // (circular) probe path -- i.e. the hole sits inside j's probe chain.
      const std::size_t dist_home = (j - home) & mask_;
      const std::size_t dist_hole = (j - hole) & mask_;
      if (dist_home >= dist_hole) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    states_[hole] = kEmpty;
    slots_[hole] = Slot{};
    --size_;
    return true;
  }

  /// Calls fn(key, value) for every entry, in unspecified order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < states_.size(); ++i) {
      if (states_[i] == kFull) fn(slots_[i].key, slots_[i].value);
    }
  }

 private:
  struct Slot {
    K key{};
    V value{};
  };
  enum : std::uint8_t { kEmpty = 0, kFull = 1 };
  static constexpr std::size_t kMinCapacity = 16;

  std::size_t capacity() const { return states_.size(); }

  std::size_t hash(const K& key) const {
    // splitmix64 finalizer: cheap and thorough enough that sequential line
    // addresses spread uniformly.
    std::uint64_t x = static_cast<std::uint64_t>(key);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return static_cast<std::size_t>(x) & mask_;
  }

  void rehash(std::size_t new_cap) {
    assert((new_cap & (new_cap - 1)) == 0 && "capacity must be a power of 2");
    std::vector<std::uint8_t> old_states = std::move(states_);
    std::vector<Slot> old_slots = std::move(slots_);
    states_.assign(new_cap, kEmpty);
    slots_.assign(new_cap, Slot{});
    mask_ = new_cap - 1;
    size_ = 0;
    for (std::size_t i = 0; i < old_states.size(); ++i) {
      if (old_states[i] != kFull) continue;
      for (std::size_t j = hash(old_slots[i].key);; j = (j + 1) & mask_) {
        if (states_[j] == kEmpty) {
          states_[j] = kFull;
          slots_[j] = std::move(old_slots[i]);
          ++size_;
          break;
        }
      }
    }
  }

  std::vector<std::uint8_t> states_;
  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace spp::arch
