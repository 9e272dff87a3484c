// Global cache buffers (the "CTcache"): per-(hypernode, ring) direct-mapped
// caches of remote lines, carved out of functional-unit memory (section 2.5:
// "A cache buffer is partitioned out of the functional unit memory to support
// cache line copies from the other hypernode memories on the same global
// ring").
//
// A gcache entry acts as the home-proxy for its line within the node: it
// remembers which local CPUs hold L1 copies, so that an SCI purge arriving
// from the line's real home can invalidate exactly the right caches.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "spp/arch/address.h"

namespace spp::sci {

/// One global-cache buffer (one node x one ring).
class GCache {
 public:
  struct Entry {
    arch::LineAddr line = kNoLine;
    bool dirty = false;           ///< node holds the only, modified copy.
    std::uint8_t cpu_sharers = 0; ///< bitmask over the node's 8 CPUs.
  };

  static constexpr arch::LineAddr kNoLine =
      std::numeric_limits<arch::LineAddr>::max();

  explicit GCache(std::uint64_t bytes, unsigned num_fus = 1)
      : sets_(bytes / arch::kLineBytes), num_fus_(num_fus) {}

  std::uint64_t sets() const { return sets_; }

  std::uint64_t set_of(arch::LineAddr line) const {
    return arch::compact_line(line, num_fus_) % sets_;
  }

  Entry& slot(arch::LineAddr line) {
    const std::uint64_t set = set_of(line);
    const std::uint64_t c = set >> kChunkBits;
    if (c >= chunks_.size() || chunks_[c] == nullptr) add_chunk(c);
    return (*chunks_[c])[set & (kChunkSets - 1)];
  }
  const Entry& slot(arch::LineAddr line) const {
    const Entry* e = find(set_of(line));
    return e != nullptr ? *e : kEmpty;
  }

  bool present(arch::LineAddr line) const {
    const Entry& e = slot(line);
    return e.line == line;
  }

  void drop(arch::LineAddr line) {
    Entry* e = find(set_of(line));
    if (e != nullptr && e->line == line) *e = Entry{};
  }

  void clear() {
    for (auto& c : chunks_) {
      if (c != nullptr) c->fill(Entry{});
    }
  }

 private:
  /// The entries live in 256-set (4 KB) chunks, each created the first time
  /// one of its sets is written.  `sets_` is the architected set count (it
  /// fixes `set_of`'s modulus and therefore every conflict), but a buffer
  /// only holds the chunks its run touches.  PVM's per-task pool slices sit
  /// about 5 MB into every FU window, so an array grown to cover the highest
  /// set touched would fill most of the 4 MB of entries for one message.
  static constexpr unsigned kChunkBits = 8;
  static constexpr std::uint64_t kChunkSets = std::uint64_t{1} << kChunkBits;
  using Chunk = std::array<Entry, kChunkSets>;

  Entry* find(std::uint64_t set) const {
    const std::uint64_t c = set >> kChunkBits;
    if (c >= chunks_.size() || chunks_[c] == nullptr) return nullptr;
    return &(*chunks_[c])[set & (kChunkSets - 1)];
  }

  void add_chunk(std::uint64_t c) {
    if (chunks_.empty()) chunks_.resize((sets_ + kChunkSets - 1) >> kChunkBits);
    chunks_[c] = std::make_unique<Chunk>();
  }

  static const Entry kEmpty;

  std::uint64_t sets_;
  unsigned num_fus_;
  std::vector<std::unique_ptr<Chunk>> chunks_;
};

inline const GCache::Entry GCache::kEmpty{};

}  // namespace spp::sci
