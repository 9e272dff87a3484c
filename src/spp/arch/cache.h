// Per-CPU data cache model: 1 MB, direct-mapped, 32-byte lines (PA-7100
// external cache, section 2.2).  This is a pure state container — all
// protocol decisions and latency accounting live in spp::arch::Machine.
//
// The instruction cache is not modeled: section 2.6 states the caches sustain
// one data access and one instruction fetch per cycle, so instruction fetch
// never appears on the latency paths the paper measures.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "spp/arch/address.h"

namespace spp::arch {

enum class LineState : std::uint8_t {
  kInvalid,
  kShared,
  kExclusive,  ///< sole clean copy: a write upgrades to Modified for free.
  kModified,
};

/// Direct-mapped cache of physical line addresses.
class L1Cache {
 public:
  struct Entry {
    LineAddr line = kNoLine;
    LineState state = LineState::kInvalid;
  };

  static constexpr LineAddr kNoLine = std::numeric_limits<LineAddr>::max();

  explicit L1Cache(std::uint64_t bytes = 1ull << 20, unsigned num_fus = 1)
      : sets_(bytes / kLineBytes),
        sets_mask_((sets_ & (sets_ - 1)) == 0 ? sets_ - 1 : 0),
        num_fus_(num_fus) {}

  std::uint64_t sets() const { return sets_; }

  std::uint64_t set_of(LineAddr line) const {
    // Real cache geometries are powers of two; mask instead of dividing
    // (set_of sits on every L1 state probe in Machine::access).
    const std::uint64_t compact = compact_line(line, num_fus_);
    return sets_mask_ != 0 ? compact & sets_mask_ : compact % sets_;
  }

  /// The direct-mapped slot a line would occupy (may currently hold another
  /// line, or be invalid).  Materialises the set's backing storage.
  Entry& slot(LineAddr line) {
    const std::uint64_t set = set_of(line);
    if (set >= entries_.size()) grow(set);
    return entries_[set];
  }
  const Entry& slot(LineAddr line) const {
    const std::uint64_t set = set_of(line);
    return set < entries_.size() ? entries_[set] : kEmpty;
  }

  /// The entry holding `line`, or nullptr.  Never materialises storage.
  Entry* find(LineAddr line) {
    const std::uint64_t set = set_of(line);
    if (set >= entries_.size()) return nullptr;
    Entry& e = entries_[set];
    return e.line == line ? &e : nullptr;
  }

  /// Sets with backing storage so far (<= sets()); flush walks only these.
  std::uint64_t allocated_sets() const { return entries_.size(); }

  /// Direct access to a set's entry by set index (flush/introspection);
  /// `set` must be < allocated_sets().
  Entry& entry_at(std::uint64_t set) { return entries_[set]; }

  /// True if `line` is present with at least Shared permission.
  bool present(LineAddr line) const {
    const Entry& e = slot(line);
    return e.line == line && e.state != LineState::kInvalid;
  }

  LineState state_of(LineAddr line) const {
    const Entry& e = slot(line);
    return e.line == line ? e.state : LineState::kInvalid;
  }

  /// Installs a line (caller has already handled the previous occupant).
  void install(LineAddr line, LineState state) {
    Entry& e = slot(line);
    e.line = line;
    e.state = state;
  }

  /// Drops `line` if present (invalidation).  Returns true if it was present.
  /// Never materialises storage: an invalidation for an absent line is a
  /// no-op.
  bool invalidate(LineAddr line) {
    const std::uint64_t set = set_of(line);
    if (set >= entries_.size()) return false;
    Entry& e = entries_[set];
    if (e.line != line || e.state == LineState::kInvalid) return false;
    e.state = LineState::kInvalid;
    e.line = kNoLine;
    return true;
  }

  /// Downgrades `line` to Shared if present in Modified or Exclusive.
  void downgrade(LineAddr line) {
    const std::uint64_t set = set_of(line);
    if (set >= entries_.size()) return;
    Entry& e = entries_[set];
    if (e.line == line && (e.state == LineState::kModified ||
                           e.state == LineState::kExclusive)) {
      e.state = LineState::kShared;
    }
  }

  /// Invalidates everything (thread teardown / tests).
  void clear() {
    for (auto& e : entries_) e = Entry{};
  }

 private:
  /// Backing storage grows on demand to cover the highest set actually
  /// touched; `sets_`/`sets_mask_` fix the architected geometry (and hence
  /// every conflict), so laziness is invisible to the protocol.  Eagerly
  /// materialising all sets dominated Machine construction wall time.
  void grow(std::uint64_t set) {
    std::uint64_t cap = entries_.empty() ? 64 : entries_.size();
    while (cap <= set) cap *= 2;
    entries_.resize(std::min(cap, sets_));
  }

  static const Entry kEmpty;

  std::uint64_t sets_;
  std::uint64_t sets_mask_;  ///< sets_-1 when a power of two, else 0.
  unsigned num_fus_;
  std::vector<Entry> entries_;
};

inline const L1Cache::Entry L1Cache::kEmpty{};

}  // namespace spp::arch
