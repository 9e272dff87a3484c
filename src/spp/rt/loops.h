// Parallel-loop scheduling: the compiler-directive layer of section 3.2 and
// the paper's future-work item of section 7 ("more dynamic load balancing
// and lightweight threads needs to be developed and implemented on this
// system to ease the programming burden").
//
// Three schedules over an iteration space [0, n):
//   * kStatic  -- contiguous blocks, one per thread (what the 1995 codes
//                 hard-wired; zero scheduling traffic);
//   * kDynamic -- self-scheduling from a shared counter: each grab is an
//                 uncached fetch-and-add at the counter's home memory, so
//                 scheduling cost and its NUMA penalty are modeled
//                 faithfully;
//   * kGuided  -- decreasing chunk sizes (remaining/2P, floored), fewer
//                 grabs than dynamic with similar balance.
//
// The `loop_schedules` entry of sppsim-bench shows the tradeoff the paper
// anticipated: static wins on uniform work, dynamic/guided win under
// imbalance despite the fetch-and-add traffic.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>

#include "spp/rt/runtime.h"

namespace spp::rt {

enum class Schedule { kStatic, kDynamic, kGuided };

struct LoopOptions {
  Schedule schedule = Schedule::kStatic;
  /// Chunk size for kDynamic (and the floor for kGuided).
  std::size_t chunk = 16;
  /// Hypernode hosting the shared iteration counter.
  unsigned counter_home = 0;
};

/// The static schedule's block of part `p`: [0, n) split into `parts`
/// contiguous ranges, the first n % parts of them one longer.  Every app and
/// library kernel that divides work statically uses it.
inline std::pair<std::size_t, std::size_t> block_range(std::size_t n,
                                                       unsigned parts,
                                                       unsigned p) {
  const std::size_t base = n / parts, rem = n % parts;
  const std::size_t begin = p * base + std::min<std::size_t>(p, rem);
  return {begin, begin + base + (p < rem ? 1 : 0)};
}

/// Runs `body(i)` for every i in [0, n) across `nthreads` threads spawned
/// with `placement`.  Returns after all iterations complete (fork-join).
void parallel_for(Runtime& rt, std::size_t n, unsigned nthreads,
                  Placement placement, const LoopOptions& options,
                  const std::function<void(std::size_t)>& body);

/// Convenience: static schedule.
inline void parallel_for(Runtime& rt, std::size_t n, unsigned nthreads,
                         Placement placement,
                         const std::function<void(std::size_t)>& body) {
  parallel_for(rt, n, nthreads, placement, LoopOptions{}, body);
}

/// Work-stealing-free self-scheduler usable INSIDE an existing parallel
/// region: all participating threads repeatedly grab chunks until the space
/// is exhausted.  Create one per loop instance (it allocates its counter).
class SelfScheduler {
 public:
  SelfScheduler(Runtime& rt, std::size_t n, const LoopOptions& options,
                unsigned nthreads);

  /// Grabs the next chunk [begin, end); returns false when exhausted.
  /// Charges the fetch-and-add on the shared counter (kDynamic/kGuided) --
  /// this is where scheduling overhead and contention live.
  bool next(unsigned tid, std::size_t& begin, std::size_t& end);

  /// Must be called between reuses (not thread-safe; call outside the loop).
  void reset();

  std::uint64_t grabs() const { return grabs_; }

 private:
  Runtime* rt_;
  std::size_t n_;
  LoopOptions options_;
  unsigned nthreads_;
  std::size_t cursor_ = 0;
  std::uint64_t grabs_ = 0;
  arch::VAddr counter_va_ = 0;
};

}  // namespace spp::rt
