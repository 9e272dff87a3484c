#include "spp/rt/loops.h"

#include <stdexcept>

namespace spp::rt {

SelfScheduler::SelfScheduler(Runtime& rt, std::size_t n,
                             const LoopOptions& options, unsigned nthreads)
    : rt_(&rt), n_(n), options_(options), nthreads_(std::max(1u, nthreads)) {
  if (options_.schedule != Schedule::kStatic) {
    counter_va_ = rt.alloc(arch::kLineBytes, arch::MemClass::kNearShared,
                           "loop.counter", options_.counter_home);
  }
}

void SelfScheduler::reset() {
  cursor_ = 0;
  grabs_ = 0;
}

bool SelfScheduler::next(unsigned tid, std::size_t& begin, std::size_t& end) {
  (void)tid;
  switch (options_.schedule) {
    case Schedule::kStatic:
      throw std::logic_error(
          "SelfScheduler is for dynamic/guided; static blocks are computed "
          "locally by parallel_for");
    case Schedule::kDynamic: {
      if (cursor_ >= n_) return false;
      // Fetch-and-add on the shared iteration counter.
      SThread& me = Conductor::self();
      me.set_clock(rt_->machine().atomic_rmw(me.cpu(), counter_va_,
                                             me.clock()));
      begin = cursor_;
      end = std::min(n_, cursor_ + options_.chunk);
      cursor_ = end;
      ++grabs_;
      return true;
    }
    case Schedule::kGuided: {
      if (cursor_ >= n_) return false;
      SThread& me = Conductor::self();
      me.set_clock(rt_->machine().atomic_rmw(me.cpu(), counter_va_,
                                             me.clock()));
      const std::size_t remaining = n_ - cursor_;
      const std::size_t take = std::max<std::size_t>(
          options_.chunk, remaining / (2 * nthreads_));
      begin = cursor_;
      end = std::min(n_, cursor_ + take);
      cursor_ = end;
      ++grabs_;
      return true;
    }
  }
  return false;
}

void parallel_for(Runtime& rt, std::size_t n, unsigned nthreads,
                  Placement placement, const LoopOptions& options,
                  const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  SelfScheduler sched(rt, n, options, nthreads);
  rt.parallel(nthreads, placement, [&](unsigned tid, unsigned) {
    if (options.schedule == Schedule::kStatic) {
      // Static: exactly one block per thread.
      const auto [b, e] = block_range(n, nthreads, tid);
      rt.work_ops(12);
      for (std::size_t i = b; i < e; ++i) body(i);
      return;
    }
    std::size_t b, e;
    while (sched.next(tid, b, e)) {
      for (std::size_t i = b; i < e; ++i) body(i);
    }
  });
}

}  // namespace spp::rt
