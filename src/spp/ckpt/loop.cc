#include "spp/ckpt/loop.h"

#include <algorithm>

namespace spp::ckpt {

void run_chunks(rt::Runtime& rt, Store& store, const DurableSpec& spec,
                std::uint64_t steps, const ChunkFn& chunk) {
  DurableSession session(rt, store, spec);
  std::uint64_t step = session.begin();
  while (session.boundary(step) && step < steps) {
    const std::uint64_t end = std::min(step + session.interval(), steps);
    chunk(step, end);
    step = end;
  }
}

void run_steps(rt::Runtime& rt, unsigned nthreads, rt::Placement placement,
               rt::Barrier& barrier, Store& store, unsigned interval,
               const DurableSpec& spec, std::uint64_t steps,
               const StepFn& step) {
  if (spec.enabled()) {
    run_chunks(rt, store, spec, steps,
               [&](std::uint64_t begin, std::uint64_t end) {
                 rt.parallel(nthreads, placement,
                             [&](unsigned tid, unsigned n) {
                               for (std::uint64_t s = begin; s < end; ++s) {
                                 step(tid, n, s);
                               }
                             });
               });
    return;
  }

  std::uint64_t seen_recoveries = rt.machine().perf().cpu_recoveries;
  std::uint64_t next_step = 0;
  rt.parallel(nthreads, placement, [&](unsigned tid, unsigned n) {
    for (std::uint64_t s = 0; s < steps;) {
      if (interval == 0) {
        step(tid, n, s++);
        continue;
      }
      if (tid == 0 && s % interval == 0 && !store.has_epoch(s)) {
        store.capture(s);
      }
      barrier.wait();
      step(tid, n, s);
      if (tid == 0) {
        const std::uint64_t rec = rt.machine().perf().cpu_recoveries;
        if (rec != seen_recoveries && store.latest() >= 0) {
          // A thread migrated off a fail-stopped CPU this step: the data is
          // intact but mid-step work interleaved with the failure, so roll
          // back to the last epoch and replay.
          next_step = static_cast<std::uint64_t>(store.latest());
          store.restore(next_step);
        } else {
          next_step = s + 1;
        }
        seen_recoveries = rec;
      }
      barrier.wait();
      s = next_step;
    }
  });
}

}  // namespace spp::ckpt
