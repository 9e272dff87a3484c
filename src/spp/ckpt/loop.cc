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
               Store& store, const DurableSpec& spec, std::uint64_t steps,
               const StepFn& step) {
  const auto region = [&](std::uint64_t begin, std::uint64_t end) {
    rt.parallel(nthreads, placement, [&](unsigned tid, unsigned n) {
      for (std::uint64_t s = begin; s < end; ++s) step(tid, n, s);
    });
  };
  if (spec.enabled()) {
    run_chunks(rt, store, spec, steps, region);
  } else {
    region(0, steps);
  }
}

}  // namespace spp::ckpt
