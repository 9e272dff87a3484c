#include "spp/lib/scatter_add.h"

#include <algorithm>
#include <memory>

#include "spp/rt/loops.h"
#include "spp/rt/sync.h"

namespace spp::lib {

ScatterStats scatter_add(rt::Runtime& rt, rt::GlobalArray<double>& target,
                         const std::vector<std::int32_t>& idx,
                         const std::vector<double>& val, unsigned nthreads,
                         rt::Placement placement, ScatterStrategy strategy) {
  ScatterStats stats;
  const std::size_t m = idx.size();
  const std::size_t n = target.size();
  const sim::Time t0 = rt.elapsed();

  switch (strategy) {
    case ScatterStrategy::kPrivate: {
      rt::GlobalArray<double> stage(rt, n * nthreads,
                                    arch::MemClass::kBlockShared,
                                    "scatter.stage", 0,
                                    std::max<std::uint64_t>(
                                        arch::kPageBytes, n * sizeof(double)));
      rt::Barrier barrier(rt, nthreads);
      rt.run([&] {
        rt.parallel(nthreads, placement, [&](unsigned tid, unsigned nt) {
          const std::size_t base = tid * n;
          for (std::size_t c = 0; c < n; ++c) stage.raw(base + c) = 0;
          stage.touch_range(base, n, true);
          const auto [kb, ke] = rt::block_range(m, nt, tid);
          for (std::size_t k = kb; k < ke; ++k) {
            stage.accumulate(base + static_cast<std::size_t>(idx[k]), val[k]);
            rt.work_flops(1);
          }
          barrier.wait();
          // Combine: target-range owners sum the slices.
          const auto [cb, ce] = rt::block_range(n, nt, tid);
          for (std::size_t c = cb; c < ce; ++c) {
            double s = 0;
            for (unsigned t = 0; t < nt; ++t) s += stage.raw(t * n + c);
            target.accumulate(c, s);
            rt.work_flops(nt);
          }
          for (unsigned t = 0; t < nt; ++t) {
            stage.touch_range(t * n + cb, ce - cb, false);
          }
        });
      });
      break;
    }
    case ScatterStrategy::kLocked: {
      // Striped locks: 64 target blocks per lock stripe.
      const std::size_t stripe = std::max<std::size_t>(1, n / 64);
      std::vector<std::unique_ptr<rt::Lock>> locks;
      for (std::size_t s = 0; s * stripe < n; ++s) {
        locks.push_back(std::make_unique<rt::Lock>(rt));
      }
      rt.run([&] {
        rt.parallel(nthreads, placement, [&](unsigned tid, unsigned nt) {
          const auto [kb, ke] = rt::block_range(m, nt, tid);
          for (std::size_t k = kb; k < ke; ++k) {
            const auto c = static_cast<std::size_t>(idx[k]);
            rt::CriticalSection cs(*locks[c / stripe]);
            target.accumulate(c, val[k]);
            rt.work_flops(1);
          }
        });
      });
      break;
    }
    case ScatterStrategy::kOwner: {
      // Every thread scans the whole stream, applying only owned targets
      // (deterministic, conflict-free, read-amplified).
      rt.run([&] {
        rt.parallel(nthreads, placement, [&](unsigned tid, unsigned nt) {
          const auto [cb, ce] = rt::block_range(n, nt, tid);
          for (std::size_t k = 0; k < m; ++k) {
            const auto c = static_cast<std::size_t>(idx[k]);
            rt.work_ops(2);
            if (c < cb || c >= ce) continue;
            target.accumulate(c, val[k]);
            rt.work_flops(1);
          }
        });
      });
      break;
    }
  }
  stats.sim_time = rt.elapsed() - t0;
  return stats;
}

}  // namespace spp::lib
