#include "spp/lib/psort.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "spp/rt/loops.h"
#include "spp/rt/sync.h"

namespace spp::lib {

// Sample sort: on a machine whose memory moves at blocking-cache latency
// (~0.5 us per line, section 2.6), the classic merge tree loses because its
// upper merges restream the whole array serially.  Sample sort makes exactly
// one parallel all-to-all data movement:
//   1. each thread sorts its slice in place;
//   2. P-1 splitters are drawn from regular samples of the sorted slices;
//   3. thread t copies every slice's [splitter_{t-1}, splitter_t) sub-range
//      into its own contiguous bucket of a scratch array (reads cross
//      caches, writes stay local), then sorts the bucket and copies it back.
SortStats parallel_sort(rt::Runtime& rt, rt::GlobalArray<double>& data,
                        unsigned nthreads, rt::Placement placement) {
  SortStats stats;
  const std::size_t n = data.size();
  if (n == 0) return stats;
  if (nthreads <= 1 || n < 4 * nthreads) {
    // Serial path.
    const sim::Time t0 = rt.elapsed();
    rt.run([&] {
      rt.parallel(1, placement, [&](unsigned, unsigned) {
        std::sort(&data.raw(0), &data.raw(0) + n);
        const double cmp = static_cast<double>(n) *
                           std::log2(std::max<double>(2.0, double(n)));
        rt.work_flops(cmp);
        rt.work_ops(3.0 * cmp);
        data.touch_range(0, n, false);
        data.touch_range(0, n, true);
        stats.comparisons += static_cast<std::uint64_t>(cmp);
      });
    });
    stats.sim_time = rt.elapsed() - t0;
    return stats;
  }

  rt::GlobalArray<double> scratch(rt, n, arch::MemClass::kBlockShared,
                                  "psort.scratch", 0,
                                  std::max<std::uint64_t>(
                                      arch::kPageBytes,
                                      (n / nthreads + 1) * sizeof(double)));
  rt::Barrier barrier(rt, nthreads);
  std::vector<double> splitters(nthreads - 1);
  // bucket_from[t][s] / bucket counts, filled cooperatively.
  std::vector<std::vector<std::size_t>> lo_of(
      nthreads, std::vector<std::size_t>(nthreads + 1, 0));
  std::vector<std::size_t> bucket_size(nthreads, 0), bucket_off(nthreads, 0);
  std::uint64_t comparisons = 0;

  const sim::Time t0 = rt.elapsed();
  rt.run([&] {
    rt.parallel(nthreads, placement, [&](unsigned tid, unsigned nt) {
      const auto [lo, hi] = rt::block_range(n, nt, tid);

      // Phase 1: local sort.
      std::sort(&data.raw(lo), &data.raw(hi));
      const auto len = static_cast<double>(hi - lo);
      const double cmp = len * std::log2(std::max(2.0, len));
      rt.work_flops(cmp);
      rt.work_ops(3.0 * cmp);
      data.touch_range(lo, hi - lo, false);
      data.touch_range(lo, hi - lo, true);
      comparisons += static_cast<std::uint64_t>(cmp);
      barrier.wait();

      // Phase 2: thread 0 draws splitters from regular samples.
      if (tid == 0) {
        std::vector<double> samples;
        for (unsigned s = 0; s < nt; ++s) {
          const auto [slo, shi] = rt::block_range(n, nt, s);
          for (unsigned k = 1; k < nt; ++k) {
            samples.push_back(data.raw(slo + k * (shi - slo) / nt));
            rt.read(data.vaddr(slo + k * (shi - slo) / nt));
          }
        }
        std::sort(samples.begin(), samples.end());
        for (unsigned k = 0; k + 1 < nt; ++k) {
          splitters[k] = samples[(k + 1) * samples.size() / nt];
        }
        rt.work_ops(static_cast<double>(samples.size()) * 12);
      }
      barrier.wait();

      // Phase 3a: each thread computes, in every sorted slice, where ITS
      // bucket begins (binary search against its lower splitter).
      for (unsigned s = 0; s < nt; ++s) {
        const auto [slo, shi] = rt::block_range(n, nt, s);
        const double* base = &data.raw(slo);
        const std::size_t len_s = shi - slo;
        const std::size_t from =
            tid == 0 ? 0
                     : static_cast<std::size_t>(
                           std::lower_bound(base, base + len_s,
                                            splitters[tid - 1]) -
                           base);
        lo_of[tid][s] = from;
        rt.work_ops(2.0 * std::log2(std::max<double>(2.0, double(len_s))));
      }
      // Bucket size needs the NEXT thread's boundaries too; synchronize,
      // then let thread 0 compute offsets.
      barrier.wait();
      if (tid == 0) {
        for (unsigned b = 0; b < nt; ++b) {
          std::size_t size = 0;
          for (unsigned s = 0; s < nt; ++s) {
            const auto [slo, shi] = rt::block_range(n, nt, s);
            const std::size_t to = (b + 1 < nt) ? lo_of[b + 1][s] : shi - slo;
            size += to - lo_of[b][s];
          }
          bucket_size[b] = size;
        }
        bucket_off[0] = 0;
        for (unsigned b = 1; b < nt; ++b) {
          bucket_off[b] = bucket_off[b - 1] + bucket_size[b - 1];
        }
        rt.work_ops(static_cast<double>(nt) * nt);
      }
      barrier.wait();

      // Phase 3b: gather my bucket (reads from every slice, writes to my
      // contiguous scratch range -- the one all-to-all movement).
      std::size_t out = bucket_off[tid];
      for (unsigned s = 0; s < nt; ++s) {
        const auto [slo, shi] = rt::block_range(n, nt, s);
        const std::size_t from = lo_of[tid][s];
        const std::size_t to = (tid + 1 < nt) ? lo_of[tid + 1][s] : shi - slo;
        if (to > from) {
          std::copy(&data.raw(slo + from), &data.raw(slo + to),
                    &scratch.raw(out));
          data.touch_range(slo + from, to - from, false);
          scratch.touch_range(out, to - from, true);
          rt.work_ops(static_cast<double>(to - from));
          out += to - from;
        }
      }

      // Phase 4: sort my bucket and copy it home.
      const std::size_t blo = bucket_off[tid];
      const std::size_t bhi = blo + bucket_size[tid];
      std::sort(&scratch.raw(blo), &scratch.raw(bhi));
      const auto blen = static_cast<double>(bhi - blo);
      const double bcmp = blen * std::log2(std::max(2.0, blen));
      rt.work_flops(bcmp);
      rt.work_ops(3.0 * bcmp);
      scratch.touch_range(blo, bhi - blo, false);
      scratch.touch_range(blo, bhi - blo, true);
      comparisons += static_cast<std::uint64_t>(bcmp);
      barrier.wait();

      std::copy(&scratch.raw(blo), &scratch.raw(bhi), &data.raw(blo));
      scratch.touch_range(blo, bhi - blo, false);
      data.touch_range(blo, bhi - blo, true);
      rt.work_ops(blen);
    });
  });
  stats.sim_time = rt.elapsed() - t0;
  stats.comparisons = comparisons;
  return stats;
}

}  // namespace spp::lib
