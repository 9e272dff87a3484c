#include "spp/lib/pfft.h"

#include <stdexcept>

#include "spp/rt/loops.h"

namespace spp::lib {

ParallelFft3D::ParallelFft3D(rt::Runtime& rt, std::size_t nx, std::size_t ny,
                             std::size_t nz, unsigned nthreads)
    : rt_(rt), nx_(nx), ny_(ny), nz_(nz), nthreads_(nthreads) {
  if (!fft::is_pow2(nx) || !fft::is_pow2(ny) || !fft::is_pow2(nz)) {
    throw std::invalid_argument("ParallelFft3D: dimensions must be powers of 2");
  }
  const std::size_t n = nx * ny * nz;
  const std::uint64_t block =
      (static_cast<std::uint64_t>((n + nthreads - 1) / nthreads) *
           sizeof(Complex) +
       arch::kPageBytes - 1) /
      arch::kPageBytes * arch::kPageBytes;
  grid_ = std::make_unique<rt::GlobalArray<Complex>>(
      rt, n, arch::MemClass::kBlockShared, "pfft.grid", 0, block);
  barrier_ = std::make_unique<rt::Barrier>(rt, nthreads);
}

void ParallelFft3D::pass(unsigned tid, unsigned nthreads, int axis,
                         int sign) {
  Complex* g = &grid_->raw(0);
  if (axis == 0) {
    const auto [qb, qe] = rt::block_range(ny_ * nz_, nthreads, tid);
    for (std::size_t q = qb; q < qe; ++q) {
      fft::transform(g + q * nx_, nx_, 1, sign);
      grid_->touch_range(q * nx_, nx_, false);
      grid_->touch_range(q * nx_, nx_, true);
      rt_.work_flops(fft::flops_1d(nx_));
    }
  } else if (axis == 1) {
    const auto [qb, qe] = rt::block_range(nx_ * nz_, nthreads, tid);
    for (std::size_t q = qb; q < qe; ++q) {
      const std::size_t z = q / nx_, x = q % nx_;
      fft::transform(g + z * ny_ * nx_ + x, ny_,
                     static_cast<std::ptrdiff_t>(nx_), sign);
      for (std::size_t y = 0; y < ny_; ++y) {
        const std::size_t i = (z * ny_ + y) * nx_ + x;
        rt_.read(grid_->vaddr(i), sizeof(Complex));
        rt_.write(grid_->vaddr(i), sizeof(Complex));
      }
      rt_.work_flops(fft::flops_1d(ny_));
    }
  } else {
    const auto [qb, qe] = rt::block_range(nx_ * ny_, nthreads, tid);
    for (std::size_t q = qb; q < qe; ++q) {
      fft::transform(g + q, nz_, static_cast<std::ptrdiff_t>(nx_ * ny_),
                     sign);
      for (std::size_t z = 0; z < nz_; ++z) {
        const std::size_t i = z * nx_ * ny_ + q;
        rt_.read(grid_->vaddr(i), sizeof(Complex));
        rt_.write(grid_->vaddr(i), sizeof(Complex));
      }
      rt_.work_flops(fft::flops_1d(nz_));
    }
  }
  barrier_->wait();
}

void ParallelFft3D::transform(unsigned tid, unsigned nthreads, int sign) {
  pass(tid, nthreads, 0, sign);
  pass(tid, nthreads, 1, sign);
  pass(tid, nthreads, 2, sign);
  if (sign > 0) {
    const std::size_t n = size();
    const auto [cb, ce] = rt::block_range(n, nthreads, tid);
    const double inv = 1.0 / static_cast<double>(n);
    for (std::size_t c = cb; c < ce; ++c) grid_->raw(c) *= inv;
    grid_->touch_range(cb, ce - cb, false);
    grid_->touch_range(cb, ce - cb, true);
    rt_.work_flops(static_cast<double>(ce - cb) * 2);
    barrier_->wait();
  }
}

}  // namespace spp::lib
