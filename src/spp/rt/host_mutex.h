// Capability-annotated host-mutex wrappers (docs/STATIC_ANALYSIS.md).
//
// libstdc++'s std::mutex carries no clang capability attribute, so
// `-Wthread-safety` cannot see through it; these thin wrappers exist purely
// to make the simulator's few host-level locks statically checkable.  They
// add no state and no indirection beyond the wrapped primitive -- the
// annotations compile away entirely off clang (spp/lib/thread_annotations.h).
//
// Host locks in this codebase are rare by design (exactly one simulated
// thread runs at a time; see conductor.h).  The inventory is one lock: the
// fiber stack pool's free-list mutex (src/spp/rt/fiber.cc).  spp-lint's
// sim-no-host-thread check keeps host primitives -- including these
// wrappers -- out of simulated code.
#pragma once

#include <mutex>

#include "spp/lib/thread_annotations.h"

namespace spp::rt {

/// std::mutex with the clang capability attribute.
class SPP_CAPABILITY("mutex") HostMutex {
 public:
  HostMutex() = default;
  HostMutex(const HostMutex&) = delete;
  HostMutex& operator=(const HostMutex&) = delete;

  void lock() SPP_ACQUIRE() { mu_.lock(); }
  void unlock() SPP_RELEASE() { mu_.unlock(); }
  bool try_lock() SPP_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

/// RAII lock for HostMutex (the std::lock_guard shape, annotated).
class SPP_SCOPED_CAPABILITY HostLock {
 public:
  explicit HostLock(HostMutex& mu) SPP_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~HostLock() SPP_RELEASE() { mu_.unlock(); }

  HostLock(const HostLock&) = delete;
  HostLock& operator=(const HostLock&) = delete;

 private:
  HostMutex& mu_;
};

}  // namespace spp::rt
