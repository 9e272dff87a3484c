// Stackful user-level fibers: the carrier of every simulated thread
// (docs/PERFORMANCE.md).
//
// A Fiber is one saved execution context: either a context slot for the host
// OS thread (default-constructed, no stack of its own) or a created fiber
// owning an mmap'd stack with a guard page.  Switching is a hand-rolled
// callee-saved register save/restore on x86-64 and aarch64 -- tens of
// nanoseconds, no syscall -- with a ucontext fallback elsewhere on unix; any
// other target fails to build.  Exactly one fiber per host thread runs at a
// time; the conductor switches between its own context and one simulated
// thread's fiber, never fiber-to-fiber.
//
// Sanitizer support: under AddressSanitizer every switch is annotated with
// __sanitizer_start_switch_fiber/__sanitizer_finish_switch_fiber so asan
// tracks the active stack.  Under ThreadSanitizer each created fiber gets a
// tsan context (__tsan_create_fiber/__tsan_destroy_fiber) and every switch
// calls __tsan_switch_to_fiber, which also orders the two sides, so tsan
// checks the simulator on the same carrier it ships with.
//
// C++ exception state: the itanium ABI keeps the caught-exception stack in
// TLS per OS thread.  Fibers on one host thread share that TLS, so a fiber
// suspending inside a catch block would corrupt another fiber's handler
// chain; switch_to() therefore swaps the __cxa_eh_globals block in and out
// per fiber (the same discipline folly::fibers and boost.context use).
#pragma once

#include <cstddef>
#include <cstdint>

namespace spp::rt {

class Fiber {
 public:
  /// A host-context slot: no stack, filled in when a created fiber first
  /// switches away from it.
  Fiber() = default;
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Allocates a stack and prepares the context so the first switch_to()
  /// into this fiber calls entry(arg) on it.  entry must not return; it
  /// ends the fiber with exit_to().
  void create(void (*entry)(void*), void* arg, std::size_t stack_bytes);

  bool created() const { return stack_ != nullptr; }

  /// Suspends `from` (the currently running context) and resumes `to`.
  /// Returns when something later switches back into `from`.
  static void switch_to(Fiber& from, Fiber& to);

  /// Final switch out of a dying fiber: like switch_to but tells asan the
  /// fiber's stack is going away.  Never returns.
  [[noreturn]] static void exit_to(Fiber& dying, Fiber& to);

  /// Must be the first call on a newly entered fiber (from its entry
  /// function): completes the asan switch protocol and captures the host
  /// context's stack bounds into `host` for later switches back.
  static void on_entry(Fiber& host);

 private:
  void* sp_ = nullptr;           ///< saved stack pointer (asm switches).
  void* uctx_ = nullptr;         ///< ucontext_t* (ucontext fallback).
  void* stack_ = nullptr;        ///< mmap base (guard page first), if owned.
  std::size_t map_bytes_ = 0;    ///< total mmap length including guard.
  void* stack_bottom_ = nullptr; ///< usable stack low address (asan bounds).
  std::size_t stack_size_ = 0;   ///< usable stack length (asan bounds).
  void* fake_stack_ = nullptr;   ///< asan fake-stack save slot.
  void* tsan_fiber_ = nullptr;   ///< tsan context (a host slot: its thread's).
  /// Saved __cxa_eh_globals (caught-exception chain) while suspended.
  unsigned char eh_state_[2 * sizeof(void*)] = {};
};

}  // namespace spp::rt
