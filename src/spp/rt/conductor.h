// The conductor: a deterministic sequencer for simulated threads.
//
// EXACTLY ONE simulated thread (SThread) runs at any moment: the conductor
// always resumes the ready thread with the smallest (local clock, thread
// id), on every topology.  Application code is therefore race-free and
// bit-reproducible; parallelism exists only in simulated time, where each
// thread carries its own clock and contended hardware is modeled by
// spp::sim::Resource busy-until queues (DESIGN.md section 5.1).  Thread ids
// are numbered in spawn order, which is itself a pure function of simulated
// state, so every simulated observable (PerfCounters::digest included) is
// bit-identical from run to run.
//
// An SThread advances its clock locally (compute charges, memory access
// latencies) and returns control to the conductor at scheduling points:
// yield() (cheap reschedule), block() (wait for another thread to unblock
// it), or completion.
//
// Every SThread runs on a stackful user-level fiber (spp/rt/fiber.h) on the
// conductor's own host thread: a context switch costs a function call, and
// the conductor only ever switches between its own context and one
// SThread's fiber.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "spp/arch/machine.h"
#include "spp/arch/topology.h"
#include "spp/rt/fiber.h"
#include "spp/sim/time.h"

namespace spp::rt {

class Conductor;
class SThread;

namespace detail {
/// The simulated thread the calling OS thread is currently executing
/// (Conductor::self()).  Exposed here only so self() inlines into the
/// charged-op fast paths; everything else must go through Conductor.
/// constinit tells every includer the variable needs no dynamic
/// initialisation, so accesses read the slot directly instead of going
/// through a TLS wrapper call (whose inlined null check UBSan misreports
/// as a null load under GCC 12).
extern constinit thread_local SThread* tls_current;
}  // namespace detail

/// Only kFibers runs; the other two are names perfbench/ still uses.
enum class ConductorBackend { kThreads, kFibers, kPdes };

/// Simulated deadlock, diagnosed by the conductor's wait-for graph.  The
/// message is the full per-thread blocked-on report (docs/CHECKER.md), so
/// callers see *why* the machine wedged, not just that it did.
class DeadlockError : public std::runtime_error {
 public:
  explicit DeadlockError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Why a thread is blocked: the edge it contributes to the wait-for graph.
/// Sync primitives fill this in when they block; an empty reason (direct
/// Conductor::block() calls) degrades to an "unknown" node in the report.
struct BlockReason {
  enum class Kind {
    kUnknown,
    kLock,
    kBarrier,
    kSemaphore,
    kJoin,
    kMessage,
  };

  Kind kind = Kind::kUnknown;
  const void* obj = nullptr;        ///< the sync object, for the report.
  std::string what;                 ///< human description of the wait.
  std::vector<unsigned> waits_for;  ///< tids that must act to unblock us
                                    ///< (empty = any thread might).
};

const char* to_string(BlockReason::Kind kind);

/// One simulated thread of execution, bound to a simulated CPU.
class SThread {
 public:
  enum class State { kReady, kRunning, kBlocked, kDone };

  unsigned tid() const { return tid_; }
  unsigned cpu() const { return cpu_; }
  sim::Time clock() const { return clock_; }
  State state() const { return state_; }

  /// Advances local time without a scheduling point.
  void advance(sim::Time dt) { clock_ += dt; }
  void set_clock(sim::Time t) { clock_ = t; }

  /// Rebinds the thread to another CPU (fault migration off a fail-stopped
  /// processor).  Subsequent charged accesses use the new CPU's L1, so the
  /// cold-cache cost of the move is modeled, not assumed.
  void rebind_cpu(unsigned cpu) { cpu_ = cpu; }

  /// Why the thread is blocked (meaningful only while Blocked).
  const BlockReason& block_reason() const { return reason_; }

  Conductor& conductor() { return *conductor_; }

 private:
  friend class Conductor;

  SThread(Conductor* c, unsigned tid, unsigned cpu, sim::Time start,
          std::function<void()> fn);

  static void fiber_entry(void* self);
  void fiber_body();
  /// Hands control back to the conductor; returns when resumed.
  void hand_back(State next_state);
  /// Conductor side: resume this thread and wait for the hand-back.
  void run_once();

  Conductor* conductor_;
  unsigned tid_;
  unsigned cpu_;
  sim::Time clock_ = 0;
  sim::Time last_yield_ = 0;  ///< clock at the last yield (quantum_yield).
  State state_ = State::kReady;
  BlockReason reason_;  ///< wait-for edge while Blocked.
  std::function<void()> fn_;

  std::exception_ptr error_;  // exception that escaped fn_, if any

  // Switches always return to the conductor's own host context
  // (Conductor::main_ctx_).
  Fiber fiber_;
  bool started_ = false;  ///< the fiber has been entered at least once.
  bool fiber_shutdown_ = false;  ///< conductor asks the fiber to unwind.
};

/// Owns all simulated threads and runs the scheduling loop.
class Conductor {
 public:
  explicit Conductor(arch::Machine& machine);
  ~Conductor();

  Conductor(const Conductor&) = delete;
  Conductor& operator=(const Conductor&) = delete;

  arch::Machine& machine() { return machine_; }
  /// Always kFibers; kept only because perfbench/ prints it.
  ConductorBackend backend() const { return ConductorBackend::kFibers; }

  /// Runs `main_fn` as simulated thread 0 on `cpu` and drives the scheduling
  /// loop until every simulated thread has finished.  Throws on deadlock.
  /// An exception escaping any simulated thread (e.g. fault::TimeoutError
  /// from an unrecoverable fault plan) tears the simulation down and is
  /// rethrown here.
  void run(std::function<void()> main_fn, unsigned cpu = 0,
           sim::Time start = 0);

  /// The currently running simulated thread (valid only while inside one).
  /// Inline (a single thread-local load) because every charged operation
  /// starts here.
  static SThread& self() {
    assert(detail::tls_current != nullptr && "not inside a simulated thread");
    return *detail::tls_current;
  }
  /// True if called from inside a simulated thread.
  static bool in_sthread() { return detail::tls_current != nullptr; }

  // --- called from inside simulated threads ---------------------------------
  /// Creates a new ready thread.  Returns a stable pointer (owned here).
  /// Thread ids are numbered in spawn order from 0 within each run().
  SThread* spawn(std::function<void()> fn, unsigned cpu, sim::Time start);
  /// Scheduling point: lets an earlier-clocked thread run first.  Cheap
  /// no-op if the caller is still the earliest (within `slack`).  A nonzero
  /// slack trades interleaving fidelity for fewer context switches: the
  /// caller keeps running until it is `slack` ahead of the earliest ready
  /// thread, bounding the resource-order error by `slack` (DESIGN.md
  /// section 5.1).
  void yield(sim::Time slack = 0);
  /// Quantum-based scheduling point used by charged operations: checks every
  /// `quantum` of local progress and hands off with hysteresis, so
  /// concurrent threads interleave at a few-microsecond granularity without
  /// a kernel round trip per memory access.
  void quantum_yield(sim::Time quantum = 400 * sim::kNanosecond) {
    const SThread& me = self();
    if (me.clock_ - me.last_yield_ >= quantum) {
      yield(4 * sim::kMicrosecond);
    }
  }
  /// Blocks the calling thread until some other thread unblock()s it.
  /// `reason` becomes the thread's edge in the wait-for graph; when it names
  /// the threads it waits for, a wait-for cycle is detected HERE, before the
  /// machine wedges, and reported by throwing DeadlockError in the caller.
  void block(BlockReason reason = {});
  /// Makes `t` ready again with clock at least `at`.
  void unblock(SThread* t, sim::Time at);
  /// Rewrites the waits-for edge of a still-Blocked thread.  Lock handoff
  /// uses this: when a lock passes to a queued waiter, the remaining queued
  /// threads now wait for the new holder, and a stale edge to the old holder
  /// would fabricate wait-for cycles that do not exist.
  void retarget_block(SThread* t, std::vector<unsigned> waits_for,
                      std::string what) {
    t->reason_.waits_for = std::move(waits_for);
    t->reason_.what = std::move(what);
  }

  /// Always 1; kept only because perfbench/ reports it.
  unsigned workers() const { return 1; }

  /// Monotonic count of scheduling dispatches.  The only cross-thread-
  /// readable signal the conductor exports: the rt::Watchdog polls it from
  /// its own OS thread to detect a wedged simulation (no dispatches for N
  /// wall-seconds).
  ///
  /// Memory order: relaxed on both sides, deliberately.  The counter is
  /// monotonic and carries no payload -- the watchdog only compares two
  /// reads for *inequality*, never dereferences anything published by the
  /// increment -- so no acquire/release pairing is needed; a stale read
  /// just delays stall detection by at most one 100 ms poll.  Audited under
  /// the tsan CI leg (tests/test_rt.cc, Watchdog.PollsLiveRunWithoutRaces;
  /// docs/STATIC_ANALYSIS.md).
  std::uint64_t progress() const {
    return progress_.load(std::memory_order_relaxed);
  }

  /// Per-thread blocked-on diagnosis of the current wait-for graph: one line
  /// per non-Done thread plus the cycle (deadlock) or its absence (lost
  /// wakeup).  Used verbatim by the all-blocked deadlock throw, the
  /// block-time cycle throw, and the destruction path, so every way a
  /// deadlock surfaces prints the same actionable report.
  std::string blocked_report() const;

 private:
  friend class SThread;

  /// The ready set's order, reversed for std::push_heap/pop_heap (which
  /// keep the greatest element at the front): true when `a` runs after `b`.
  /// Thread ids are unique, so no two ready threads tie.
  struct RunsLater {
    bool operator()(const SThread* a, const SThread* b) const {
      if (a->clock() != b->clock()) return a->clock() > b->clock();
      return a->tid() > b->tid();
    }
  };

  void push_ready(SThread* t) {
    ready_.push_back(t);
    std::push_heap(ready_.begin(), ready_.end(), RunsLater{});
  }
  SThread* pop_ready() {
    std::pop_heap(ready_.begin(), ready_.end(), RunsLater{});
    SThread* t = ready_.back();
    ready_.pop_back();
    return t;
  }

  /// The scheduling loop: runs the earliest ready thread until none is left.
  void loop();
  /// Common post-run teardown (both success and error paths).
  void cleanup_run();
  void bump_progress() { progress_.fetch_add(1, std::memory_order_relaxed); }

  /// Unwinds every started, unfinished thread's fiber and retires the rest
  /// (used on simulated deadlock and at destruction).  If threads are still
  /// blocked and no deadlock diagnosis has been emitted yet, logs the same
  /// wait-for report the deadlock throw would have carried.
  void shutdown_all();

  /// tid -> thread (null if unknown).
  SThread* thread_by_tid(unsigned tid) const {
    return tid < owned_.size() ? owned_[tid].get() : nullptr;
  }

  /// Follows waits-for edges from `start` through blocked threads; returns
  /// the tid cycle (start first) or empty when none is reachable.
  std::vector<unsigned> find_cycle(const SThread& start) const;

  arch::Machine& machine_;

  /// The conductor's own (host-thread) context slot.
  Fiber main_ctx_;

  std::vector<std::unique_ptr<SThread>> owned_;  ///< indexed by tid.
  /// Ready threads as a binary heap on (clock, tid): front() is the thread
  /// that runs next.  Its storage is kept across dispatches, so a dispatch
  /// allocates nothing.
  std::vector<SThread*> ready_;
  std::size_t blocked_ = 0;  ///< threads in State::kBlocked.

  std::atomic<std::uint64_t> progress_{0};  ///< see progress().
  bool running_ = false;
  bool diagnosed_ = false;  ///< a wait-for report was emitted.
};

}  // namespace spp::rt
