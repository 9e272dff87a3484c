// The shared-memory programming model of the SPP-1000 (section 3.2),
// reproduced on the simulated machine: fork-join thread parallelism with
// placement control, compute-work charging, and charged memory access.
//
// Application code runs inside simulated threads under the Conductor and
// talks to the ambient Runtime:
//
//   rt::Runtime runtime({.nodes = 2});
//   runtime.run([&] {
//     runtime.parallel(16, rt::Placement::kUniform, [&](unsigned i, unsigned n) {
//       runtime.work_flops(1000);            // charge compute
//       runtime.write(array.vaddr(i), 8);    // charge memory traffic
//     });
//   });
//   // runtime.elapsed() is the simulated time of the whole program.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "spp/arch/cost_model.h"
#include "spp/arch/machine.h"
#include "spp/arch/topology.h"
#include "spp/arch/vmem.h"
#include "spp/rt/conductor.h"
#include "spp/rt/observer.h"
#include "spp/sim/time.h"

// perfbench/ still reads this enum through Runtime::memo_mode().
namespace spp::memo {
enum class Mode : std::uint8_t { kOff, kOn, kVerify };
}  // namespace spp::memo

namespace spp::rt {

/// Thread placement policies from the paper's section 4 experiments.
enum class Placement {
  /// First 8 threads on hypernode 0, then spill to the next node ("high
  /// locality" in Figures 2-3).
  kHighLocality,
  /// Threads dealt round-robin across hypernodes ("uniform distribution").
  kUniform,
};

/// Hook by which a fault injector (spp::fault) observes charged operations
/// and marks processors fail-stopped.  The runtime polls it at charged
/// scheduling points and migrates threads found on a failed CPU to a
/// surviving one (graceful degradation instead of a hang); a null hook costs
/// one pointer test and changes no simulated timing.
class FaultHook {
 public:
  virtual ~FaultHook() = default;
  /// Applies every fault scheduled at or before `now`.
  virtual void poll(sim::Time now) = 0;
  /// True if `cpu` has fail-stopped.
  virtual bool cpu_failed(unsigned cpu) const = 0;
};

/// Handle for asynchronous thread groups (section 3.2's async threads).
class AsyncGroup {
 public:
  bool valid() const { return state_ != nullptr; }

 private:
  friend class Runtime;
  struct State;
  std::shared_ptr<State> state_;
};

class Runtime {
 public:
  explicit Runtime(arch::Topology topo, arch::CostModel cm = {});
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  arch::Machine& machine() { return machine_; }
  Conductor& conductor() { return conductor_; }
  const arch::CostModel& cost() const { return machine_.cost(); }
  const arch::Topology& topo() const { return machine_.topo(); }

  /// The Runtime currently executing (valid inside run()).
  static Runtime& active();

  /// Runs `fn` as simulated thread 0 on cpu 0 and drives the simulation to
  /// completion.  May be called repeatedly; simulated time continues from the
  /// previous run's end so that consecutive experiments stay ordered.
  void run(const std::function<void()>& fn);

  /// Simulated time at which the last run() finished.
  sim::Time elapsed() const { return end_time_; }

  // --- inside simulated threads ---------------------------------------------
  /// Current simulated time of the calling thread.
  sim::Time now() const { return Conductor::self().clock(); }
  unsigned cpu() const { return Conductor::self().cpu(); }

  /// Charges `n` floating point operations of compute work.
  void work_flops(double n) {
    SThread& me = Conductor::self();
    conductor_.quantum_yield();
    poll_faults(me);
    const sim::Time dt = sim::cycles(machine_.cost().flop_cycles(n));
    me.advance(dt);
    auto& c = machine_.perf().cpu[me.cpu()];
    c.flops += n;
    c.compute += dt;
  }
  /// Charges `n` integer/bookkeeping operations.
  void work_ops(double n) {
    SThread& me = Conductor::self();
    conductor_.quantum_yield();
    poll_faults(me);
    const sim::Time dt = sim::cycles(machine_.cost().intop_cycles(n));
    me.advance(dt);
    machine_.perf().cpu[me.cpu()].compute += dt;
  }
  /// Advances local time by `ns` (fixed software delays).
  void delay(sim::Time ns) { Conductor::self().advance(ns); }

  /// Charged cached memory access at `va` covering `bytes`.
  void read(arch::VAddr va, std::uint64_t bytes = 8) {
    mem(va, bytes, /*is_write=*/false);
  }
  void write(arch::VAddr va, std::uint64_t bytes = 8) {
    mem(va, bytes, /*is_write=*/true);
  }

  /// Allocates simulated memory (no host storage; see GlobalArray for typed
  /// storage-backed allocation).
  arch::VAddr alloc(std::uint64_t bytes, arch::MemClass mem_class,
                    const std::string& label, unsigned home_node = 0,
                    std::uint64_t block_bytes = arch::kPageBytes) {
    return machine_.vm().allocate(bytes, mem_class, label, home_node,
                                  block_bytes);
  }

  /// CPU a thread with index `i` of `n` gets under `placement`.
  unsigned place_cpu(unsigned i, unsigned n, Placement placement) const;

  /// Synchronous fork-join (compiler "spawn" directive): spawns `n` threads,
  /// blocks the caller until all have finished, charges the create/reap
  /// software paths that Figure 2 measures.  `body(i, n)` runs in thread i.
  void parallel(unsigned n, Placement placement,
                const std::function<void(unsigned, unsigned)>& body);

  /// Asynchronous spawn: caller continues immediately (minus create costs).
  AsyncGroup spawn_async(unsigned n, Placement placement,
                         const std::function<void(unsigned, unsigned)>& body);
  /// Blocks until an async group has finished and charges reap costs.
  void join(AsyncGroup& group);

  /// Always kOff; perfbench/ still reads it.
  memo::Mode memo_mode() const { return memo::Mode::kOff; }

  /// Installs (or clears, with nullptr) the fault hook.  The hook must
  /// outlive every run() that executes under it.
  void set_fault_hook(FaultHook* hook) { fault_hook_ = hook; }
  FaultHook* fault_hook() const { return fault_hook_; }

  /// Installs (or clears, with nullptr) the synchronization observer (the
  /// spp::check race detector).  Same contract as the fault hook: must
  /// outlive every run(), costs one pointer test when absent, and never
  /// alters simulated timing or scheduling.
  void set_sync_observer(SyncObserver* obs) { sync_observer_ = obs; }
  SyncObserver* sync_observer() const { return sync_observer_; }

 private:
  /// Applies pending faults and migrates the thread off a failed CPU.  The
  /// hook test is inline, so a run without one makes no call here.
  void poll_faults(SThread& me) {
    if (fault_hook_ != nullptr) apply_faults(me);
  }
  void apply_faults(SThread& me);
  /// Deterministic surviving CPU for a thread found on failed `cpu`.
  unsigned surviving_cpu(unsigned cpu) const;

  /// The charged cached-access body shared by read() and write().  Inline
  /// through Machine::access_block, so an L1 hit makes no call at all.
  void mem(arch::VAddr va, std::uint64_t bytes, bool is_write) {
    SThread& me = Conductor::self();
    conductor_.quantum_yield();
    poll_faults(me);
    me.set_clock(
        machine_.access_block(me.cpu(), va, bytes, is_write, me.clock()));
    if (sync_observer_ != nullptr) {
      sync_observer_->on_data_access(me.tid(), me.cpu(), va, bytes, is_write);
    }
  }

  arch::Machine machine_;
  Conductor conductor_;
  sim::Time end_time_ = 0;
  Runtime* prev_active_ = nullptr;
  FaultHook* fault_hook_ = nullptr;
  SyncObserver* sync_observer_ = nullptr;

  static Runtime* active_;

  std::vector<SThread*> spawn_group(unsigned n, Placement placement,
                                    const std::function<void(unsigned, unsigned)>& body,
                                    AsyncGroup& out);
};

}  // namespace spp::rt
