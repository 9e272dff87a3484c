// Host time by simulator layer, measured from outside the program.
//
// On the traced pass the Tracer is both the machine's arch::MemObserver and
// the runtime's rt::SyncObserver.  Attaching a sync observer forces PDES
// phases onto one worker, so transactions arrive in one global order, and
// turns memoization off.  Observed transactions are buffered in fixed-size
// chunks, never the whole stream.  Each chunk is replayed call by call --
// through the public Machine::access, access_uncached and atomic_rmw, with
// the observed cpu, address, direction and start time -- into a shadow
// arch::Machine of the same topology and cost model.  The shadow sees the
// primary's exact call sequence, so every replayed completion time must
// equal the observed one; a difference is a replay mismatch.
//
// Replay host time is split three ways: L1-hit-class calls (the arch hit
// path), other cached calls (directory, gcache, SCI ring) and
// uncached/atomic calls.  The clock is read only where the class changes.
// The same walk without machine calls is timed first and subtracted, which
// removes the cost of walking the buffer and of the clock reads.
#pragma once

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "perfbench.h"
#include "spp/arch/machine.h"
#include "spp/rt/observer.h"

namespace perfbench {

/// Nested host-time spans kept in memory (workload > case > setup | run >
/// replay chunk), written out at exit in Chrome trace-event JSON.
class Spans {
 public:
  /// Opens a span inside the innermost open one.
  void open(std::string name);
  /// Closes the innermost open span.
  void close();
  /// Closes spans until `depth` remain open.
  void close_to(std::size_t depth);
  std::size_t depth() const { return open_.size(); }
  void write(std::ostream& out) const;

 private:
  struct Span {
    std::string name;
    int parent = -1;
    Clock::time_point start;
    Clock::time_point end;
  };
  std::vector<Span> spans_;
  std::vector<int> open_;
  Clock::time_point origin_ = Clock::now();
};

/// The classes replay host time is split into.
enum CallClass { kHitCall, kMissCall, kSyncCall, kCallClasses };

class Tracer final : public arch::MemObserver, public rt::SyncObserver {
 public:
  struct Totals {
    std::uint64_t calls[kCallClasses] = {};
    /// Replay walk minus the dry walk, per class.
    double replay_ns[kCallClasses] = {};
    /// VMem::translate walk minus a plain walk.
    double translate_ns = 0;
    std::uint64_t mismatches = 0;
    std::uint64_t forks = 0;
    std::uint64_t sync_ops = 0;  ///< acquires + releases.
    std::uint64_t data_calls = 0;
    std::uint64_t sends = 0;
    std::uint64_t recvs = 0;
  };

  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Starts tracing `rt` against a fresh, cold shadow machine.
  void attach(rt::Runtime& rt);
  /// Replays what is buffered and stops tracing.
  void detach();
  /// Drops the buffer and the shadow without touching the runtime: the
  /// case threw, and its runtime is gone.
  void abandon();

  Spans& spans() { return spans_; }
  const Totals& totals() const { return totals_; }

  void on_access(const arch::MemEvent& ev) override;
  void on_fork(unsigned, unsigned) override { ++totals_.forks; }
  void on_join(unsigned, unsigned) override {}
  void on_acquire(const void*, unsigned) override { ++totals_.sync_ops; }
  void on_release(const void*, unsigned) override { ++totals_.sync_ops; }
  void on_send(std::uint64_t, unsigned) override { ++totals_.sends; }
  void on_recv(std::uint64_t, unsigned) override { ++totals_.recvs; }
  void on_data_access(unsigned, unsigned, arch::VAddr, std::uint64_t,
                      bool) override {
    ++totals_.data_calls;
  }

 private:
  enum Op : std::uint8_t { kCachedHit, kCachedMiss, kUncached, kAtomic };
  /// One observed transaction, as it is replayed.
  struct Txn {
    arch::VAddr va;
    sim::Time start;
    sim::Time end;
    std::uint32_t cpu;
    Op op;
    bool write;
  };

  static CallClass class_of(Op op) {
    return op == kCachedHit    ? kHitCall
           : op == kCachedMiss ? kMissCall
                               : kSyncCall;
  }
  sim::Time replay(const Txn& t);
  void flush();
  void sync_regions();
  template <bool kReplay>
  void walk(double ns[kCallClasses]);

  rt::Runtime* rt_ = nullptr;
  std::unique_ptr<arch::Machine> shadow_;
  std::vector<Txn> chunk_;
  Totals totals_;
  Spans spans_;
  std::uint64_t sink_ = 0;  ///< keeps the baseline walks from being elided.
};

}  // namespace perfbench
