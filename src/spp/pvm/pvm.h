// ConvexPVM subset: message passing over simulated shared memory.
//
// The Convex implementation of PVM (section 3.1) departs from network PVM in
// two ways the paper leans on:
//   * ONE daemon for the whole machine (not one per node), used only for
//     control, so data transfers never involve a daemon context switch;
//   * tasks exchange data through a SHARED message buffer pool: the sender
//     packs into a shared-memory buffer, the receiver unpacks straight out of
//     it, eliminating extra copies.
//
// Cost structure (calibrated against Figure 4):
//   send  = pvm_send_sw + pack streaming cost
//   recv  = pvm_recv_sw + unpack streaming cost
//           + pvm_ring_fixed when sender and receiver sit on different
//             hypernodes (buffer pages are remote)
//           + per-page cost beyond 2 pages (8 KB), the page-granular regime
//             change the paper observes for large messages.
// The buffer pool's pages are also charged through the machine at line
// granularity (sampled) so PVM traffic shows up in the hardware counters.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <deque>
#include <stdexcept>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "spp/rt/conductor.h"
#include "spp/rt/runtime.h"
#include "spp/sim/time.h"

namespace spp::fault {
class FaultInjector;
}

namespace spp::pvm {

/// A typed, packed message (the shared buffer's contents).
///
/// Packing assembles the payload in the sender's memory ("building the
/// message", which Figure 4's methodology explicitly excludes).  The real
/// transfer cost is paid when the RECEIVER unpacks: a message obtained from
/// recv() charges genuine machine line reads of the shared-pool buffer --
/// remote misses when the sender sits on another hypernode.  This is the
/// single-copy scheme section 3.1 describes ("a shared memory buffer that
/// the receiving process accesses after the send is complete") and the
/// source of the "prohibitive" packing overheads of section 5.3.2.
class Message {
 public:
  int tag = 0;
  int sender = -1;

  /// Pre-sizes the payload so subsequent pack() calls append without
  /// reallocating.
  void reserve(std::size_t bytes) { payload_.reserve(bytes); }

  template <typename T>
  void pack(const T* data, std::size_t count) {
    const std::size_t bytes = count * sizeof(T);
    if (bytes == 0) return;
    const std::size_t old = payload_.size();
    if (old + bytes > payload_.capacity()) {
      // Grow geometrically: resize() alone is allowed to grow to exactly
      // size+bytes, which turns a pack-per-element loop quadratic.
      payload_.reserve(std::max(old + bytes, old * 2));
    }
    payload_.resize(old + bytes);
    std::memcpy(payload_.data() + old, data, bytes);
  }

  template <typename T>
  void unpack(T* out, std::size_t count) {
    const std::size_t bytes = count * sizeof(T);
    if (cursor_ + bytes > payload_.size()) {
      throw std::out_of_range("pvm: unpack past end of message");
    }
    charge_unpack(bytes);
    // An empty payload's data() may be null, and memcpy from null is
    // undefined even for zero bytes.
    if (bytes != 0) std::memcpy(out, payload_.data() + cursor_, bytes);
    cursor_ += bytes;
  }

  std::size_t size_bytes() const { return payload_.size(); }
  std::size_t remaining() const { return payload_.size() - cursor_; }
  /// Current payload allocation; lets tests assert that pre-sized messages
  /// pack without reallocating.
  std::size_t capacity_bytes() const { return payload_.capacity(); }

 private:
  friend class Pvm;
  /// Charged read of the pool buffer backing [cursor_, cursor_+bytes).
  void charge_unpack(std::size_t bytes);

  std::vector<std::uint8_t> payload_;
  std::size_t cursor_ = 0;
  rt::Runtime* charged_rt_ = nullptr;  ///< set by recv(); null = local build.
  std::uint64_t pool_va_ = 0;          ///< pool address of this payload.
  std::uint64_t seq_ = 0;              ///< global sequence (reliable mode).
  sim::Time visible_at_ = 0;           ///< delayed delivery time, 0 = now.
};

class Pvm;

/// Per-task state: mailbox + identity.  Tasks are simulated threads.
class Task {
 public:
  int tid() const { return tid_; }
  unsigned cpu() const { return cpu_; }

 private:
  friend class Pvm;
  int tid_ = -1;
  unsigned cpu_ = 0;
  std::deque<std::shared_ptr<Message>> mailbox_;
  rt::SThread* waiting_ = nullptr;  ///< blocked in recv, if any.
  int waiting_tag_ = -1;
  int waiting_src_ = -1;
  // Reliable-transport state (only touched when a FaultInjector with message
  // faults is attached; plain runs never allocate into these).
  std::unordered_set<std::uint64_t> delivered_;  ///< seqs seen (dedup).
  std::unordered_map<std::uint64_t, sim::Time> acks_;  ///< seq -> ack time.
};

/// The PVM "virtual machine": spawn, send, recv on the simulated SPP-1000.
///
/// Usage inside a Runtime::run:
///   pvm::Pvm vm(runtime);
///   vm.spawn(8, rt::Placement::kUniform, [&](Pvm& vm, int me, int ntasks) {
///     Message m; m.pack(...);
///     vm.send(me ^ 1, /*tag=*/7, std::move(m));
///     auto r = vm.recv(-1, 7);
///   });
class Pvm {
 public:
  explicit Pvm(rt::Runtime& rt);

  rt::Runtime& runtime() { return *rt_; }

  /// Spawns `n` tasks with the given placement and runs them to completion
  /// (the enrolling "parent" blocks, like pvm_spawn + wait).  Task ids are
  /// 0..n-1.
  void spawn(unsigned n, rt::Placement placement,
             const std::function<void(Pvm&, int, int)>& body);

  /// Sends `m` to task `dst` with `tag`.  Charges the send software path and
  /// the pack/copy streaming costs; never blocks (buffers are plentiful).
  void send(int dst, int tag, Message m);

  /// Receives the next message matching (src, tag); -1 is a wildcard.
  /// Blocks until one arrives.  Charges the receive path.
  Message recv(int src = -1, int tag = -1);

  /// recv with a deadline: spin-polls (charged) for up to `timeout` ns of
  /// simulated time, then throws fault::TimeoutError.  Lets applications
  /// bound their exposure to a lossy or partitioned fabric instead of
  /// blocking forever.
  Message recv_timeout(int src, int tag, sim::Time timeout);

  /// Non-blocking probe: true if a matching message is queued.
  bool probe(int src = -1, int tag = -1) const;

  /// The calling task's id (usable only inside spawn bodies).
  int mytid() const;

  int ntasks() const { return static_cast<int>(tasks_.size()); }

  std::uint64_t messages_sent() const { return messages_sent_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }

  /// Routes message fates (drop/duplicate/delay) through `injector` and turns
  /// on the reliable transport (acks + bounded-backoff retransmission) when
  /// the injector's plan contains message faults.  Pass nullptr to restore
  /// the plain fire-and-forget transport.  The Pvm constructor wires this
  /// automatically when the runtime already carries an attached injector.
  void set_fault(fault::FaultInjector* injector) { fault_ = injector; }

 private:
  struct Match;
  bool matches(const Message& m, int src, int tag) const {
    return (src < 0 || m.sender == src) && (tag < 0 || m.tag == tag);
  }
  /// Transport cost for `bytes` from `src_cpu` to `dst_cpu`, charged to time
  /// `t`; returns delivery time.
  sim::Time transport_cost(std::size_t bytes, unsigned src_cpu,
                           unsigned dst_cpu, sim::Time t, bool sender_side);
  /// Takes the first matching message visible by `visible_by` out of
  /// `task`'s mailbox (discarding transport duplicates), or returns nullptr.
  std::shared_ptr<Message> take_match(Task& task, int src, int tag,
                                      sim::Time visible_by);
  /// Charges the delivery path for a message already removed from the
  /// mailbox and hands it to the application.
  Message deliver(Task& task, std::shared_ptr<Message> msg,
                  rt::SThread& th);

  rt::Runtime* rt_;
  std::vector<std::unique_ptr<Task>> tasks_;
  arch::VAddr pool_va_ = 0;      ///< shared buffer pool (FarShared).
  arch::VAddr mailbox_va_ = 0;   ///< per-task mailbox control lines.
  std::uint64_t pool_bytes_ = 0;
  std::vector<std::uint64_t> pool_cursor_by_task_;
  std::uint64_t messages_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
  fault::FaultInjector* fault_ = nullptr;  ///< optional chaos source.
  std::uint64_t next_seq_ = 1;             ///< reliable-mode sequence counter.
  /// PVM task id per *simulated* thread (indexed by SThread tid), -1 when
  /// that thread is not a task.  Every task is a fiber on one OS thread, so
  /// a thread_local here would be clobbered across scheduling points; the
  /// simulated tid is what tells tasks apart.
  std::vector<int> task_of_sthread_;
  int current_tid() const;
  void set_current_tid(int tid);
};

}  // namespace spp::pvm
