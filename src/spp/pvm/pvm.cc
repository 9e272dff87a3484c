#include "spp/pvm/pvm.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "spp/arch/address.h"
#include "spp/fault/fault.h"

namespace spp::pvm {

int Pvm::current_tid() const {
  if (!rt::Conductor::in_sthread()) return -1;
  const std::size_t s = rt::Conductor::self().tid();
  if (s >= task_of_sthread_.size()) return -1;
  return task_of_sthread_[s];
}

void Pvm::set_current_tid(int tid) {
  const std::size_t s = rt::Conductor::self().tid();
  if (s >= task_of_sthread_.size()) task_of_sthread_.resize(s + 1, -1);
  task_of_sthread_[s] = tid;
}

void Message::charge_unpack(std::size_t bytes) {
  if (charged_rt_ == nullptr || bytes == 0) return;
  charged_rt_->read(pool_va_ + cursor_, bytes);
}

Pvm::Pvm(rt::Runtime& rt) : rt_(&rt) {
  // The shared message buffer pool.  Far-shared so any pair of tasks can
  // reach it; 16 MB is effectively inexhaustible for our workloads and the
  // cursor wraps anyway.
  pool_bytes_ = 16ull << 20;
  pool_va_ = rt.alloc(pool_bytes_, arch::MemClass::kFarShared, "pvm.pool");
  mailbox_va_ = rt.alloc(128 * arch::kLineBytes, arch::MemClass::kFarShared,
                         "pvm.mailboxes");
  // Pick up a chaos source if one is already attached to the runtime.
  fault_ = dynamic_cast<fault::FaultInjector*>(rt.fault_hook());
}

int Pvm::mytid() const {
  const int tid = current_tid();
  if (tid < 0) throw std::logic_error("pvm: not inside a task");
  return tid;
}

void Pvm::spawn(unsigned n, rt::Placement placement,
                const std::function<void(Pvm&, int, int)>& body) {
  tasks_.clear();
  pool_cursor_by_task_.assign(n, 0);
  for (unsigned i = 0; i < n; ++i) {
    auto t = std::make_unique<Task>();
    t->tid_ = static_cast<int>(i);
    t->cpu_ = rt_->place_cpu(i, n, placement);
    tasks_.push_back(std::move(t));
  }
  Pvm* self = this;
  rt_->parallel(n, placement, [self, &body](unsigned i, unsigned nt) {
    self->set_current_tid(static_cast<int>(i));
    body(*self, static_cast<int>(i), static_cast<int>(nt));
    self->set_current_tid(-1);
  });
  // Tasks are gone once the fork-join completes.
  tasks_.clear();
}

sim::Time Pvm::transport_cost(std::size_t bytes, unsigned src_cpu,
                              unsigned dst_cpu, sim::Time t,
                              bool sender_side) {
  const arch::CostModel& cm = rt_->cost();
  const auto& topo = rt_->topo();
  const bool cross_node = topo.node_of_cpu(src_cpu) != topo.node_of_cpu(dst_cpu);

  if (sender_side) {
    // Pack: streaming copy into the shared pool (local-rate regardless of
    // destination; the pool page used is the sender's nearest).
    t += static_cast<sim::Time>(static_cast<double>(bytes) *
                                cm.pvm_local_byte_ns);
    return t;
  }
  // Receiver side: copy out of the pool.  Crossing hypernodes pays the SCI
  // transport (fixed engine cost plus per-byte ring streaming); large
  // messages additionally pay a per-page cost beyond 2 pages (8 KB), the
  // regime change Figure 4 shows.
  const double byte_rate = cross_node ? cm.pvm_ring_byte_ns : cm.pvm_local_byte_ns;
  t += static_cast<sim::Time>(static_cast<double>(bytes) * byte_rate);
  if (cross_node) t += cm.pvm_ring_fixed;
  const std::uint64_t pages =
      (bytes + arch::kPageBytes - 1) / arch::kPageBytes;
  if (pages > 2) t += cm.pvm_page_cost * (pages - 2);
  return t;
}

void Pvm::send(int dst, int tag, Message m) {
  if (dst < 0 || dst >= ntasks()) throw std::out_of_range("pvm: bad dst tid");
  const int me = mytid();
  Task& sender = *tasks_[me];
  Task& receiver = *tasks_[dst];
  rt::SThread& th = rt::Conductor::self();
  rt_->conductor().yield();

  const arch::CostModel& cm = rt_->cost();
  // Reliable transport engages only when an injector with message faults is
  // attached; otherwise every charge below is bit-identical to the plain
  // fire-and-forget path.
  const bool reliable = fault_ != nullptr && fault_->reliable_transport();

  auto msg = std::make_shared<Message>(std::move(m));
  msg->tag = tag;
  msg->sender = me;
  msg->seq_ = next_seq_++;
  // Happens-before edge: the sender's history travels with the message
  // (keyed by transport sequence number; retransmissions carry the same
  // edge, so attempt 0 is the publication point).
  if (rt::SyncObserver* obs = rt_->sync_observer()) {
    obs->on_send(msg->seq_, th.tid());
  }

  const arch::VAddr mailbox_line =
      mailbox_va_ + static_cast<arch::VAddr>(dst % 128) * arch::kLineBytes;

  sim::Time timeout = cm.pvm_retry_timeout;
  for (unsigned attempt = 0;; ++attempt) {
    // The full send path is paid on every attempt: a retransmission re-runs
    // the send software, re-packs, and re-writes the mailbox control line.
    th.advance(cm.pvm_send_sw);
    th.set_clock(transport_cost(msg->size_bytes(), sender.cpu_, receiver.cpu_,
                                th.clock(), /*sender_side=*/true));
    // Control traffic: enqueue on the receiver's mailbox line (a genuine
    // coherent write that shows up in the hardware counters).
    th.set_clock(
        rt_->machine().access(th.cpu(), mailbox_line, true, th.clock()));

    if (attempt == 0) {
      // Reserve the payload's home in the shared pool; the sender's own
      // pages are used ("a sending process packs data into a shared memory
      // buffer"), so the receiver's unpack reads remotely when we are on
      // another node.  Per-task pool slices keep senders from aliasing each
      // other's lines.
      const std::uint64_t slice = pool_bytes_ / (tasks_.size() + 1);
      const std::uint64_t need =
          (msg->size_bytes() + arch::kLineBytes - 1) / arch::kLineBytes *
          arch::kLineBytes;
      std::uint64_t& cur = pool_cursor_by_task_[me];
      if (cur + need > slice) cur = 0;
      msg->pool_va_ = pool_va_ + static_cast<std::uint64_t>(me) * slice + cur;
      cur += need;
      ++messages_sent_;
      bytes_sent_ += msg->size_bytes();
    } else {
      arch::PerfCounters& perf = rt_->machine().perf();
      ++perf.pvm_retries;
      perf.pvm_retransmitted_bytes += msg->size_bytes();
    }

    // Chaos decision for this attempt.  A drop loses both the message and
    // its transport-level ack; any delivered attempt acks.
    fault::MessageFate fate;
    if (fault_ != nullptr) fate = fault_->message_fate(th.clock());

    if (fate.kind != fault::MessageFate::Kind::kDrop) {
      msg->visible_at_ = fate.kind == fault::MessageFate::Kind::kDelay
                             ? th.clock() + fate.delay
                             : 0;
      receiver.mailbox_.push_back(msg);
      if (fate.kind == fault::MessageFate::Kind::kDuplicate) {
        // The wire duplicated the transfer: a second, independent copy lands
        // in the mailbox.  recv() dedups it by sequence number.
        receiver.mailbox_.push_back(std::make_shared<Message>(*msg));
      }
      if (reliable) {
        sender.acks_[msg->seq_] = th.clock() + cm.pvm_ack_sw;
      }
      if (receiver.waiting_ != nullptr &&
          matches(*msg, receiver.waiting_src_, receiver.waiting_tag_)) {
        rt::SThread* waiter = receiver.waiting_;
        receiver.waiting_ = nullptr;
        rt_->conductor().unblock(waiter,
                                 std::max(th.clock(), msg->visible_at_));
      }
    }

    if (!reliable) return;  // Fire-and-forget: done after one attempt.

    // Spin for the transport ack (advance + yield, same pattern as the
    // barrier spin loop) until the backed-off deadline.
    const sim::Time deadline = th.clock() + timeout;
    for (;;) {
      auto ack = sender.acks_.find(msg->seq_);
      if (ack != sender.acks_.end() && ack->second <= th.clock()) {
        sender.acks_.erase(ack);
        return;
      }
      if (th.clock() >= deadline) break;
      th.advance(cm.spin_poll_interval);
      rt_->conductor().yield();
    }
    if (attempt >= cm.pvm_max_retries) {
      throw fault::TimeoutError(
          "pvm: send to task " + std::to_string(dst) + " timed out after " +
          std::to_string(cm.pvm_max_retries) + " retransmissions");
    }
    timeout *= cm.pvm_retry_backoff;  // Bounded exponential backoff.
  }
}

std::shared_ptr<Message> Pvm::take_match(Task& task, int src, int tag,
                                         sim::Time visible_by) {
  for (;;) {
    auto it = std::find_if(
        task.mailbox_.begin(), task.mailbox_.end(), [&](const auto& m) {
          return matches(*m, src, tag) && m->visible_at_ <= visible_by;
        });
    if (it == task.mailbox_.end()) return nullptr;
    // Move the shared_ptr out before erasing: a copy here would churn the
    // refcount on every delivered message for nothing.
    std::shared_ptr<Message> msg = std::move(*it);
    task.mailbox_.erase(it);
    if (fault_ != nullptr && fault_->reliable_transport()) {
      // Transport-level duplicate: the payload already reached the task
      // once, so discard silently and keep scanning.
      if (!task.delivered_.insert(msg->seq_).second) continue;
    }
    return msg;
  }
}

Message Pvm::deliver(Task& task, std::shared_ptr<Message> msg,
                     rt::SThread& th) {
  const arch::CostModel& cm = rt_->cost();
  // A delayed message is matched but not yet visible: wait it out.
  if (msg->visible_at_ > th.clock()) th.set_clock(msg->visible_at_);
  // Receive software path runs once the message is available (charging
  // it before blocking would let the wait absorb it).
  th.advance(cm.pvm_recv_sw);
  // Arm payload charging: unpack() reads the sender's pool buffer.
  msg->charged_rt_ = rt_;
  // Read the mailbox control line, then stream the payload out.
  const arch::VAddr mailbox_line =
      mailbox_va_ +
      static_cast<arch::VAddr>(task.tid_ % 128) * arch::kLineBytes;
  th.set_clock(
      rt_->machine().access(th.cpu(), mailbox_line, false, th.clock()));
  th.set_clock(transport_cost(msg->size_bytes(), tasks_[msg->sender]->cpu_,
                              task.cpu_, th.clock(), /*sender_side=*/false));
  // The receiver absorbs the sender's history published at on_send.
  if (rt::SyncObserver* obs = rt_->sync_observer()) {
    obs->on_recv(msg->seq_, th.tid());
  }
  return std::move(*msg);
}

Message Pvm::recv(int src, int tag) {
  const int me = mytid();
  Task& task = *tasks_[me];
  rt::SThread& th = rt::Conductor::self();
  rt_->conductor().yield();

  for (;;) {
    if (std::shared_ptr<Message> msg = take_match(
            task, src, tag, std::numeric_limits<sim::Time>::max())) {
      return deliver(task, std::move(msg), th);
    }
    // Nothing yet: block until a matching send wakes us.
    task.waiting_ = &th;
    task.waiting_src_ = src;
    task.waiting_tag_ = tag;
    rt::BlockReason reason;
    reason.kind = rt::BlockReason::Kind::kMessage;
    reason.obj = this;
    reason.what = "pvm recv(src=" + std::to_string(src) +
                  ", tag=" + std::to_string(tag) + ")";
    rt_->conductor().block(std::move(reason));
  }
}

Message Pvm::recv_timeout(int src, int tag, sim::Time timeout) {
  const int me = mytid();
  Task& task = *tasks_[me];
  rt::SThread& th = rt::Conductor::self();
  rt_->conductor().yield();

  const arch::CostModel& cm = rt_->cost();
  const sim::Time deadline = th.clock() + timeout;
  for (;;) {
    // The deadline is also the visibility cutoff: a delayed message that
    // becomes visible after expiry must not satisfy this receive (it stays
    // queued for a later recv), while one landing exactly AT the deadline
    // is matched here and delivered -- the check below runs only after the
    // match fails, so expiry never races a same-instant arrival.
    if (std::shared_ptr<Message> msg = take_match(task, src, tag, deadline)) {
      return deliver(task, std::move(msg), th);
    }
    if (th.clock() >= deadline) {
      throw fault::TimeoutError("pvm: recv(src=" + std::to_string(src) +
                                ", tag=" + std::to_string(tag) +
                                ") timed out after " +
                                std::to_string(timeout) + " ns");
    }
    // Charged spin-poll: keeps the conductor live (a timed-out receiver
    // must never trip the all-blocked deadlock detector).
    th.advance(cm.spin_poll_interval);
    rt_->conductor().yield();
  }
}

bool Pvm::probe(int src, int tag) const {
  const int me = mytid();
  const Task& task = *tasks_[me];
  return std::any_of(task.mailbox_.begin(), task.mailbox_.end(),
                     [&](const auto& m) { return matches(*m, src, tag); });
}

}  // namespace spp::pvm
