#include "spp/rt/sync.h"

#include <stdexcept>
#include <string>

namespace spp::rt {

// ---------------------------------------------------------------------------
// Barrier
// ---------------------------------------------------------------------------

Barrier::Barrier(Runtime& rt, unsigned parties, unsigned home_node)
    : rt_(&rt), parties_(parties) {
  if (parties == 0) throw std::invalid_argument("barrier of zero parties");
  // Two separate lines so semaphore traffic never aliases the flag's line.
  sem_va_ = rt.alloc(arch::kLineBytes, arch::MemClass::kNearShared,
                     "barrier.sem", home_node);
  flag_va_ = rt.alloc(arch::kLineBytes, arch::MemClass::kNearShared,
                      "barrier.flag", home_node);
}

void Barrier::reset(unsigned parties) {
  if (count_ != 0 || !waiters_.empty()) {
    throw std::logic_error("barrier reset while in use");
  }
  if (parties == 0) throw std::invalid_argument("barrier of zero parties");
  parties_ = parties;
}

void Barrier::wait() {
  Runtime& rt = *rt_;
  Conductor& cond = rt.conductor();
  arch::Machine& m = rt.machine();
  SThread& me = Conductor::self();
  const arch::CostModel& cm = rt.cost();

  // Establish simulated-time arrival order among participants.
  cond.yield();

  // Arrival: software path + uncached atomic decrement of the semaphore.
  me.advance(cm.barrier_arrive_sw);
  me.set_clock(m.atomic_rmw(me.cpu(), sem_va_, me.clock()));

  // Vector-clock edge: every arrival publishes its history into the barrier.
  SyncObserver* obs = rt.sync_observer();
  if (obs != nullptr) obs->on_release(this, me.tid());

  if (++count_ < parties_) {
    // Cache the release flag's line, then spin (modeled as a block; the
    // refetch after invalidation is charged on wakeup below).
    me.set_clock(m.access(me.cpu(), flag_va_, false, me.clock()));
    waiters_.push_back(&me);
    BlockReason reason;
    reason.kind = BlockReason::Kind::kBarrier;
    reason.obj = this;
    reason.what = std::to_string(count_) + "/" + std::to_string(parties_) +
                  " arrived";
    cond.block(std::move(reason));
    // Woken by the releaser at the release point: the spin loop notices the
    // invalidation on its next poll and refetches the flag line, missing and
    // serializing at the flag's home (this is the LILO slope of Figure 3).
    me.advance(cm.spin_poll_interval);
    me.set_clock(m.access(me.cpu(), flag_va_, false, me.clock()));
    // Departure absorbs every arrival's published history.
    if (obs != nullptr) obs->on_acquire(this, me.tid());
    return;
  }

  // Last arrival: release.  The write to the (universally cached) flag line
  // invalidates every waiter's copy -- local directory invalidations and a
  // sequential SCI purge of remote sharer nodes, all charged inside access().
  count_ = 0;
  me.set_clock(m.access(me.cpu(), flag_va_, true, me.clock()));
  last_release_ = me.clock();
  if (obs != nullptr) obs->on_acquire(this, me.tid());

  // Wake the waiters; the first continues almost immediately, each further
  // one costs a slice of runtime wakeup software (Figure 3's LILO slope).
  sim::Time t = last_release_;
  bool first = true;
  for (SThread* w : waiters_) {
    t += first ? cm.barrier_release_first : cm.barrier_release_sw;
    first = false;
    cond.unblock(w, t);
  }
  waiters_.clear();
}

// ---------------------------------------------------------------------------
// Lock
// ---------------------------------------------------------------------------

Lock::Lock(Runtime& rt, unsigned home_node) : rt_(&rt) {
  va_ = rt.alloc(arch::kLineBytes, arch::MemClass::kNearShared, "lock",
                 home_node);
}

void Lock::acquire() {
  Runtime& rt = *rt_;
  Conductor& cond = rt.conductor();
  SThread& me = Conductor::self();
  SyncObserver* obs = rt.sync_observer();

  cond.yield();
  me.set_clock(rt.machine().atomic_rmw(me.cpu(), va_, me.clock()));
  if (!held_) {
    held_ = true;
    holder_ = me.tid();
    if (obs != nullptr) obs->on_acquire(this, me.tid());
    return;
  }
  queue_.push_back(&me);
  BlockReason reason;
  reason.kind = BlockReason::Kind::kLock;
  reason.obj = this;
  reason.what = "held by t" + std::to_string(holder_);
  reason.waits_for.push_back(holder_);
  cond.block(std::move(reason));
  // Handoff: the releaser set our clock past its release; re-acquire the
  // lock word (another uncached rmw round trip).
  me.set_clock(rt.machine().atomic_rmw(me.cpu(), va_, me.clock()));
  if (obs != nullptr) obs->on_acquire(this, me.tid());
}

void Lock::release() {
  Runtime& rt = *rt_;
  SThread& me = Conductor::self();
  if (!held_) throw std::logic_error("release of unheld lock");
  SyncObserver* obs = rt.sync_observer();
  if (obs != nullptr) obs->on_release(this, me.tid());

  me.set_clock(rt.machine().access_uncached(me.cpu(), va_, true, me.clock()));
  if (queue_.empty()) {
    held_ = false;
    return;
  }
  SThread* next = queue_.front();
  queue_.pop_front();
  holder_ = next->tid();
  rt.conductor().unblock(next, me.clock());
  // The remaining queued waiters now wait for the new holder.
  for (SThread* w : queue_) {
    rt.conductor().retarget_block(w, {holder_},
                                  "held by t" + std::to_string(holder_));
  }
}

// ---------------------------------------------------------------------------
// Semaphore
// ---------------------------------------------------------------------------

Semaphore::Semaphore(Runtime& rt, unsigned initial, unsigned home_node)
    : rt_(&rt), value_(initial) {
  va_ = rt.alloc(arch::kLineBytes, arch::MemClass::kNearShared, "semaphore",
                 home_node);
}

void Semaphore::p() {
  Runtime& rt = *rt_;
  SThread& me = Conductor::self();
  SyncObserver* obs = rt.sync_observer();
  rt.conductor().yield();
  me.set_clock(rt.machine().atomic_rmw(me.cpu(), va_, me.clock()));
  if (value_ > 0) {
    --value_;
    if (obs != nullptr) obs->on_acquire(this, me.tid());
    return;
  }
  queue_.push_back(&me);
  BlockReason reason;
  reason.kind = BlockReason::Kind::kSemaphore;
  reason.obj = this;
  reason.what = "p() with value 0";
  rt.conductor().block(std::move(reason));
  if (obs != nullptr) obs->on_acquire(this, me.tid());
}

void Semaphore::v() {
  Runtime& rt = *rt_;
  SThread& me = Conductor::self();
  SyncObserver* obs = rt.sync_observer();
  if (obs != nullptr) obs->on_release(this, me.tid());
  me.set_clock(rt.machine().atomic_rmw(me.cpu(), va_, me.clock()));
  if (!queue_.empty()) {
    SThread* next = queue_.front();
    queue_.pop_front();
    rt.conductor().unblock(next, me.clock());
    return;
  }
  ++value_;
}

}  // namespace spp::rt
