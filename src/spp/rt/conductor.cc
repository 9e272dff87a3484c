#include "spp/rt/conductor.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <functional>
#include <set>
#include <stdexcept>

#include "spp/pdes/window.h"
#include "spp/sim/log.h"

namespace spp::rt {

namespace detail {
constinit thread_local SThread* tls_current = nullptr;
}  // namespace detail

namespace {
/// Thrown inside a simulated thread when the conductor tears the simulation
/// down (deadlock, destruction); unwinds the thread's stack cleanly.
struct ShutdownSignal {};

/// Fiber stacks are virtual-memory reservations; only touched pages commit,
/// so a generous size costs nothing and keeps deep app frames safe.
constexpr std::size_t kFiberStackBytes = 1u << 20;
}

const char* to_string(BlockReason::Kind kind) {
  switch (kind) {
    case BlockReason::Kind::kLock: return "lock";
    case BlockReason::Kind::kBarrier: return "barrier";
    case BlockReason::Kind::kSemaphore: return "semaphore";
    case BlockReason::Kind::kJoin: return "join";
    case BlockReason::Kind::kMessage: return "message";
    case BlockReason::Kind::kFusion: return "fusion";
    case BlockReason::Kind::kUnknown: break;
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// SThread
// ---------------------------------------------------------------------------

SThread::SThread(Conductor* c, unsigned tid, unsigned cpu, unsigned node,
                 sim::Time start, std::function<void()> fn)
    : conductor_(c),
      tid_(tid),
      cpu_(cpu),
      node_(node),
      clock_(start),
      fn_(std::move(fn)) {
  fiber_.create(&SThread::fiber_entry, this, kFiberStackBytes);
}

void SThread::rebind_cpu(unsigned cpu) {
  cpu_ = cpu;
  const unsigned n = conductor_->machine_.topo().node_of_cpu(cpu);
  if (n == node_) return;
  // Cross-node migration: move the thread between shards, keeping the
  // engine's per-shard bookkeeping consistent.
  if (state_ == State::kReady) {
    conductor_->ready_by_node_[node_].erase(this);
    node_ = n;
    conductor_->ready_by_node_[n].insert(this);
  } else if (state_ == State::kBlocked &&
             reason_.kind != BlockReason::Kind::kFusion) {
    --conductor_->blocked_by_node_[node_];
    node_ = n;
    ++conductor_->blocked_by_node_[n];
  } else {
    node_ = n;
  }
}

void SThread::fiber_entry(void* self) {
  static_cast<SThread*>(self)->fiber_body();
}

void SThread::fiber_body() {
  Fiber::on_entry(conductor_->main_ctx_);
  try {
    fn_();
  } catch (const ShutdownSignal&) {
    // Conductor-initiated teardown: exit quietly.
  } catch (...) {
    // A simulated thread must never unwind off its fiber; park the
    // exception so the conductor can rethrow it to Conductor::run's caller.
    error_ = std::current_exception();
  }
  state_ = State::kDone;
  Fiber::exit_to(fiber_, conductor_->main_ctx_);
}

void SThread::hand_back(State next_state) {
  state_ = next_state;
  Fiber::switch_to(fiber_, conductor_->main_ctx_);
  // Resumed by run_once (which already marked us Running) or by
  // shutdown_all (unwind).
  if (fiber_shutdown_) throw ShutdownSignal{};
}

void SThread::run_once() {
  state_ = State::kRunning;
  started_ = true;
  detail::tls_current = this;
  Fiber::switch_to(conductor_->main_ctx_, fiber_);
  detail::tls_current = nullptr;
}

// ---------------------------------------------------------------------------
// FusionScope
// ---------------------------------------------------------------------------

FusionScope::FusionScope()
    : me_(Conductor::in_sthread() ? &Conductor::self() : nullptr),
      uncaught_at_entry_(std::uncaught_exceptions()) {
  if (me_ != nullptr) ++me_->gate_depth_;
}

FusionScope::~FusionScope() {
  if (me_ == nullptr) return;
  if (--me_->gate_depth_ == 0 && me_->fusing_ &&
      std::uncaught_exceptions() == uncaught_at_entry_) {
    // Outermost gated operation finished during fusion: leave the
    // rendezvous now instead of running unrelated work serialized.  (Not
    // during unwinding -- a hand-back there would switch stacks with a
    // live exception in flight.)
    me_->fusing_ = false;
    me_->hand_back(SThread::State::kReady);
  }
}

// ---------------------------------------------------------------------------
// Conductor
// ---------------------------------------------------------------------------

Conductor::Conductor(arch::Machine& machine)
    : machine_(machine), nodes_(machine.topo().nodes) {
  owned_.resize(nodes_);
  ready_by_node_.resize(nodes_);
  blocked_by_node_.assign(nodes_, 0);
  next_seq_.assign(nodes_, 0);
  parked_.resize(nodes_);
  park_seq_.assign(nodes_, 0);
  node_errors_.assign(nodes_, nullptr);
}

Conductor::~Conductor() { shutdown_all(); }

void Conductor::shutdown_all() {
  if (total_blocked() > 0 && !diagnosed_) {
    // Tear-down with threads still blocked and nobody has explained why yet
    // (e.g. an exception unwound past the scheduling loop): emit the same
    // wait-for report the deadlock path throws, then shut down.
    diagnosed_ = true;
    ++machine_.perf().deadlock_reports;
    sim::logf(sim::LogLevel::kWarn, "conductor shutdown with blocked threads\n%s",
              blocked_report().c_str());
  }
  for (auto& shard : owned_) {
    for (auto& t : shard) {
      if (t->state_ == SThread::State::kDone) continue;
      t->fiber_shutdown_ = true;
      if (t->started_) {
        // Resume the fiber so hand_back throws ShutdownSignal and the
        // stack unwinds; fiber_body marks Done and exits back here.
        detail::tls_current = t.get();
        Fiber::switch_to(main_ctx_, t->fiber_);
        detail::tls_current = nullptr;
      } else {
        // Never entered: no frames to unwind, just retire it.
        t->state_ = SThread::State::kDone;
      }
    }
  }
}

void Conductor::run(std::function<void()> main_fn, unsigned cpu,
                    sim::Time start) {
  if (running_) throw std::logic_error("Conductor::run is not reentrant");
  running_ = true;
  diagnosed_ = false;
  if (engine_active()) {
    lookahead_ = pdes::lookahead_window(machine_.cost());
    machine_.set_gate(this);
  }
  spawn(std::move(main_fn), cpu, start);
  try {
    if (engine_active()) {
      engine_loop();
    } else {
      loop();
    }
  } catch (...) {
    shutdown_all();
    cleanup_run();
    throw;
  }
  cleanup_run();
}

void Conductor::cleanup_run() {
  if (machine_.gate() == this) machine_.set_gate(nullptr);
  for (auto& shard : owned_) shard.clear();
  for (auto& r : ready_by_node_) r.clear();
  std::fill(blocked_by_node_.begin(), blocked_by_node_.end(), 0);
  std::fill(next_seq_.begin(), next_seq_.end(), 0u);
  std::fill(park_seq_.begin(), park_seq_.end(), std::uint64_t{0});
  for (auto& q : parked_) q.clear();
  std::fill(node_errors_.begin(), node_errors_.end(), nullptr);
  fusion_order_.clear();
  in_phase_ = false;
  horizon_ = 0;
  lookahead_ = 0;
  running_ = false;
}

SThread* Conductor::spawn(std::function<void()> fn, unsigned cpu,
                          sim::Time start) {
  if (cpu >= machine_.topo().num_cpus()) {
    throw std::out_of_range("spawn: cpu out of range");
  }
  const unsigned node = machine_.topo().node_of_cpu(cpu);
  const unsigned tid = node + nodes_ * next_seq_[node]++;
  std::unique_ptr<SThread> t(
      new SThread(this, tid, cpu, node, start, std::move(fn)));
  SThread* raw = t.get();
  owned_[node].push_back(std::move(t));
  ready_by_node_[node].insert(raw);
  return raw;
}

SThread* Conductor::thread_by_tid(unsigned tid) const {
  const unsigned node = tid % nodes_;
  const std::size_t seq = tid / nodes_;
  if (node >= owned_.size() || seq >= owned_[node].size()) return nullptr;
  return owned_[node][seq].get();
}

std::size_t Conductor::total_blocked() const {
  std::size_t sum = 0;
  for (const std::size_t b : blocked_by_node_) sum += b;
  return sum;
}

void Conductor::loop() {
  ReadySet& ready = ready_by_node_[0];
  while (!ready.empty()) {
    SThread* t = *ready.begin();
    ready.erase(ready.begin());
    t->run_once();
    bump_progress();
    switch (t->state()) {
      case SThread::State::kReady:
        ready.insert(t);
        break;
      case SThread::State::kBlocked:
        ++blocked_by_node_[0];
        break;
      case SThread::State::kDone:
        if (t->error_) {
          // The thread died on an application exception: the simulation
          // cannot meaningfully continue.  run() shuts the rest down and
          // rethrows to its caller.
          std::rethrow_exception(t->error_);
        }
        break;
      case SThread::State::kRunning:
        throw std::logic_error("thread handed back while Running");
    }
  }
  if (blocked_by_node_[0] != 0) {
    // Every live thread is blocked: diagnose instead of wedging.  A wait-for
    // cycle is a true deadlock; its absence means someone forgot to deliver
    // a wakeup (the classic lost-wakeup bug).
    diagnosed_ = true;
    arch::PerfCounters& perf = machine_.perf();
    ++perf.deadlock_reports;
    for (const auto& t : owned_[0]) {
      if (t->state() == SThread::State::kBlocked &&
          !find_cycle(*t).empty()) {
        ++perf.deadlock_cycles;
        break;
      }
    }
    throw DeadlockError("simulated deadlock: all live threads are blocked\n" +
                        blocked_report());
  }
}

// ---------------------------------------------------------------------------
// Multi-node phase/fusion schedule
// ---------------------------------------------------------------------------

void Conductor::engine_loop() {
  while (true) {
    // Horizon: globally earliest runnable clock plus the lookahead window.
    // Computed at a rendezvous, so it is a pure function of simulated state.
    sim::Time min_clock = ~sim::Time{0};
    bool any_ready = false;
    for (unsigned n = 0; n < nodes_; ++n) {
      if (ready_by_node_[n].empty()) continue;
      any_ready = true;
      const sim::Time c = (*ready_by_node_[n].begin())->clock();
      if (c < min_clock) min_clock = c;
    }
    if (!any_ready) break;
    horizon_ = min_clock + lookahead_;
    in_phase_ = true;
    for (unsigned n = 0; n < nodes_; ++n) drain_node(n);
    in_phase_ = false;
    propagate_node_errors();
    fuse();
  }
  if (total_blocked() != 0) {
    diagnosed_ = true;
    arch::PerfCounters& perf = machine_.perf();
    ++perf.deadlock_reports;
    bool cycle_found = false;
    for (unsigned n = 0; n < nodes_ && !cycle_found; ++n) {
      for (const auto& t : owned_[n]) {
        if (t->state() == SThread::State::kBlocked &&
            !find_cycle(*t).empty()) {
          cycle_found = true;
          break;
        }
      }
    }
    if (cycle_found) ++perf.deadlock_cycles;
    throw DeadlockError("simulated deadlock: all live threads are blocked\n" +
                        blocked_report());
  }
}

void Conductor::drain_node(unsigned n) try {
  ReadySet& ready = ready_by_node_[n];
  while (!ready.empty() && (*ready.begin())->clock() <= horizon_) {
    SThread* t = *ready.begin();
    ready.erase(ready.begin());
    t->run_once();
    bump_progress();
    switch (t->state()) {
      case SThread::State::kReady:
        // t->node_ (not n): a fault-migrated thread rejoins its new shard.
        ready_by_node_[t->node_].insert(t);
        break;
      case SThread::State::kBlocked:
        if (t->reason_.kind != BlockReason::Kind::kFusion) {
          ++blocked_by_node_[t->node_];
        }
        // kFusion: parked on the shard's event list; fusion owns it now.
        break;
      case SThread::State::kDone:
        if (t->error_) {
          // Record and end this shard's phase; engine_loop propagates the
          // lowest-numbered shard's error after the rendezvous.
          node_errors_[n] = t->error_;
          return;
        }
        break;
      case SThread::State::kRunning:
        throw std::logic_error("thread handed back while Running");
    }
  }
} catch (...) {
  node_errors_[n] = std::current_exception();
}

void Conductor::fuse() {
  fusion_order_.clear();
  for (std::vector<Parked>& q : parked_) {
    fusion_order_.insert(fusion_order_.end(), q.begin(), q.end());
    q.clear();
  }
  std::sort(fusion_order_.begin(), fusion_order_.end(),
            [](const Parked& a, const Parked& b) { return a.key < b.key; });
  for (const Parked& ev : fusion_order_) {
    SThread* t = ev.thread;
    t->fusing_ = true;
    t->run_once();
    bump_progress();
    switch (t->state()) {
      case SThread::State::kReady:
        ready_by_node_[t->node_].insert(t);
        break;
      case SThread::State::kBlocked:
        ++blocked_by_node_[t->node_];
        break;
      case SThread::State::kDone:
        if (t->error_) propagate_thread_error(t->error_);
        break;
      case SThread::State::kRunning:
        throw std::logic_error("thread handed back while Running");
    }
  }
  fusion_order_.clear();
}

void Conductor::propagate_node_errors() {
  for (unsigned n = 0; n < nodes_; ++n) {
    if (!node_errors_[n]) continue;
    const std::exception_ptr err = node_errors_[n];
    std::fill(node_errors_.begin(), node_errors_.end(), nullptr);
    propagate_thread_error(err);
  }
}

void Conductor::propagate_thread_error(std::exception_ptr err) {
  try {
    std::rethrow_exception(err);
  } catch (const DeadlockError&) {
    // Deadlocks diagnosed inside a phase count here, once, on the way out.
    if (!diagnosed_) {
      diagnosed_ = true;
      arch::PerfCounters& perf = machine_.perf();
      ++perf.deadlock_reports;
      ++perf.deadlock_cycles;
    }
    throw;
  }
}

void Conductor::defer_cross() {
  if (!in_phase_ || detail::tls_current == nullptr) return;
  SThread& me = *detail::tls_current;
  if (me.fusing_) return;  // already serialized at the rendezvous.
  const unsigned n = me.node_;
  parked_[n].push_back({pdes::EventKey{me.clock_, n, park_seq_[n]++}, &me});
  me.reason_ = BlockReason{BlockReason::Kind::kFusion, nullptr,
                           "cross-shard gate", {}};
  me.hand_back(SThread::State::kBlocked);
  // Resumed at the fusion point, fusing_ set: the caller now executes the
  // deferred operation inline, serialized.
  me.reason_ = BlockReason{};
}

void Conductor::yield(sim::Time slack) {
  SThread& me = self();
  me.last_yield_ = me.clock_;
  if (me.fusing_) {
    if (me.gate_depth_ == 0) {
      // Natural end of this thread's fusion: rejoin the shard's ready set
      // for the next phase.
      me.fusing_ = false;
      me.hand_back(SThread::State::kReady);
    }
    // Inside a gated operation: stay serialized, no reschedule.
    return;
  }
  if (in_phase_ && me.clock_ > horizon_) {
    // Past the phase horizon: hand back so the shard's phase can end.
    me.hand_back(SThread::State::kReady);
    return;
  }
  ReadySet& ready = ready_by_node_[me.node_];
  // Fast path: nobody ready is earlier than us (within the slack), so a
  // handoff would resume us immediately anyway.
  if (ready.empty() || (*ready.begin())->clock() + slack > me.clock() ||
      ((*ready.begin())->clock() + slack == me.clock() &&
       (*ready.begin())->tid() > me.tid())) {
    return;
  }
  me.hand_back(SThread::State::kReady);
}

void Conductor::block(BlockReason reason) {
  SThread& me = self();
  me.reason_ = std::move(reason);
  if (!me.reason_.waits_for.empty()) {
    // The caller names who must unblock it: check for a wait-for cycle NOW,
    // while the rest of the machine may still be runnable, and surface the
    // deadlock in the offending thread instead of letting it wedge.
    const std::vector<unsigned> cycle = find_cycle(me);
    if (!cycle.empty()) {
      std::string msg = "simulated deadlock: wait-for cycle";
      for (const unsigned tid : cycle) msg += " t" + std::to_string(tid) + " ->";
      msg += " t" + std::to_string(me.tid()) + "\n" + blocked_report();
      me.reason_ = BlockReason{};
      if (!engine_active()) {
        diagnosed_ = true;
        arch::PerfCounters& perf = machine_.perf();
        ++perf.deadlock_reports;
        ++perf.deadlock_cycles;
      }
      // Engine runs count the diagnosis once where the thread's error
      // propagates (propagate_thread_error).
      throw DeadlockError(msg);
    }
  }
  me.fusing_ = false;  // a real block ends any fusion.
  me.hand_back(SThread::State::kBlocked);
  me.reason_ = BlockReason{};
}

void Conductor::unblock(SThread* t, sim::Time at) {
  assert(t->state() == SThread::State::kBlocked);
  t->clock_ = std::max(t->clock_, at);
  t->state_ = SThread::State::kReady;
  ready_by_node_[t->node_].insert(t);
  --blocked_by_node_[t->node_];
}

sim::Time Conductor::min_other_ready_clock() const {
  sim::Time best = ~sim::Time{0};
  for (const ReadySet& ready : ready_by_node_) {
    if (!ready.empty() && (*ready.begin())->clock() < best) {
      best = (*ready.begin())->clock();
    }
  }
  return best;
}

std::vector<unsigned> Conductor::find_cycle(const SThread& start) const {
  // DFS over waits-for edges.  Only Blocked threads (and `start`, which may
  // be about to block) contribute edges; a Ready/Running target can still
  // make progress, so the path through it is not a deadlock.  Fusion-parked
  // threads are schedulable (the next rendezvous resumes them), so they do
  // not contribute either.
  std::vector<unsigned> path{start.tid()};
  std::set<unsigned> on_path{start.tid()};
  std::function<bool(const SThread&)> dfs = [&](const SThread& t) -> bool {
    for (const unsigned next : t.block_reason().waits_for) {
      const SThread* nt = thread_by_tid(next);
      if (nt == nullptr) continue;
      if (next == start.tid()) return true;  // cycle closes.
      if (nt->state() != SThread::State::kBlocked) continue;
      if (nt->reason_.kind == BlockReason::Kind::kFusion) continue;
      if (!on_path.insert(next).second) continue;  // already on this path.
      path.push_back(next);
      if (dfs(*nt)) return true;
      path.pop_back();
      on_path.erase(next);
    }
    return false;
  };
  if (dfs(start)) return path;
  return {};
}

std::string Conductor::blocked_report() const {
  std::vector<const SThread*> threads;
  for (const auto& shard : owned_) {
    for (const auto& t : shard) threads.push_back(t.get());
  }
  std::sort(threads.begin(), threads.end(),
            [](const SThread* a, const SThread* b) {
              return a->tid() < b->tid();
            });
  std::string out;
  std::vector<unsigned> cycle;
  for (const SThread* t : threads) {
    if (t->state() == SThread::State::kDone) continue;
    const BlockReason& r = t->reason_;
    char line[160];
    std::snprintf(line, sizeof(line), "  t%-3u cpu%-3u %-8s", t->tid(),
                  t->cpu(),
                  t->state() == SThread::State::kBlocked ? "blocked"
                  : t->state() == SThread::State::kReady ? "ready"
                                                         : "running");
    out += line;
    if (t->state() == SThread::State::kBlocked) {
      std::snprintf(line, sizeof(line), " on %s %p", to_string(r.kind), r.obj);
      out += line;
      if (!r.what.empty()) out += " (" + r.what + ")";
      if (!r.waits_for.empty()) {
        out += " waits-for";
        for (const unsigned w : r.waits_for) out += " t" + std::to_string(w);
      }
      if (cycle.empty()) cycle = find_cycle(*t);
    }
    out += "\n";
  }
  if (!cycle.empty()) {
    out += "  wait-for cycle:";
    for (const unsigned tid : cycle) out += " t" + std::to_string(tid) + " ->";
    out += " t" + std::to_string(cycle.front()) + " (deadlock)\n";
  } else {
    out +=
        "  no wait-for cycle: a wakeup was lost (blocked thread whose "
        "unblocker already moved on)\n";
  }
  return out;
}

}  // namespace spp::rt
