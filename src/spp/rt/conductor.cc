#include "spp/rt/conductor.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <set>
#include <stdexcept>

#include "spp/pdes/window.h"
#include "spp/rt/sharded.h"
#include "spp/sim/log.h"

#ifndef __has_feature
#define __has_feature(x) 0
#endif

namespace spp::rt {

namespace detail {
constinit thread_local SThread* tls_current = nullptr;
}  // namespace detail

namespace {
/// The host context the current OS thread resumes fibers from: the
/// conductor's main_ctx_ on the coordinator (sequential loop, fusion,
/// teardown) or a worker's own slot during phases (rt/sharded.cc).  A fiber
/// always hands back to whoever resumed it, so reads go through this
/// thread-local, never through a fixed member.
thread_local Fiber* g_host_ctx = nullptr;

/// Which padded progress slot the current OS thread bumps: workers use
/// their worker index, everyone else the coordinator slot (the last one).
thread_local unsigned g_progress_slot = arch::kMaxNodes;

/// Thrown inside a simulated thread when the conductor tears the simulation
/// down (deadlock, destruction); unwinds the thread's stack cleanly.
struct ShutdownSignal {};

/// Fiber stacks are virtual-memory reservations; only touched pages commit,
/// so a generous size costs nothing and keeps deep app frames safe.
constexpr std::size_t kFiberStackBytes = 1u << 20;
}

bool fibers_available() {
#if defined(__SANITIZE_THREAD__) || __has_feature(thread_sanitizer)
  return false;
#else
  return Fiber::supported();
#endif
}

ConductorBackend default_conductor_backend() {
  static const ConductorBackend backend = [] {
    // Read once, before any watchdog or conductor thread exists, and only
    // ever from this static initializer -- no concurrent setenv can race it.
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    if (const char* env = std::getenv("SPP_CONDUCTOR")) {
      if (std::strcmp(env, "threads") == 0) return ConductorBackend::kThreads;
      if (std::strcmp(env, "fibers") == 0) {
        return fibers_available() ? ConductorBackend::kFibers
                                  : ConductorBackend::kThreads;
      }
      // kPdes works with either stack carrier, so it is valid even where
      // fibers are not (tsan): stacks fall back to OS threads while the
      // engine and its shard workers run unchanged.
      if (std::strcmp(env, "pdes") == 0) return ConductorBackend::kPdes;
    }
    if (!fibers_available()) return ConductorBackend::kThreads;
#if defined(SPP_FIBERS) && SPP_FIBERS
    return ConductorBackend::kFibers;
#else
    return ConductorBackend::kThreads;
#endif
  }();
  return backend;
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
  if (conductor_->use_fibers_) {
    fiber_.create(&SThread::fiber_entry, this, kFiberStackBytes);
  } else {
    os_ = std::thread([this] { os_body(); });
  }
}

void SThread::rebind_cpu(unsigned cpu) {
  cpu_ = cpu;
  const unsigned n = conductor_->machine_.topo().node_of_cpu(cpu);
  if (n == node_) return;
  // Cross-node migration: move the thread between shards, keeping the
  // engine's per-shard bookkeeping consistent.  (Migration only happens
  // under fault policies, which force single-worker phases, so no other
  // shard's worker can be touching these structures.)
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
  Fiber::on_entry(*g_host_ctx);
  try {
    fn_();
  } catch (const ShutdownSignal&) {
    // Conductor-initiated teardown: exit quietly.
  } catch (...) {
    // Park the exception so the conductor can rethrow it to
    // Conductor::run's caller (same contract as os_body).
    error_ = std::current_exception();
  }
  state_ = State::kDone;
  Fiber::exit_to(fiber_, *g_host_ctx);
}

void SThread::os_body() {
  // Wait for the first grant before touching anything.
  {
    HostLock lk(mu_);
    while (!may_run_ && !shutdown_) cv_.wait(mu_);
    if (shutdown_) {
      state_ = State::kDone;
      return;
    }
    may_run_ = false;
  }
  detail::tls_current = this;
  try {
    fn_();
  } catch (const ShutdownSignal&) {
    // Conductor-initiated teardown: exit quietly.
  } catch (...) {
    // A simulated thread must never unwind into the OS thread shim; park the
    // exception so the conductor can rethrow it to Conductor::run's caller.
    error_ = std::current_exception();
  }
  detail::tls_current = nullptr;
  // Final hand-back: mark done; conductor joins us later.
  HostLock lk(mu_);
  state_ = State::kDone;
  handed_back_ = true;
  cv_.notify_all();
}

void SThread::hand_back(State next_state) {
  if (conductor_->use_fibers_) {
    state_ = next_state;
    Fiber::switch_to(fiber_, *g_host_ctx);
    // Resumed by run_once (which already marked us Running) or by
    // shutdown_all (unwind).
    if (fiber_shutdown_) throw ShutdownSignal{};
    return;
  }
  bool unwind = false;
  {
    HostLock lk(mu_);
    state_ = next_state;
    handed_back_ = true;
    cv_.notify_all();
    while (!may_run_ && !shutdown_) cv_.wait(mu_);
    if (shutdown_) {
      unwind = true;
    } else {
      may_run_ = false;
      state_ = State::kRunning;
    }
  }
  if (unwind) throw ShutdownSignal{};
}

void SThread::run_once() {
  if (conductor_->use_fibers_) {
    state_ = State::kRunning;
    started_ = true;
    detail::tls_current = this;
    Fiber::switch_to(*g_host_ctx, fiber_);
    detail::tls_current = nullptr;
    return;
  }
  HostLock lk(mu_);
  state_ = State::kRunning;
  may_run_ = true;
  cv_.notify_all();
  while (!handed_back_) cv_.wait(mu_);
  handed_back_ = false;
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

Conductor::Conductor(arch::Machine& machine, ConductorBackend backend)
    : machine_(machine),
      backend_(backend == ConductorBackend::kFibers && !fibers_available()
                   ? ConductorBackend::kThreads
                   : backend),
      use_fibers_(backend_ != ConductorBackend::kThreads &&
                  fibers_available()),
      nodes_(machine.topo().nodes) {
  owned_.resize(nodes_);
  ready_by_node_.resize(nodes_);
  blocked_by_node_.assign(nodes_, 0);
  next_seq_.assign(nodes_, 0);
  parked_.resize(nodes_);
  park_seq_.assign(nodes_, 0);
  node_errors_.assign(nodes_, nullptr);
  requested_workers_ = nodes_;
  // Read in the constructor (before any conductor-owned thread exists); the
  // same single-threaded-read argument as SPP_CONDUCTOR above.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  if (const char* env = std::getenv("SPP_SHARDS")) {
    const long v = std::atol(env);
    if (v > 0) requested_workers_ = static_cast<unsigned>(v);
  }
}

Conductor::~Conductor() {
  sharded_.reset();
  shutdown_all();
}

void Conductor::set_workers(unsigned w) {
  requested_workers_ = w == 0 ? 1 : w;
}

void Conductor::do_bump_progress() {
  progress_slots_[g_progress_slot].count.fetch_add(1,
                                                   std::memory_order_relaxed);
}

void Conductor::shutdown_all() {
  if (total_blocked() > 0 && !diagnosed_.load(std::memory_order_relaxed)) {
    // Tear-down with threads still blocked and nobody has explained why yet
    // (e.g. an exception unwound past the scheduling loop): emit the same
    // wait-for report the deadlock path throws, then shut down.
    diagnosed_.store(true, std::memory_order_relaxed);
    ++machine_.perf().deadlock_reports;
    sim::logf(sim::LogLevel::kWarn, "conductor shutdown with blocked threads\n%s",
              blocked_report().c_str());
  }
  // Unwind from the coordinator's context regardless of which worker last
  // resumed a fiber; fibers always return to the current resumer.
  g_host_ctx = &main_ctx_;
  for (auto& shard : owned_) {
    for (auto& t : shard) {
      if (use_fibers_) {
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
        continue;
      }
      {
        HostLock lk(t->mu_);
        t->shutdown_ = true;
        t->cv_.notify_all();
      }
      if (t->os_.joinable()) t->os_.join();
    }
  }
}

void Conductor::run(std::function<void()> main_fn, unsigned cpu,
                    sim::Time start) {
  if (running_) throw std::logic_error("Conductor::run is not reentrant");
  running_ = true;
  diagnosed_.store(false, std::memory_order_relaxed);
  g_host_ctx = &main_ctx_;
  g_progress_slot = kProgressSlots - 1;
  workers_eff_ = 1;
  if (engine_active()) {
    // Only kPdes fans phases out over workers, and only when no observation
    // hook is attached (hooks may legally reach across shards without
    // gating).  The schedule is identical either way.
    if (backend_ == ConductorBackend::kPdes && !serial_override_ &&
        machine_.observer() == nullptr) {
      workers_eff_ = std::min(requested_workers_, nodes_);
    }
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
    sharded_.reset();
    shutdown_all();
    cleanup_run();
    throw;
  }
  sharded_.reset();
  // Join and release finished threads so repeated run() calls stay clean.
  for (auto& shard : owned_) {
    for (auto& t : shard) {
      if (t->os_.joinable()) t->os_.join();
    }
  }
  cleanup_run();
}

void Conductor::cleanup_run() {
  if (machine_.gate() == this) machine_.set_gate(nullptr);
  // Shard-slot counters accumulated behind the gate fold into the global
  // PerfCounters exactly once per run, at this serialized point.
  machine_.fold_shard_counters();
  for (auto& shard : owned_) shard.clear();
  for (auto& r : ready_by_node_) r.clear();
  std::fill(blocked_by_node_.begin(), blocked_by_node_.end(), 0);
  std::fill(next_seq_.begin(), next_seq_.end(), 0u);
  std::fill(park_seq_.begin(), park_seq_.end(), std::uint64_t{0});
  for (auto& q : parked_) {
    Parked e;
    while (q.pop(e)) {
    }
  }
  std::fill(node_errors_.begin(), node_errors_.end(), nullptr);
  fusion_order_.clear();
  live_.store(0, std::memory_order_relaxed);
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
  live_.fetch_add(1, std::memory_order_relaxed);
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
        live_.fetch_sub(1, std::memory_order_relaxed);
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
    diagnosed_.store(true, std::memory_order_relaxed);
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
// Sharded PDES engine
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
    if (workers_eff_ > 1) {
      if (!sharded_) {
        sharded_ = std::make_unique<ShardedConductor>(*this, workers_eff_);
      }
      sharded_->run_phase();
    } else {
      for (unsigned n = 0; n < nodes_; ++n) drain_node(n);
    }
    in_phase_ = false;
    propagate_node_errors();
    fuse();
  }
  if (total_blocked() != 0) {
    diagnosed_.store(true, std::memory_order_relaxed);
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
        // kFusion: parked on the shard's event queue; fusion owns it now.
        break;
      case SThread::State::kDone:
        live_.fetch_sub(1, std::memory_order_relaxed);
        if (t->error_) {
          // Record and end this shard's phase; the coordinator propagates
          // the lowest-numbered shard's error after the rendezvous.
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
  Parked e;
  for (unsigned n = 0; n < nodes_; ++n) {
    while (parked_[n].pop(e)) fusion_order_.push_back(e);
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
        live_.fetch_sub(1, std::memory_order_relaxed);
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
    // Deadlocks diagnosed inside a phase defer their counter bumps to this
    // serialized point, so the counts are race-free and identical at any
    // worker count.
    if (!diagnosed_.exchange(true, std::memory_order_relaxed)) {
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
  pdes::SpscQueue<Parked>& q = parked_[n];
  if (q.size() == q.capacity()) {
    // Producer-side growth is safe here: the consumer (the fusion
    // coordinator) only touches the queue between phases.
    q.reserve(q.capacity() * 2 + 8);
  }
  q.push({pdes::EventKey{me.clock_, n, park_seq_[n]++}, &me});
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
    // deadlock in the offending thread instead of letting it wedge.  Inside
    // a multi-worker phase the walk (and report) stay within the caller's
    // shard -- other shards' thread state is live on other workers, and
    // cross-shard waits are only ever established at serialized points, so
    // an in-phase cycle is necessarily same-shard.
    const bool local_only = in_phase_ && workers_eff_ > 1;
    const std::vector<unsigned> cycle = find_cycle(me, local_only);
    if (!cycle.empty()) {
      std::string msg = "simulated deadlock: wait-for cycle";
      for (const unsigned tid : cycle) msg += " t" + std::to_string(tid) + " ->";
      msg += " t" + std::to_string(me.tid()) + "\n" +
             blocked_report(local_only ? static_cast<int>(me.node_) : -1);
      me.reason_ = BlockReason{};
      if (!engine_active()) {
        diagnosed_.store(true, std::memory_order_relaxed);
        arch::PerfCounters& perf = machine_.perf();
        ++perf.deadlock_reports;
        ++perf.deadlock_cycles;
      }
      // Engine runs count the diagnosis once at the serialized propagation
      // point (propagate_thread_error), keeping perf writes race-free.
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

std::vector<unsigned> Conductor::find_cycle(const SThread& start,
                                            bool same_node_only) const {
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
      if (same_node_only && nt->node_ != start.node_) continue;
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

std::string Conductor::blocked_report(int only_node) const {
  std::vector<const SThread*> threads;
  for (unsigned n = 0; n < nodes_; ++n) {
    if (only_node >= 0 && n != static_cast<unsigned>(only_node)) continue;
    for (const auto& t : owned_[n]) threads.push_back(t.get());
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
      if (cycle.empty()) cycle = find_cycle(*t, only_node >= 0);
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

// ---------------------------------------------------------------------------
// ShardedConductor hooks (called from rt/sharded.cc worker threads)
// ---------------------------------------------------------------------------

void ShardedConductor::bind_worker_thread(unsigned worker, Fiber* host_ctx) {
  g_progress_slot = worker;
  g_host_ctx = host_ctx;
}

}  // namespace spp::rt
