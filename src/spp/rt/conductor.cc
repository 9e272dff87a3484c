#include "spp/rt/conductor.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <functional>
#include <set>
#include <stdexcept>

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
    case BlockReason::Kind::kUnknown: break;
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// SThread
// ---------------------------------------------------------------------------

SThread::SThread(Conductor* c, unsigned tid, unsigned cpu, sim::Time start,
                 std::function<void()> fn)
    : conductor_(c), tid_(tid), cpu_(cpu), clock_(start), fn_(std::move(fn)) {
  fiber_.create(&SThread::fiber_entry, this, kFiberStackBytes);
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
// Conductor
// ---------------------------------------------------------------------------

Conductor::Conductor(arch::Machine& machine) : machine_(machine) {}

Conductor::~Conductor() { shutdown_all(); }

void Conductor::shutdown_all() {
  if (blocked_ > 0 && !diagnosed_) {
    // Tear-down with threads still blocked and nobody has explained why yet
    // (e.g. an exception unwound past the scheduling loop): emit the same
    // wait-for report the deadlock path throws, then shut down.
    diagnosed_ = true;
    ++machine_.perf().deadlock_reports;
    sim::logf(sim::LogLevel::kWarn, "conductor shutdown with blocked threads\n%s",
              blocked_report().c_str());
  }
  for (auto& t : owned_) {
    if (t->state_ == SThread::State::kDone) continue;
    t->fiber_shutdown_ = true;
    if (t->started_) {
      // Resume the fiber so hand_back throws ShutdownSignal and the stack
      // unwinds; fiber_body marks Done and exits back here.
      detail::tls_current = t.get();
      Fiber::switch_to(main_ctx_, t->fiber_);
      detail::tls_current = nullptr;
    } else {
      // Never entered: no frames to unwind, just retire it.
      t->state_ = SThread::State::kDone;
    }
  }
}

void Conductor::run(std::function<void()> main_fn, unsigned cpu,
                    sim::Time start) {
  if (running_) throw std::logic_error("Conductor::run is not reentrant");
  running_ = true;
  diagnosed_ = false;
  spawn(std::move(main_fn), cpu, start);
  try {
    loop();
  } catch (...) {
    shutdown_all();
    cleanup_run();
    throw;
  }
  cleanup_run();
}

void Conductor::cleanup_run() {
  owned_.clear();
  ready_.clear();
  blocked_ = 0;
  running_ = false;
}

SThread* Conductor::spawn(std::function<void()> fn, unsigned cpu,
                          sim::Time start) {
  if (cpu >= machine_.topo().num_cpus()) {
    throw std::out_of_range("spawn: cpu out of range");
  }
  const auto tid = static_cast<unsigned>(owned_.size());
  std::unique_ptr<SThread> t(
      new SThread(this, tid, cpu, start, std::move(fn)));
  SThread* raw = t.get();
  owned_.push_back(std::move(t));
  push_ready(raw);
  return raw;
}

void Conductor::loop() {
  while (!ready_.empty()) {
    SThread* t = pop_ready();
    t->run_once();
    bump_progress();
    switch (t->state()) {
      case SThread::State::kReady:
        push_ready(t);
        break;
      case SThread::State::kBlocked:
        ++blocked_;
        break;
      case SThread::State::kDone:
        // Live stacks track live threads: the next spawn reuses this one.
        t->fiber_.release();
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
  if (blocked_ != 0) {
    // Every live thread is blocked: diagnose instead of wedging.  A wait-for
    // cycle is a true deadlock; its absence means someone forgot to deliver
    // a wakeup (the classic lost-wakeup bug).
    diagnosed_ = true;
    arch::PerfCounters& perf = machine_.perf();
    ++perf.deadlock_reports;
    for (const auto& t : owned_) {
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

void Conductor::yield(sim::Time slack) {
  SThread& me = self();
  me.last_yield_ = me.clock_;
  // Fast path: nobody ready is earlier than us (within the slack), so a
  // handoff would resume us immediately anyway.
  if (ready_.empty() || ready_.front()->clock() + slack > me.clock() ||
      (ready_.front()->clock() + slack == me.clock() &&
       ready_.front()->tid() > me.tid())) {
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
      diagnosed_ = true;
      arch::PerfCounters& perf = machine_.perf();
      ++perf.deadlock_reports;
      ++perf.deadlock_cycles;
      throw DeadlockError(msg);
    }
  }
  me.hand_back(SThread::State::kBlocked);
  me.reason_ = BlockReason{};
}

void Conductor::unblock(SThread* t, sim::Time at) {
  assert(t->state() == SThread::State::kBlocked);
  t->clock_ = std::max(t->clock_, at);
  t->state_ = SThread::State::kReady;
  push_ready(t);
  --blocked_;
}

std::vector<unsigned> Conductor::find_cycle(const SThread& start) const {
  // DFS over waits-for edges.  Only Blocked threads (and `start`, which may
  // be about to block) contribute edges; a Ready/Running target can still
  // make progress, so the path through it is not a deadlock.
  std::vector<unsigned> path{start.tid()};
  std::set<unsigned> on_path{start.tid()};
  std::function<bool(const SThread&)> dfs = [&](const SThread& t) -> bool {
    for (const unsigned next : t.block_reason().waits_for) {
      const SThread* nt = thread_by_tid(next);
      if (nt == nullptr) continue;
      if (next == start.tid()) return true;  // cycle closes.
      if (nt->state() != SThread::State::kBlocked) continue;
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
  std::string out;
  std::vector<unsigned> cycle;
  for (const auto& owned : owned_) {
    const SThread* t = owned.get();
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
