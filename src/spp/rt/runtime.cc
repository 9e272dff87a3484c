#include "spp/rt/runtime.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace spp::rt {

Runtime* Runtime::active_ = nullptr;

struct AsyncGroup::State {
  unsigned remaining = 0;
  SThread* joiner = nullptr;  ///< parent blocked in join(), if any.
  std::vector<sim::Time> finish;
  std::vector<bool> remote;
  std::vector<unsigned> tids;  ///< child tids, for join edges + wait-for graph.
  std::vector<bool> done;      ///< per-child completion, for the wait-for graph.
  sim::Time last_finish = 0;
  bool joined = false;
};

Runtime::Runtime(arch::Topology topo, arch::CostModel cm)
    : machine_(topo, cm), conductor_(machine_) {}

Runtime::~Runtime() {
  if (active_ == this) active_ = prev_active_;
}

Runtime& Runtime::active() {
  assert(active_ != nullptr && "no Runtime::run in progress");
  return *active_;
}

void Runtime::run(const std::function<void()>& fn) {
  prev_active_ = active_;
  active_ = this;
  sim::Time final_clock = end_time_;
  conductor_.run(
      [&] {
        fn();
        final_clock = Conductor::self().clock();
      },
      /*cpu=*/0, /*start=*/end_time_);
  end_time_ = final_clock;
  active_ = prev_active_;
}

void Runtime::apply_faults(SThread& me) {
  fault_hook_->poll(me.clock());
  if (!fault_hook_->cpu_failed(me.cpu())) return;
  // The thread's processor fail-stopped: the OS detects the failure and
  // restarts the thread on a surviving CPU.  Its remaining work migrates
  // with it, and the new CPU's cold L1 charges the refill traffic naturally.
  me.rebind_cpu(surviving_cpu(me.cpu()));
  const sim::Time cost = machine_.cost().cpu_recovery_sw;
  me.advance(cost);
  ++machine_.perf().cpu_recoveries;
  machine_.perf().recovery_ns += cost;
}

unsigned Runtime::surviving_cpu(unsigned cpu) const {
  const unsigned n = machine_.topo().num_cpus();
  for (unsigned k = 1; k <= n; ++k) {
    const unsigned c = (cpu + k) % n;
    if (!fault_hook_->cpu_failed(c)) return c;
  }
  throw std::runtime_error("fault: every CPU has fail-stopped");
}

unsigned Runtime::place_cpu(unsigned i, unsigned n, Placement placement) const {
  const arch::Topology& topo = machine_.topo();
  unsigned cpu;
  switch (placement) {
    case Placement::kHighLocality:
      cpu = i % topo.num_cpus();
      break;
    case Placement::kUniform: {
      // Deal threads across hypernodes round-robin; fill each node's CPUs in
      // order as it receives threads.
      const unsigned node = i % topo.nodes;
      const unsigned slot = (i / topo.nodes) % arch::kCpusPerNode;
      cpu = node * arch::kCpusPerNode + slot;
      break;
    }
    default:
      (void)n;
      throw std::logic_error("bad placement");
  }
  // Never place new threads on a fail-stopped processor.
  if (fault_hook_ != nullptr && fault_hook_->cpu_failed(cpu)) {
    cpu = surviving_cpu(cpu);
  }
  return cpu;
}

std::vector<SThread*> Runtime::spawn_group(
    unsigned n, Placement placement,
    const std::function<void(unsigned, unsigned)>& body, AsyncGroup& out) {
  SThread& parent = Conductor::self();
  // Apply faults due by now so placement below sees the surviving CPU set.
  poll_faults(parent);
  const arch::CostModel& cm = machine_.cost();
  const arch::Topology& topo = machine_.topo();
  const unsigned parent_node = topo.node_of_cpu(parent.cpu());

  auto st = std::make_shared<AsyncGroup::State>();
  st->remaining = n;
  st->finish.resize(n, 0);
  st->remote.resize(n, false);
  st->tids.resize(n, 0);
  st->done.resize(n, false);
  out.state_ = st;

  parent.advance(cm.fork_fixed);
  std::vector<SThread*> kids;
  kids.reserve(n);
  bool engaged_remote = false;
  for (unsigned i = 0; i < n; ++i) {
    const unsigned cpu = place_cpu(i, n, placement);
    const bool remote = topo.node_of_cpu(cpu) != parent_node;
    st->remote[i] = remote;
    if (remote && !engaged_remote) {
      // One-time cost of involving a second hypernode in this fork: the
      // remote node's kernel must set up scheduling state (Figure 2's ~50 us
      // step when threads first spill onto the second hypernode).
      parent.advance(cm.remote_engage);
      engaged_remote = true;
    }
    parent.advance(remote ? cm.thread_create_remote : cm.thread_create_local);

    Conductor* cond = &conductor_;
    kids.push_back(conductor_.spawn(
        [st, body, i, n, cond, this] {
          body(i, n);
          SThread& me = Conductor::self();
          st->finish[i] = me.clock();
          st->done[i] = true;
          st->last_finish = std::max(st->last_finish, me.clock());
          if (--st->remaining == 0 && st->joiner != nullptr) {
            cond->unblock(st->joiner, st->last_finish);
          }
        },
        cpu, parent.clock()));
    st->tids[i] = kids.back()->tid();
    if (sync_observer_ != nullptr) {
      sync_observer_->on_fork(parent.tid(), kids.back()->tid());
    }
  }
  return kids;
}

void Runtime::parallel(unsigned n, Placement placement,
                       const std::function<void(unsigned, unsigned)>& body) {
  AsyncGroup g = spawn_async(n, placement, body);
  join(g);
}

AsyncGroup Runtime::spawn_async(
    unsigned n, Placement placement,
    const std::function<void(unsigned, unsigned)>& body) {
  if (n == 0) throw std::invalid_argument("spawn of zero threads");
  AsyncGroup g;
  spawn_group(n, placement, body, g);
  return g;
}

void Runtime::join(AsyncGroup& group) {
  if (!group.valid()) throw std::invalid_argument("join of invalid group");
  auto st = group.state_;
  if (st->joined) throw std::logic_error("group joined twice");
  st->joined = true;

  SThread& parent = Conductor::self();
  if (st->remaining > 0) {
    st->joiner = &parent;
    BlockReason reason;
    reason.kind = BlockReason::Kind::kJoin;
    reason.obj = st.get();
    reason.what = "join of " + std::to_string(st->tids.size()) + " children";
    for (std::size_t i = 0; i < st->tids.size(); ++i) {
      if (!st->done[i]) reason.waits_for.push_back(st->tids[i]);
    }
    conductor_.block(std::move(reason));
  } else {
    parent.set_clock(std::max(parent.clock(), st->last_finish));
  }
  // Reap each child sequentially (the join half of Figure 2's cost).
  const arch::CostModel& cm = machine_.cost();
  for (std::size_t i = 0; i < st->finish.size(); ++i) {
    parent.advance(st->remote[i] ? cm.thread_reap_remote
                                 : cm.thread_reap_local);
  }
  if (sync_observer_ != nullptr) {
    for (const unsigned child : st->tids) {
      sync_observer_->on_join(parent.tid(), child);
    }
  }
}

}  // namespace spp::rt
