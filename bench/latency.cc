// Sections 2.6 and 6 (text): the latency hierarchy of the memory system.
//
//   * cache hit: 1 cycle;
//   * miss to FU-local memory / hypernode memory / global cache buffer:
//     approximately 50-60 cycles;
//   * miss to remote-hypernode memory: about a factor of 8 over
//     hypernode-local (range 4-10 depending on conditions).
//
// Measured with dependent-load probes on the simulated machine (lmbench
// style), plus uncached and atomic operation costs used by the runtime.
#include <cstdio>

#include "bench/harness.h"
#include "spp/arch/machine.h"

namespace spp::bench {
namespace {

using arch::kLineBytes;
using arch::Machine;
using arch::MemClass;
using arch::Topology;

/// Average dependent-load latency over `lines` fresh lines from `cpu`.
/// `now` is the probe clock: it must move forward monotonically so each
/// probe sees quiescent (not stale-busy) resources.
double probe_cycles(Machine& m, sim::Time& now, unsigned cpu, arch::VAddr va,
                    unsigned lines, bool reuse) {
  const sim::Time start = now;
  for (unsigned k = 0; k < lines; ++k) {
    const arch::VAddr a = va + (reuse ? 0 : k * kLineBytes);
    now = m.access(cpu, a, false, now);
  }
  return static_cast<double>(sim::to_cycles(now - start)) / lines;
}

}  // namespace

void latency(Run& run) {
  header("Sections 2.6/6", "Memory latency hierarchy", run);
  const unsigned lines = run.full() ? 4096 : 512;

  Machine m(Topology{.nodes = 4});
  sim::Time now = 1000000;
  auto& vm = m.vm();

  // Lines homed on the probing CPU's own FU: thread-private placement.
  const arch::VAddr fu_local = vm.allocate(
      lines * kLineBytes, MemClass::kThreadPrivate, "probe.fu_local");
  // Lines homed on the probing CPU's hypernode (other FUs included).
  const arch::VAddr node_local = vm.allocate(
      lines * kLineBytes, MemClass::kNearShared, "probe.node", /*home=*/0);
  // Lines homed on a remote hypernode.
  const arch::VAddr remote = vm.allocate(
      lines * kLineBytes, MemClass::kNearShared, "probe.remote", /*home=*/2);

  const double hit = [&] {
    m.access(0, node_local, false, 0);
    return probe_cycles(m, now, 0, node_local, 64, /*reuse=*/true);
  }();
  const double c_fu = probe_cycles(m, now, 0, fu_local, lines, false);
  const double c_node = probe_cycles(m, now, 0, node_local + kLineBytes,
                                     lines - 1, false);
  const double c_remote = probe_cycles(m, now, 0, remote, lines, false);

  // Gcache: a second CPU of node 0 touches the remote lines the first CPU
  // already pulled into node 0's global cache buffer.
  const double c_gcache = probe_cycles(m, now, 2, remote, lines, false);
  run.seal(m, now);

  // Uncached / atomic operations (barrier building blocks).
  Machine m2(Topology{.nodes = 4});
  const arch::VAddr sem_local = m2.vm().allocate(
      kLineBytes, MemClass::kNearShared, "sem.local", 0);
  const arch::VAddr sem_remote = m2.vm().allocate(
      kLineBytes, MemClass::kNearShared, "sem.remote", 2);
  const double unc_local = static_cast<double>(
      sim::to_cycles(m2.access_uncached(0, sem_local, false, 0)));
  const double unc_remote = static_cast<double>(sim::to_cycles(
      m2.access_uncached(0, sem_remote, false, 1000000) - 1000000));
  const double rmw_local = static_cast<double>(
      sim::to_cycles(m2.atomic_rmw(0, sem_local, 2000000) - 2000000));
  const sim::Time m2_end = m2.atomic_rmw(0, sem_remote, 3000000);
  const double rmw_remote =
      static_cast<double>(sim::to_cycles(m2_end - 3000000));
  run.seal(m2, m2_end);

  std::printf("%-34s %10s %10s\n", "operation", "cycles", "paper");
  std::printf("%-34s %10.1f %10s\n", "cache hit", hit, "1");
  std::printf("%-34s %10.1f %10s\n", "miss, FU-local memory", c_fu, "50-60");
  std::printf("%-34s %10.1f %10s\n", "miss, hypernode memory", c_node,
              "50-60");
  std::printf("%-34s %10.1f %10s\n", "miss, global cache buffer", c_gcache,
              "50-60");
  std::printf("%-34s %10.1f %10s\n", "miss, remote hypernode", c_remote,
              "~8x node");
  std::printf("%-34s %10.1f %10s\n", "uncached read, local", unc_local, "-");
  std::printf("%-34s %10.1f %10s\n", "uncached read, remote", unc_remote, "-");
  std::printf("%-34s %10.1f %10s\n", "atomic rmw, local", rmw_local, "-");
  std::printf("%-34s %10.1f %10s\n", "atomic rmw, remote", rmw_remote, "-");

  std::printf("\nderived metrics                    measured   paper\n");
  std::printf("remote / hypernode miss ratio      %8.2f   ~8 (4-10)\n",
              c_remote / c_node);

  run.within("remote / hypernode miss ratio", c_remote / c_node, 4, 10);
}

}  // namespace spp::bench
