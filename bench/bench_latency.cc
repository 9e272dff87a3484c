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

#include "bench/bench_common.h"
#include "spp/arch/machine.h"

namespace {

using namespace spp;
using arch::kLineBytes;
using arch::kPageBytes;
using arch::Machine;
using arch::MemClass;
using arch::Topology;

/// Global probe clock: must move forward monotonically so each probe sees
/// quiescent (not stale-busy) resources.
sim::Time g_now = 1000000;

/// Average dependent-load latency over `lines` fresh lines from `cpu`.
double probe_cycles(Machine& m, unsigned cpu, arch::VAddr va, unsigned lines,
                    bool reuse) {
  const sim::Time start = g_now;
  for (unsigned k = 0; k < lines; ++k) {
    const arch::VAddr a = va + (reuse ? 0 : k * kLineBytes);
    g_now = m.access(cpu, a, false, g_now);
  }
  return static_cast<double>(sim::to_cycles(g_now - start)) / lines;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = spp::bench::Options::parse(argc, argv);
  spp::bench::header("Sections 2.6/6", "Memory latency hierarchy", opts);
  const unsigned lines = opts.full ? 4096 : 512;

  Machine m(Topology{.nodes = 4});
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
    return probe_cycles(m, 0, node_local, 64, /*reuse=*/true);
  }();
  const double c_fu = probe_cycles(m, 0, fu_local, lines, false);
  const double c_node = probe_cycles(m, 0, node_local + kLineBytes, lines - 1,
                                     false);
  const double c_remote = probe_cycles(m, 0, remote, lines, false);

  // Gcache: a second CPU of node 0 touches the remote lines the first CPU
  // already pulled into node 0's global cache buffer.
  const double c_gcache = probe_cycles(m, 2, remote, lines, false);

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
  const double rmw_remote = static_cast<double>(
      sim::to_cycles(m2.atomic_rmw(0, sem_remote, 3000000) - 3000000));

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

  spp::bench::Gate gate;
  gate.within("remote / hypernode miss ratio", c_remote / c_node, 4, 10);
  return gate.exit_code();
}
