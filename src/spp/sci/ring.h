// The four unidirectional SCI rings connecting hypernodes (section 2.5).
//
// Ring r joins the r-th functional unit of every hypernode.  A packet from
// node `a` to node `b` traverses the links a->a+1->...->b (mod N); each link
// is a contended Resource and each hop adds fixed latency.  One-node machines
// have rings with zero links and never route packets.
//
// Fault model (spp::fault, docs/FAULTS.md): each link can be killed or
// degraded at runtime.  A packet that reaches a node whose outgoing link on
// its current ring is dead detours through the hypernode crossbar onto the
// lowest-numbered surviving ring and continues there; the detour charges two
// extra ring hops (off-ramp + on-ramp) plus a crossbar crossing, so a
// rerouted packet is always strictly slower than the healthy path.  A
// degraded link multiplies both its hop latency and its occupancy.  With
// every link alive and undegraded, transit() charges exactly the healthy
// hops: no simulated time moves until a fault plan touches a link.
#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "spp/arch/cost_model.h"
#include "spp/arch/perf.h"
#include "spp/arch/topology.h"
#include "spp/sim/resource.h"
#include "spp/sim/time.h"

namespace spp::sci {

class RingFabric {
 public:
  RingFabric(const arch::Topology& topo, const arch::CostModel& cm)
      : topo_(topo), cm_(cm) {
    for (auto& ring : lanes_) ring.resize(topo.nodes);
  }

  /// Mirrors reroute activity into machine-wide counters (optional).
  void set_perf(arch::PerfCounters* perf) { perf_ = perf; }

  // --- fault controls (spp::fault::FaultInjector) ---------------------------
  void set_link_alive(unsigned ring, unsigned node, bool alive) {
    lane_at(ring, node).alive = alive;
  }
  /// Latency/occupancy multiplier for a link running below rate; 1 = healthy.
  void set_link_degrade(unsigned ring, unsigned node, std::uint32_t factor) {
    if (factor == 0) {
      throw std::invalid_argument("sci: degrade factor must be >= 1");
    }
    lane_at(ring, node).degrade = factor;
  }
  bool link_alive(unsigned ring, unsigned node) const {
    return lanes_.at(ring).at(node).alive;
  }

  /// Sends one packet on ring `ring` from node `from` to node `to`, starting
  /// at time `t`.  Returns the arrival time and counts the packet.  Dead
  /// links on the path force a crossbar detour onto a surviving ring;
  /// throws if every ring's link out of some node on the path is dead.
  sim::Time transit(unsigned ring, unsigned from, unsigned to, sim::Time t) {
    const unsigned hops = topo_.ring_hops(from, to);
    unsigned node = from;
    unsigned cur = ring;
    bool rerouted = false;
    for (unsigned h = 0; h < hops; ++h) {
      if (!lanes_[cur][node].alive) {
        cur = surviving_ring(node);
        // Crossbar off-ramp onto the surviving ring's interface and back:
        // two extra hop charges plus the crossbar crossing.
        t += sim::cycles(2u * cm_.ring_hop + cm_.xbar_transit);
        reroute_hops_ += 2;
        if (perf_ != nullptr) perf_->ring_reroute_hops += 2;
        if (!rerouted) {
          rerouted = true;
          ++rerouted_packets_;
          if (perf_ != nullptr) ++perf_->ring_reroutes;
        }
      }
      Lane& lane = lanes_[cur][node];
      t = lane.link.acquire(t, sim::cycles(cm_.ring_link_hold) * lane.degrade);
      t += sim::cycles(cm_.ring_hop) * lane.degrade;
      node = (node + 1) % topo_.nodes;
    }
    ++packets_;
    return t;
  }

  /// Clears every link's contention history and the fabric's local packet
  /// tallies while keeping health state (alive/degrade) intact.  Part of
  /// Machine::power_cycle(): a resumed process must see the same cold
  /// interconnect an epoch boundary left behind, but link health is machine
  /// configuration, not transient state.
  void reset_contention() {
    for (auto& ring : lanes_) {
      for (Lane& lane : ring) lane.link = sim::Resource{};
    }
    packets_ = 0;
    rerouted_packets_ = 0;
    reroute_hops_ = 0;
  }

  std::uint64_t packets() const { return packets_; }
  std::uint64_t rerouted_packets() const { return rerouted_packets_; }
  std::uint64_t reroute_hops() const { return reroute_hops_; }

  /// Total queueing delay accumulated on all links (contention indicator).
  sim::Time total_link_wait() const {
    sim::Time w = 0;
    for (const auto& ring : lanes_) {
      for (const auto& lane : ring) w += lane.link.total_wait();
    }
    return w;
  }

 private:
  /// One unidirectional link: the contended wire plus its health state.
  struct Lane {
    sim::Resource link;
    bool alive = true;
    std::uint32_t degrade = 1;
  };

  Lane& lane_at(unsigned ring, unsigned node) {
    if (ring >= arch::kNumRings || node >= topo_.nodes) {
      throw std::out_of_range("sci: link (" + std::to_string(ring) + ", " +
                              std::to_string(node) + ") out of range");
    }
    return lanes_[ring][node];
  }

  /// Lowest-numbered ring whose link out of `node` is alive.
  unsigned surviving_ring(unsigned node) const {
    for (unsigned r = 0; r < arch::kNumRings; ++r) {
      if (lanes_[r][node].alive) return r;
    }
    throw std::runtime_error("sci: no surviving ring link leaving node " +
                             std::to_string(node) + "; fabric partitioned");
  }

  arch::Topology topo_;
  arch::CostModel cm_;
  /// lanes_[ring][i] = the link leaving node i on that ring.
  std::array<std::vector<Lane>, arch::kNumRings> lanes_;
  arch::PerfCounters* perf_ = nullptr;
  std::uint64_t packets_ = 0;
  std::uint64_t rerouted_packets_ = 0;
  std::uint64_t reroute_hops_ = 0;
};

}  // namespace spp::sci
