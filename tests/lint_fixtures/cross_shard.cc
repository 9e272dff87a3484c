// Seeded violations for the cross-shard-event-queue check: code outside the
// multi-node engine (src/spp/pdes/, src/spp/rt/) reaching shard-owned
// machine state directly.  Under the phase/fusion schedule a phase only
// touches its own hypernode's directory maps and gcaches; the only
// sanctioned way to reach another shard is to park at arch::CrossGate, so
// the effect replays in fusion order.
// spp-lint-fixture: as-path src/spp/pvm/bad_cross_shard.cc
// spp-lint-fixture: expect cross-shard-event-queue

#include <cstdint>

namespace spp {

struct HomeEntry {
  std::uint8_t cpu_sharers = 0;
};

struct Machine {
  HomeEntry& home_entry(std::uint64_t line);
  void set_gate(void* gate) { (void)gate; }
  void access(std::uint64_t va) { (void)va; }
};

Machine& machine();

void bad_sites() {
  // flagged: mutating another shard's home directory entry mid-phase
  // instead of parking at the fusion rendezvous.
  machine().home_entry(0x40).cpu_sharers = 0;
  // flagged: detaching the gate from outside the engine.
  machine().set_gate(nullptr);
}

void ok_patterns() {
  // Charged accessors are the sanctioned way in: the machine's own gate
  // parks the caller if the access would leave its shard.
  machine().access(0x80);
}

}  // namespace spp
