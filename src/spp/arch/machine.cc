#include "spp/arch/machine.h"

#include <algorithm>
#include <cassert>

namespace spp::arch {

namespace {
constexpr unsigned kKeepNone = 0xFFFFFFFFu;

std::uint8_t bit(unsigned cpu_in_node) {
  return static_cast<std::uint8_t>(1u << cpu_in_node);
}
}  // namespace

Machine::Machine(Topology topo, CostModel cm)
    // Validate before any member sizes itself from a malformed config.
    : topo_((topo.validate(), topo)),
      cm_((cm.validate(), cm)),
      vm_(topo),
      perf_(topo.num_cpus()),
      rings_(topo, cm),
      l1_(topo.num_cpus(), L1Cache(cm.l1_bytes, topo.num_fus())),
      fus_(topo.num_fus()),
      tlb_(topo.num_cpus() * kTlbEntries) {
  rings_.set_perf(&perf_);
  for (auto& fu : fus_) fu.banks.resize(cm_.banks_per_fu);
  gcaches_.reserve(topo_.nodes * kNumRings);
  for (unsigned i = 0; i < topo_.nodes * kNumRings; ++i) {
    gcaches_.emplace_back(cm_.gcache_bytes, topo.num_fus());
  }
  dir_pages_.resize(topo_.num_fus());
}

void Machine::power_cycle() {
  for (L1Cache& l1 : l1_) l1.clear();
  for (sci::GCache& g : gcaches_) g.clear();
  std::fill(dir_slab_.begin(), dir_slab_.end(), HomeEntry{});
  for (FuState& fu : fus_) {
    fu.port.reset();
    fu.dir.reset();
    fu.ring_if.reset();
    for (sim::Resource& bank : fu.banks) bank.reset();
  }
  std::fill(tlb_.begin(), tlb_.end(), TlbEntry{});
  rings_.reset_contention();
}

Machine::HomeEntry& Machine::add_dir_page(LineAddr line) {
  std::vector<std::uint32_t>& pages = dir_pages_[home_fu_of(line_base(line))];
  const std::uint64_t page =
      compact_line(line, topo_.num_fus()) >> kDirPageBits;
  if (page >= pages.size()) pages.resize(page + 1, kNoDirChunk);
  const std::size_t first = dir_slab_.size();
  pages[page] = static_cast<std::uint32_t>(first / kDirPageLines);
  dir_slab_.resize(first + kDirPageLines);
  return dir_slab_[first + (line & (kDirPageLines - 1))];
}

// ---------------------------------------------------------------------------
// Top-level access paths
// ---------------------------------------------------------------------------

PAddr Machine::tlb_fill(unsigned cpu, VAddr va) {
  bool linear = false;
  const PAddr pa = vm_.translate_page(va, cpu, &linear);
  // A page that is not physically linear (a BlockShared block smaller than
  // a page) is translated afresh on every access.
  if (linear) {
    tlb_slot(cpu, va) =
        TlbEntry{.tag = va | (kPageBytes - 1), .delta = pa - va};
  }
  return pa;
}

sim::Time Machine::access_at(unsigned cpu, VAddr va, PAddr pa, bool write,
                             sim::Time now) {
  const LineAddr line = line_of(pa);
  const LineState st = l1_[cpu].state_of(line);

  // Snapshot checker-visible pre-state before the protocol mutates anything
  // (one branch when no observer is attached).
  bool pre_gcache_hit = false;
  if (observer_ != nullptr) {
    const unsigned home_fu = home_fu_of(pa);
    const unsigned my_node = topo_.node_of_cpu(cpu);
    if (topo_.node_of_fu(home_fu) != my_node) {
      pre_gcache_hit =
          gcache_for(my_node, topo_.ring_of_fu(home_fu)).present(line);
    }
  }

  sim::Time done = now;
  if (!l1_hit(cpu, line, write, done)) {
    CpuCounters& c = perf_.cpu[cpu];
    (write ? c.stores : c.loads)++;
    if (st == LineState::kShared) {
      // Write hit on a Shared line: ownership upgrade, no data transfer.
      ++c.upgrades;
      const unsigned home_node = topo_.node_of_fu(home_fu_of(pa));
      done = home_node == topo_.node_of_cpu(cpu)
                 ? local_upgrade(cpu, pa, now)
                 : remote_upgrade(cpu, pa, now);
    } else {
      done = miss_fill(cpu, pa, write, now);
    }
    c.mem_stall += done - now;
  }

  if (observer_ != nullptr) {
    observer_->on_access(MemEvent{.cpu = cpu,
                                  .va = va,
                                  .pa = pa,
                                  .line = line,
                                  .write = write,
                                  .uncached = false,
                                  .atomic = false,
                                  .pre_state = st,
                                  .pre_gcache_hit = pre_gcache_hit,
                                  .start = now,
                                  .end = done});
  }
  return done;
}

sim::Time Machine::access_lines(unsigned cpu, VAddr first, VAddr last,
                                bool write, sim::Time now) {
  for (VAddr a = first; a <= last; a += kLineBytes) {
    now = access(cpu, a, write, now);
  }
  return now;
}

sim::Time Machine::miss_fill(unsigned cpu, PAddr pa, bool write, sim::Time t) {
  // Make room in the direct-mapped set first.
  const LineAddr line = line_of(pa);
  L1Cache::Entry& slot = l1_[cpu].slot(line);
  if (slot.state != LineState::kInvalid && slot.line != line) {
    evict_l1_entry(cpu, slot, t);
  }
  const unsigned home_node = topo_.node_of_fu(home_fu_of(pa));
  return home_node == topo_.node_of_cpu(cpu) ? local_fill(cpu, pa, write, t)
                                             : remote_fill(cpu, pa, write, t);
}

// ---------------------------------------------------------------------------
// Intra-hypernode path (home node == accessor's node)
// ---------------------------------------------------------------------------

sim::Time Machine::local_fill(unsigned cpu, PAddr pa, bool write,
                              sim::Time t) {
  const LineAddr line = line_of(pa);
  const unsigned my_fu = topo_.fu_of_cpu(cpu);
  const unsigned home_fu = home_fu_of(pa);
  const unsigned cpu_in_node = cpu % kCpusPerNode;
  FuState& mf = fus_[my_fu];
  FuState& hf = fus_[home_fu];
  CpuCounters& c = perf_.cpu[cpu];

  // Request crosses the crossbar to the home FU's coherence controller.
  t = mf.port.acquire(t, sim::cycles(cm_.xbar_hold)) +
      sim::cycles(cm_.xbar_transit);
  t = hf.dir.acquire(t, sim::cycles(cm_.dir_hold)) +
      sim::cycles(cm_.dir_latency);

  HomeEntry& e = home_entry(line);

  // Local exclusive/dirty copy in another CPU: cache-to-cache recall.
  if (e.owner_cpu >= 0 && e.owner_cpu != static_cast<int>(cpu)) {
    t += sim::cycles(cm_.cache2cache);
    const unsigned owner = static_cast<unsigned>(e.owner_cpu);
    ++perf_.cpu[owner].invals_received;
    const bool was_dirty =
        l1_[owner].state_of(line) == LineState::kModified;
    if (write) {
      l1_[owner].invalidate(line);
      e.cpu_sharers = 0;
    } else {
      l1_[owner].downgrade(line);
      if (was_dirty) ++perf_.cpu[owner].writebacks;
    }
    e.owner_cpu = -1;
  }

  // Remote node holds the only (dirty) copy: recall it over the ring.
  if (e.remote_dirty) {
    t = recall_remote_dirty(line, e, /*owner_keeps_shared=*/!write, t);
  }

  if (write) {
    t = invalidate_local(line, e, cpu, t);
    if (!e.sci_list.empty()) t = purge_remote(line, e, topo_.nodes, t);
  }

  // Data comes from the home memory bank, replies over the crossbar.
  t = bank_for(pa).acquire(t, sim::cycles(cm_.bank_hold)) +
      sim::cycles(cm_.bank_latency);
  t = hf.port.acquire(t, sim::cycles(cm_.xbar_hold)) +
      sim::cycles(cm_.xbar_transit);
  t += sim::cycles(cm_.l1_fill);

  if (write) {
    e.cpu_sharers = bit(cpu_in_node);
    e.owner_cpu = static_cast<int>(cpu);
    l1_[cpu].install(line, LineState::kModified);
  } else if (e.cpu_sharers == 0 && e.sci_list.empty() && !e.remote_dirty &&
             e.owner_cpu < 0) {
    // Sole copy anywhere: exclusive-clean (a later write upgrades silently).
    e.cpu_sharers = bit(cpu_in_node);
    e.owner_cpu = static_cast<int>(cpu);
    l1_[cpu].install(line, LineState::kExclusive);
  } else {
    e.cpu_sharers |= bit(cpu_in_node);
    l1_[cpu].install(line, LineState::kShared);
  }

  (home_fu == my_fu ? c.miss_fu_local : c.miss_node)++;
  return t;
}

sim::Time Machine::local_upgrade(unsigned cpu, PAddr pa, sim::Time t) {
  const LineAddr line = line_of(pa);
  const unsigned my_fu = topo_.fu_of_cpu(cpu);
  const unsigned home_fu = home_fu_of(pa);
  FuState& hf = fus_[home_fu];

  t = fus_[my_fu].port.acquire(t, sim::cycles(cm_.xbar_hold)) +
      sim::cycles(cm_.xbar_transit);
  t = hf.dir.acquire(t, sim::cycles(cm_.dir_hold)) +
      sim::cycles(cm_.dir_latency);

  HomeEntry& e = home_entry(line);
  t = invalidate_local(line, e, cpu, t);
  if (!e.sci_list.empty()) t = purge_remote(line, e, topo_.nodes, t);

  t += sim::cycles(cm_.xbar_transit);  // grant reply
  e.cpu_sharers = bit(cpu % kCpusPerNode);
  e.owner_cpu = static_cast<int>(cpu);
  l1_[cpu].install(line, LineState::kModified);
  return t;
}

sim::Time Machine::invalidate_local(LineAddr line, HomeEntry& e,
                                    unsigned keep_cpu, sim::Time t) {
  if (e.cpu_sharers == 0) return t;
  const unsigned home_node = topo_.node_of_fu(home_fu_of(line_base(line)));
  const std::uint8_t keep =
      (keep_cpu != kKeepNone && topo_.node_of_cpu(keep_cpu) == home_node)
          ? bit(keep_cpu % kCpusPerNode)
          : 0;
  std::uint8_t victims = e.cpu_sharers & static_cast<std::uint8_t>(~keep);
  for (unsigned k = 0; k < kCpusPerNode; ++k) {
    if (!(victims & bit(k))) continue;
    const unsigned victim_cpu = home_node * kCpusPerNode + k;
    // Test-only planted bug: the invalidation message is lost, leaving the
    // victim's stale copy behind while the directory believes it is gone.
    if (!mutation_.skip_local_invalidate) l1_[victim_cpu].invalidate(line);
    ++perf_.cpu[victim_cpu].invals_received;
    ++perf_.invals_sent;
    t += sim::cycles(cm_.inval_local);
  }
  e.cpu_sharers &= keep;
  return t;
}

// ---------------------------------------------------------------------------
// Inter-hypernode (SCI) path
// ---------------------------------------------------------------------------

sim::Time Machine::remote_fill(unsigned cpu, PAddr pa, bool write,
                               sim::Time t) {
  const LineAddr line = line_of(pa);
  const unsigned my_node = topo_.node_of_cpu(cpu);
  const unsigned my_fu = topo_.fu_of_cpu(cpu);
  const unsigned home_fu = home_fu_of(pa);
  const unsigned home_node = topo_.node_of_fu(home_fu);
  const unsigned ring = topo_.ring_of_fu(home_fu);
  const unsigned cpu_in_node = cpu % kCpusPerNode;
  CpuCounters& c = perf_.cpu[cpu];
  sci::GCache& gc = gcache_for(my_node, ring);
  sci::GCache::Entry& ge = gc.slot(line);
  FuState& ring_fu = fus_[topo_.fu_id(my_node, ring)];

  // --- Global cache buffer hit: serviced entirely within the hypernode. ----
  if (ge.line == line && (!write || ge.dirty)) {
    t = fus_[my_fu].port.acquire(t, sim::cycles(cm_.xbar_hold)) +
        sim::cycles(cm_.xbar_transit);
    t = ring_fu.dir.acquire(t, sim::cycles(cm_.dir_hold)) +
        sim::cycles(cm_.gcache_tag);
    // The buffer lives in the ring FU's memory.
    t = ring_fu.banks[line % cm_.banks_per_fu].acquire(
            t, sim::cycles(cm_.bank_hold)) +
        sim::cycles(cm_.bank_latency);
    if (write) {
      // Invalidate other local copies backed by this entry.
      for (unsigned k = 0; k < kCpusPerNode; ++k) {
        if (k == cpu_in_node || !(ge.cpu_sharers & bit(k))) continue;
        const unsigned victim = my_node * kCpusPerNode + k;
        l1_[victim].invalidate(line);
        ++perf_.cpu[victim].invals_received;
        ++perf_.invals_sent;
        t += sim::cycles(cm_.inval_local);
      }
      ge.cpu_sharers = bit(cpu_in_node);
      l1_[cpu].install(line, LineState::kModified);
    } else {
      if (ge.dirty) {
        // A sibling CPU may hold the line Modified/Exclusive; pull the data
        // back into the buffer and downgrade it (intra-node cache-to-cache).
        for (unsigned k = 0; k < kCpusPerNode; ++k) {
          if (!(ge.cpu_sharers & bit(k))) continue;
          const unsigned sib = my_node * kCpusPerNode + k;
          const LineState sst = l1_[sib].state_of(line);
          if (sst == LineState::kModified || sst == LineState::kExclusive) {
            l1_[sib].downgrade(line);
            if (sst == LineState::kModified) ++perf_.cpu[sib].writebacks;
            t += sim::cycles(cm_.cache2cache);
          }
        }
      }
      ge.cpu_sharers |= bit(cpu_in_node);
      l1_[cpu].install(line, LineState::kShared);
    }
    t += sim::cycles(cm_.xbar_transit + cm_.l1_fill);
    ++c.miss_gcache;
    return t;
  }

  // --- Write to a clean shared gcache copy: upgrade through home. ----------
  if (ge.line == line && write && !ge.dirty) {
    return remote_upgrade(cpu, pa, t);
  }

  // --- Full SCI fetch. ------------------------------------------------------
  if (ge.line != sci::GCache::kNoLine) {
    evict_gcache_entry(my_node, ring, ge, t);
  }

  t = fus_[my_fu].port.acquire(t, sim::cycles(cm_.xbar_hold)) +
      sim::cycles(cm_.xbar_transit);
  t = ring_fu.ring_if.acquire(t, sim::cycles(cm_.ring_link_hold)) +
      sim::cycles(cm_.ring_if);
  t = rings_.transit(ring, my_node, home_node, t);

  FuState& hf = fus_[home_fu];
  t = hf.dir.acquire(t, sim::cycles(cm_.dir_hold)) +
      sim::cycles(cm_.sci_home_service);

  HomeEntry& e = home_entry(line);

  // Exclusive/dirty at home node's L1s: pull it down to memory first.
  if (e.owner_cpu >= 0) {
    const unsigned owner = static_cast<unsigned>(e.owner_cpu);
    t += sim::cycles(cm_.cache2cache);
    if (l1_[owner].state_of(line) == LineState::kModified) {
      ++perf_.cpu[owner].writebacks;
    }
    ++perf_.cpu[owner].invals_received;
    if (write) {
      l1_[owner].invalidate(line);
      e.cpu_sharers = 0;
    } else {
      l1_[owner].downgrade(line);
    }
    e.owner_cpu = -1;
  }

  // Dirty in a third node: recall over the ring.
  if (e.remote_dirty && e.owner_node != my_node) {
    t = recall_remote_dirty(line, e, /*owner_keeps_shared=*/!write, t);
  } else if (e.remote_dirty && e.owner_node == my_node) {
    // Our own gcache copy was evicted while dirty; the writeback already
    // cleaned it, so just clear the stale state.
    e.remote_dirty = false;
    e.sci_list.clear();
  }

  if (write) {
    t = invalidate_local(line, e, kKeepNone, t);
    t = purge_remote(line, e, my_node, t);
  }

  t = bank_for(pa).acquire(t, sim::cycles(cm_.bank_hold)) +
      sim::cycles(cm_.bank_latency);
  t += sim::cycles(cm_.sci_list_insert);
  t = rings_.transit(ring, home_node, my_node, t);
  t = ring_fu.ring_if.acquire(t, sim::cycles(cm_.ring_link_hold)) +
      sim::cycles(cm_.ring_if);
  t += sim::cycles(cm_.gcache_install);

  // Install in the gcache and the requesting L1.  A read that finds no other
  // copy anywhere gets the line exclusive-clean (SCI ONLY_FRESH), so a later
  // write upgrades silently.
  const bool sole = !write && e.cpu_sharers == 0 && e.sci_list.empty() &&
                    !e.remote_dirty && e.owner_cpu < 0;
  ge.line = line;
  ge.dirty = write || sole;
  ge.cpu_sharers = bit(cpu_in_node);
  t += sim::cycles(cm_.xbar_transit + cm_.l1_fill);
  l1_[cpu].install(line, write  ? LineState::kModified
                         : sole ? LineState::kExclusive
                                : LineState::kShared);

  // Home directory update: attach at the head of the SCI sharing list.
  e.sci_list.push_front(my_node);
  if (write || sole) {
    e.remote_dirty = true;
    e.owner_node = static_cast<std::uint8_t>(my_node);
  } else {
    e.remote_dirty = false;
  }

  ++c.miss_remote;
  return t;
}

sim::Time Machine::remote_upgrade(unsigned cpu, PAddr pa, sim::Time t) {
  const LineAddr line = line_of(pa);
  const unsigned my_node = topo_.node_of_cpu(cpu);
  const unsigned my_fu = topo_.fu_of_cpu(cpu);
  const unsigned home_fu = home_fu_of(pa);
  const unsigned home_node = topo_.node_of_fu(home_fu);
  const unsigned ring = topo_.ring_of_fu(home_fu);
  const unsigned cpu_in_node = cpu % kCpusPerNode;
  FuState& ring_fu = fus_[topo_.fu_id(my_node, ring)];
  sci::GCache::Entry& ge = gcache_for(my_node, ring).slot(line);

  // Ownership request travels to the home directory.
  t = fus_[my_fu].port.acquire(t, sim::cycles(cm_.xbar_hold)) +
      sim::cycles(cm_.xbar_transit);
  t = ring_fu.ring_if.acquire(t, sim::cycles(cm_.ring_link_hold)) +
      sim::cycles(cm_.ring_if);
  t = rings_.transit(ring, my_node, home_node, t);
  t = fus_[home_fu].dir.acquire(t, sim::cycles(cm_.dir_hold)) +
      sim::cycles(cm_.sci_home_service);

  HomeEntry& e = home_entry(line);
  t = invalidate_local(line, e, kKeepNone, t);
  t = purge_remote(line, e, my_node, t);

  t = rings_.transit(ring, home_node, my_node, t);
  t = ring_fu.ring_if.acquire(t, sim::cycles(cm_.ring_link_hold)) +
      sim::cycles(cm_.ring_if);

  // Grant: this node now holds the only, dirty copy.
  e.sci_list.clear();
  e.sci_list.push_front(my_node);
  e.remote_dirty = true;
  e.owner_node = static_cast<std::uint8_t>(my_node);

  assert(ge.line == line);
  // Invalidate sibling L1 copies within the node.
  for (unsigned k = 0; k < kCpusPerNode; ++k) {
    if (k == cpu_in_node || !(ge.cpu_sharers & bit(k))) continue;
    const unsigned victim = my_node * kCpusPerNode + k;
    l1_[victim].invalidate(line);
    ++perf_.cpu[victim].invals_received;
    ++perf_.invals_sent;
    t += sim::cycles(cm_.inval_local);
  }
  ge.dirty = true;
  ge.cpu_sharers = bit(cpu_in_node);
  l1_[cpu].install(line, LineState::kModified);
  return t;
}

sim::Time Machine::purge_remote(LineAddr line, HomeEntry& e,
                                unsigned keep_node, sim::Time t) {
  if (e.sci_list.empty()) return t;
  const unsigned home_fu = home_fu_of(line_base(line));
  const unsigned home_node = topo_.node_of_fu(home_fu);
  const unsigned ring = topo_.ring_of_fu(home_fu);

  // The purge walk proceeds down the sharing list in the background (PA-RISC
  // weak ordering lets the writer continue once ownership is granted); the
  // writer's critical path pays the walk initiation plus a pipelined command
  // cost per sharer, while the walk itself occupies the ring links.
  // The list is compacted in place: only `keep_node` stays.
  SciList& list = e.sci_list;
  unsigned purged = 0;
  unsigned kept = 0;
  sim::Time walk = t;
  for (unsigned i = 0; i < list.size; ++i) {
    const std::uint8_t node = list.node[i];
    if (node == keep_node) {
      list.node[kept++] = node;
      continue;
    }
    walk = rings_.transit(ring, home_node, node, walk);
    walk += sim::cycles(cm_.sci_purge_per_node);
    sci::GCache::Entry& ge = gcache_for(node, ring).slot(line);
    if (ge.line == line && !mutation_.drop_sci_back_pointer) {
      // (Planted-bug mode skips this: the node leaves the sharing list but
      // its gcache entry and backed L1 copies survive as orphans.)
      invalidate_gcache_backed_l1(node, ge);
      ge = sci::GCache::Entry{};
    }
    ++perf_.sci_purge_targets;
    ++purged;
  }
  if (purged > 0) {
    ++perf_.sci_purges;
    t += sim::cycles(cm_.sci_purge_init + cm_.sci_purge_issue * purged);
  }
  list.size = static_cast<std::uint8_t>(kept);
  if (list.empty()) e.remote_dirty = false;
  return t;
}

sim::Time Machine::recall_remote_dirty(LineAddr line, HomeEntry& e,
                                       bool owner_keeps_shared, sim::Time t) {
  assert(e.remote_dirty);
  const unsigned home_fu = home_fu_of(line_base(line));
  const unsigned home_node = topo_.node_of_fu(home_fu);
  const unsigned ring = topo_.ring_of_fu(home_fu);
  const unsigned owner = e.owner_node;

  t = rings_.transit(ring, home_node, owner, t);
  t += sim::cycles(cm_.remote_recall);
  t = rings_.transit(ring, owner, home_node, t);

  sci::GCache::Entry& ge = gcache_for(owner, ring).slot(line);
  if (ge.line == line) {
    if (owner_keeps_shared) {
      ge.dirty = false;
      // The owner node's L1 copy (if any) is downgraded to Shared.
      for (unsigned k = 0; k < kCpusPerNode; ++k) {
        if (ge.cpu_sharers & bit(k)) {
          l1_[owner * kCpusPerNode + k].downgrade(line);
        }
      }
    } else {
      invalidate_gcache_backed_l1(owner, ge);
      ge = sci::GCache::Entry{};
    }
  }
  e.remote_dirty = false;
  if (!owner_keeps_shared) e.sci_list.remove(owner);
  return t;
}

// ---------------------------------------------------------------------------
// Evictions
// ---------------------------------------------------------------------------

void Machine::evict_l1_entry(unsigned cpu, L1Cache::Entry& entry,
                             sim::Time now) {
  const LineAddr victim = entry.line;
  const PAddr pa = line_base(victim);
  const unsigned home_fu = home_fu_of(pa);
  const unsigned home_node = topo_.node_of_fu(home_fu);
  const unsigned my_node = topo_.node_of_cpu(cpu);
  const unsigned cpu_in_node = cpu % kCpusPerNode;
  ++perf_.l1_evictions;

  if (entry.state == LineState::kModified) {
    ++perf_.cpu[cpu].writebacks;
    // Writeback drains through the write buffer off the critical path; it
    // only occupies the destination bank.
    if (home_node == my_node) {
      bank_for(pa).acquire(now, sim::cycles(cm_.bank_hold));
    }
  }

  if (home_node == my_node) {
    if (HomeEntry* e = find_home_entry(victim)) {
      if (e->owner_cpu == static_cast<int>(cpu)) e->owner_cpu = -1;
      e->cpu_sharers &= static_cast<std::uint8_t>(~bit(cpu_in_node));
    }
  } else {
    const unsigned ring = topo_.ring_of_fu(home_fu);
    sci::GCache::Entry& ge = gcache_for(my_node, ring).slot(victim);
    if (ge.line == victim) {
      ge.cpu_sharers &= static_cast<std::uint8_t>(~bit(cpu_in_node));
      // A dirty L1 line flushes its data into the gcache copy, which stays
      // dirty on the node's behalf.
    }
  }

  entry.state = LineState::kInvalid;
  entry.line = L1Cache::kNoLine;
}

void Machine::invalidate_gcache_backed_l1(unsigned node,
                                          const sci::GCache::Entry& ge) {
  for (unsigned k = 0; k < kCpusPerNode; ++k) {
    if (!(ge.cpu_sharers & bit(k))) continue;
    const unsigned cpu = node * kCpusPerNode + k;
    l1_[cpu].invalidate(ge.line);
    ++perf_.cpu[cpu].invals_received;
  }
}

void Machine::evict_gcache_entry(unsigned node, [[maybe_unused]] unsigned ring,
                                 sci::GCache::Entry& ge, sim::Time now) {
  const LineAddr victim = ge.line;
  ++perf_.gcache_evictions;
  invalidate_gcache_backed_l1(node, ge);

  if (HomeEntry* e = find_home_entry(victim)) {
    e->sci_list.remove(node);
    if (e->remote_dirty && e->owner_node == node) {
      e->remote_dirty = false;
      // Rollout writeback occupies the home bank off the critical path.
      bank_for(line_base(victim)).acquire(now, sim::cycles(cm_.bank_hold));
    }
  }
  ge = sci::GCache::Entry{};
}

// ---------------------------------------------------------------------------
// Uncached operations
// ---------------------------------------------------------------------------

sim::Time Machine::access_uncached(unsigned cpu, VAddr va, bool write,
                                   sim::Time now) {
  const PAddr pa = vm_.translate(va, cpu);
  const unsigned my_fu = topo_.fu_of_cpu(cpu);
  const unsigned home_fu = home_fu_of(pa);
  const unsigned my_node = topo_.node_of_cpu(cpu);
  const unsigned home_node = topo_.node_of_fu(home_fu);
  CpuCounters& c = perf_.cpu[cpu];
  ++c.uncached_ops;
  (write ? c.stores : c.loads)++;

  sim::Time t = fus_[my_fu].port.acquire(now, sim::cycles(cm_.xbar_hold)) +
                sim::cycles(cm_.xbar_transit);
  if (home_node != my_node) {
    const unsigned ring = topo_.ring_of_fu(home_fu);
    FuState& ring_fu = fus_[topo_.fu_id(my_node, ring)];
    t = ring_fu.ring_if.acquire(t, sim::cycles(cm_.ring_link_hold)) +
        sim::cycles(cm_.ring_if);
    t = rings_.transit(ring, my_node, home_node, t);
    t = fus_[home_fu].dir.acquire(t, sim::cycles(cm_.dir_hold)) +
        sim::cycles(cm_.sci_home_service);
    t = bank_for(pa).acquire(t, sim::cycles(cm_.bank_hold)) +
        sim::cycles(cm_.bank_latency);
    t = rings_.transit(ring, home_node, my_node, t);
    t = ring_fu.ring_if.acquire(t, sim::cycles(cm_.ring_link_hold)) +
        sim::cycles(cm_.ring_if);
  } else {
    t = fus_[home_fu].dir.acquire(t, sim::cycles(cm_.dir_hold)) +
        sim::cycles(cm_.dir_latency);
    t = bank_for(pa).acquire(t, sim::cycles(cm_.bank_hold)) +
        sim::cycles(cm_.bank_latency);
  }
  t += sim::cycles(cm_.xbar_transit + cm_.uncached_extra);
  c.mem_stall += t - now;
  if (observer_ != nullptr) {
    observer_->on_access(MemEvent{.cpu = cpu,
                                  .va = va,
                                  .pa = pa,
                                  .line = line_of(pa),
                                  .write = write,
                                  .uncached = true,
                                  .atomic = false,
                                  .pre_state = LineState::kInvalid,
                                  .pre_gcache_hit = false,
                                  .start = now,
                                  .end = t});
  }
  return t;
}

sim::Time Machine::atomic_rmw(unsigned cpu, VAddr va, sim::Time now) {
  const PAddr pa = vm_.translate(va, cpu);
  const unsigned my_fu = topo_.fu_of_cpu(cpu);
  const unsigned home_fu = home_fu_of(pa);
  const unsigned my_node = topo_.node_of_cpu(cpu);
  const unsigned home_node = topo_.node_of_fu(home_fu);
  CpuCounters& c = perf_.cpu[cpu];
  ++c.atomic_ops;

  sim::Time t = fus_[my_fu].port.acquire(now, sim::cycles(cm_.xbar_hold)) +
                sim::cycles(cm_.xbar_transit);
  if (home_node != my_node) {
    const unsigned ring = topo_.ring_of_fu(home_fu);
    FuState& ring_fu = fus_[topo_.fu_id(my_node, ring)];
    t = ring_fu.ring_if.acquire(t, sim::cycles(cm_.ring_link_hold)) +
        sim::cycles(cm_.ring_if);
    t = rings_.transit(ring, my_node, home_node, t);
    t = fus_[home_fu].dir.acquire(t, sim::cycles(cm_.dir_hold)) +
        sim::cycles(cm_.sci_home_service);
    // The fetch-and-op locks the bank for the full rmw window.
    t = bank_for(pa).acquire(t, sim::cycles(cm_.rmw_hold)) +
        sim::cycles(cm_.bank_latency);
    t = rings_.transit(ring, home_node, my_node, t);
    t = ring_fu.ring_if.acquire(t, sim::cycles(cm_.ring_link_hold)) +
        sim::cycles(cm_.ring_if);
  } else {
    t = fus_[home_fu].dir.acquire(t, sim::cycles(cm_.dir_hold)) +
        sim::cycles(cm_.dir_latency);
    t = bank_for(pa).acquire(t, sim::cycles(cm_.rmw_hold)) +
        sim::cycles(cm_.bank_latency);
  }
  t += sim::cycles(cm_.xbar_transit + cm_.uncached_extra);
  c.mem_stall += t - now;
  if (observer_ != nullptr) {
    observer_->on_access(MemEvent{.cpu = cpu,
                                  .va = va,
                                  .pa = pa,
                                  .line = line_of(pa),
                                  .write = true,
                                  .uncached = true,
                                  .atomic = true,
                                  .pre_state = LineState::kInvalid,
                                  .pre_gcache_hit = false,
                                  .start = now,
                                  .end = t});
  }
  return t;
}

// ---------------------------------------------------------------------------
// Maintenance and introspection
// ---------------------------------------------------------------------------

void Machine::flush_l1(unsigned cpu) {
  L1Cache& l1 = l1_[cpu];
  for (std::uint64_t set = 0; set < l1.allocated_sets(); ++set) {
    L1Cache::Entry& e = l1.entry_at(set);
    if (e.state != LineState::kInvalid) evict_l1_entry(cpu, e, 0);
  }
}

LineState Machine::l1_state(unsigned cpu, VAddr va) const {
  const PAddr pa = vm_.translate(va, cpu);
  return l1_[cpu].state_of(line_of(pa));
}

unsigned Machine::sharer_count(VAddr va) const {
  const PAddr pa = vm_.translate(va, 0);
  const LineAddr line = line_of(pa);
  unsigned count = 0;
  for (const auto& l1 : l1_) {
    if (l1.present(line)) ++count;
  }
  for (const auto& gc : gcaches_) {
    if (gc.present(line)) ++count;
  }
  return count;
}

Machine::DirView Machine::dir_view(LineAddr line) const {
  DirView v;
  const HomeEntry* e = find_home_entry(line);
  if (e == nullptr || e->empty()) return v;
  v.present = true;
  v.cpu_sharers = e->cpu_sharers;
  v.owner_cpu = e->owner_cpu;
  v.remote_dirty = e->remote_dirty;
  v.owner_node = e->owner_node;
  v.sci_list.assign(e->sci_list.begin(), e->sci_list.end());
  return v;
}

bool Machine::check_line_invariants(VAddr va) const {
  const LineAddr line = line_of(vm_.translate(va, 0));
  const PAddr pa = line_base(line);
  const unsigned home_fu = home_fu_of(pa);
  const unsigned home_node = topo_.node_of_fu(home_fu);
  const unsigned ring = topo_.ring_of_fu(home_fu);

  unsigned modified_l1 = 0, shared_l1 = 0;
  for (unsigned cpu = 0; cpu < topo_.num_cpus(); ++cpu) {
    const LineState st = l1_[cpu].state_of(line);
    // Exclusive counts as an owning copy: it must exclude all others.
    if (st == LineState::kModified || st == LineState::kExclusive) {
      ++modified_l1;
    }
    if (st == LineState::kShared) ++shared_l1;
    // Inclusion: a remote-home line in an L1 must be backed by the node's
    // gcache with this CPU's sharer bit set.
    if (st != LineState::kInvalid && topo_.node_of_cpu(cpu) != home_node) {
      const auto& ge =
          gcaches_[topo_.node_of_cpu(cpu) * kNumRings + ring].slot(line);
      if (ge.line != line) return false;
      if (!(ge.cpu_sharers & bit(cpu % kCpusPerNode))) return false;
    }
  }
  // Single-writer: a Modified copy excludes all other copies.
  if (modified_l1 > 1) return false;
  if (modified_l1 == 1 && shared_l1 > 0) return false;

  unsigned dirty_gcaches = 0;
  for (unsigned n = 0; n < topo_.nodes; ++n) {
    const auto& ge = gcaches_[n * kNumRings + ring].slot(line);
    if (ge.line == line && ge.dirty) ++dirty_gcaches;
  }
  if (dirty_gcaches > 1) return false;
  return true;
}

}  // namespace spp::arch
