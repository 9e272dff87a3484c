#include "spp/prof/profiler.h"

#include <algorithm>
#include <stdexcept>

#include "spp/arch/vmem.h"

namespace spp::prof {

double Profiler::PhaseStats::imbalance() const {
  if (per_thread.empty() || total == 0) return 1.0;
  std::uint64_t active = 0;
  for (const sim::Time t : per_thread) {
    if (t > 0) ++active;
  }
  if (active == 0) return 1.0;
  const double mean = static_cast<double>(total) / static_cast<double>(active);
  return static_cast<double>(max_thread) / mean;
}

void Profiler::begin(unsigned tid, const std::string& phase) {
  if (tid >= nthreads_) {
    throw std::out_of_range("profiler: tid " + std::to_string(tid) +
                            " beyond thread count " +
                            std::to_string(nthreads_));
  }
  OpenPhase& op = open_[{phase, tid}];
  if (op.open) throw std::logic_error("profiler: phase already open: " + phase);
  op.open = true;
  op.t0 = rt_->now();
  op.c0 = rt_->machine().perf().cpu[rt_->cpu()];
}

void Profiler::end(unsigned tid, const std::string& phase) {
  auto it = open_.find({phase, tid});
  if (it == open_.end() || !it->second.open) {
    throw std::logic_error("profiler: phase not open: " + phase);
  }
  OpenPhase& op = it->second;
  op.open = false;
  const sim::Time dt = rt_->now() - op.t0;
  const arch::CpuCounters& now = rt_->machine().perf().cpu[rt_->cpu()];

  PhaseStats& ps = phases_[phase];
  if (ps.per_thread.size() < nthreads_) ps.per_thread.resize(nthreads_, 0);
  ps.per_thread[tid] += dt;
  ps.total += dt;
  ps.max_thread = std::max(ps.max_thread, ps.per_thread[tid]);
  ps.misses += now.misses() - op.c0.misses();
  ps.remote_misses += now.miss_remote - op.c0.miss_remote;
  ps.invalidations += now.invals_received - op.c0.invals_received;
  ps.flops += now.flops - op.c0.flops;
}

const Profiler::PhaseStats& Profiler::stats(const std::string& phase) const {
  auto it = phases_.find(phase);
  if (it == phases_.end()) {
    throw std::out_of_range("profiler: unknown phase: " + phase);
  }
  return it->second;
}

void Profiler::report(std::FILE* out) const {
  std::fprintf(out, "%-18s %10s %10s %9s %10s %10s %10s\n", "phase",
               "total_ms", "max_ms", "imbal", "misses", "remote", "Mflop");
  for (const auto& [name, ps] : phases_) {
    std::fprintf(out, "%-18s %10.3f %10.3f %9.2f %10llu %10llu %10.2f\n",
                 name.c_str(), sim::to_seconds(ps.total) * 1e3,
                 sim::to_seconds(ps.max_thread) * 1e3, ps.imbalance(),
                 static_cast<unsigned long long>(ps.misses),
                 static_cast<unsigned long long>(ps.remote_misses),
                 ps.flops / 1e6);
  }
}

void Profiler::memory_map(std::FILE* out) const {
  const auto& regions = rt_->machine().vm().regions();
  std::fprintf(out, "%-18s %-14s %12s %6s\n", "region", "class", "bytes",
               "home");
  for (const auto& r : regions) {
    char home[16] = "-";
    if (r.mem_class == arch::MemClass::kNearShared) {
      std::snprintf(home, sizeof home, "%u", r.home_node);
    }
    std::fprintf(out, "%-18s %-14s %12llu %6s\n", r.label.c_str(),
                 arch::to_string(r.mem_class),
                 static_cast<unsigned long long>(r.size), home);
  }
}

void Profiler::print_family(std::FILE* out, const char* title,
                            const char* none, CounterRows rows) const {
  const arch::PerfCounters& p = rt_->machine().perf();
  if (std::all_of(rows.begin(), rows.end(),
                  [&p](const auto& row) { return p.*row.field == 0; })) {
    std::fprintf(out, "%s\n", none);
    return;
  }
  std::fprintf(out, "%-24s %12s\n", title, "count");
  for (const auto& row : rows) {
    std::fprintf(out, "%-24s %12llu\n", row.name,
                 static_cast<unsigned long long>(p.*row.field));
  }
}

void Profiler::fault_report(std::FILE* out) const {
  print_family(out, "fault/recovery", "faults: none injected",
               arch::kFaultCounters);
}

void Profiler::recovery_report(std::FILE* out) const {
  print_family(out, "checkpoint/recovery",
               "recovery: no checkpoints or failures", arch::kCkptCounters);
}

void Profiler::check_report(std::FILE* out) const {
  print_family(out, "verification", "check: no checker attached",
               arch::kCheckCounters);
}

void Profiler::io_report(std::FILE* out) const {
  print_family(out, "host-I/O", "io: no host-I/O faults or degradation",
               arch::kIoCounters);
  const arch::PerfCounters& p = rt_->machine().perf();
  if (p.io_memory_only_epochs != 0) {
    std::fprintf(out,
                 "io: *** DEGRADED: %llu epoch(s) were IN-MEMORY ONLY -- "
                 "the disk trail ends before the run did ***\n",
                 static_cast<unsigned long long>(p.io_memory_only_epochs));
  }
}

}  // namespace spp::prof
