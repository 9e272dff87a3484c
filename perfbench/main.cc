// spp-perfbench: runs one perfbench workload and prints its metrics
// (README.md describes them).
//
//   spp-perfbench --workload apps|sync|pvm [--seed N] [--seconds S]
//                 [--trace 0|1] [--smoke] [--spans FILE]
//   spp-perfbench --replay-check [--seed N]
//
// Untraced passes repeat until --seconds of host time have gone by, and at
// least kMinPasses of them run; host times are the fastest pass's, scaled
// to a fixed host speed (HostGauge says why).
// --trace 1 adds one traced pass and prints the per-layer metrics instead of
// the end-to-end ones.  Before the metrics come the run's settings, host and
// build, every case's sim_ns and digest (so two builds compare bit for bit)
// and the paper comparison.  The last stdout line is one JSON object with
// the keys correct, attempted, failed and metrics.
//
// Exit status: 0 = ran (see "correct"); 1 = --replay-check found a
// difference; 2 = usage error, or an SPP_* variable that changes what runs
// is set.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#ifdef __linux__
#include <sched.h>
#endif

#include "perfbench.h"
#include "trace.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace memo = spp::memo;

namespace {

void add_cpu(arch::CpuCounters& a, const arch::CpuCounters& b) {
  a.loads += b.loads;
  a.stores += b.stores;
  a.l1_hits += b.l1_hits;
  a.upgrades += b.upgrades;
  a.miss_fu_local += b.miss_fu_local;
  a.miss_node += b.miss_node;
  a.miss_gcache += b.miss_gcache;
  a.miss_remote += b.miss_remote;
  a.writebacks += b.writebacks;
  a.uncached_ops += b.uncached_ops;
  a.atomic_ops += b.atomic_ops;
  a.memo_hits += b.memo_hits;
  a.memo_misses += b.memo_misses;
  a.memo_invalidations += b.memo_invalidations;
}

const char* backend_name(rt::ConductorBackend b) {
  switch (b) {
    case rt::ConductorBackend::kFibers:
      return "fibers";
    case rt::ConductorBackend::kPdes:
      return "pdes";
    case rt::ConductorBackend::kThreads:
      break;
  }
  return "threads";
}

const char* memo_name(memo::Mode m) {
  switch (m) {
    case memo::Mode::kOn:
      return "on";
    case memo::Mode::kVerify:
      return "verify";
    case memo::Mode::kOff:
      break;
  }
  return "off";
}

}  // namespace

void Counts::add(rt::Runtime& rt) {
  const arch::PerfCounters& p = rt.machine().perf();
  add_cpu(cpu, p.total());
  ring_packets += p.ring_packets;
  sci_purges += p.sci_purges;
  sci_purge_targets += p.sci_purge_targets;
  invals_sent += p.invals_sent;
  gcache_evictions += p.gcache_evictions;
  l1_evictions += p.l1_evictions;
  dispatches += rt.conductor().progress();
  workers = std::max(workers, rt.conductor().workers());
  sim_ns += rt.elapsed();
}

void Counts::add(const Counts& o) {
  add_cpu(cpu, o.cpu);
  ring_packets += o.ring_packets;
  sci_purges += o.sci_purges;
  sci_purge_targets += o.sci_purge_targets;
  invals_sent += o.invals_sent;
  gcache_evictions += o.gcache_evictions;
  l1_evictions += o.l1_evictions;
  dispatches += o.dispatches;
  workers = std::max(workers, o.workers);
  sim_ns += o.sim_ns;
}

CaseCtx::CaseCtx(const Settings& settings, HostTimers& timers, Tracer* tracer)
    : settings_(settings), timers_(timers), tracer_(tracer) {
  if (tracer_ != nullptr) tracer_->spans().open("setup");
  begin_ = Clock::now();
}

void CaseCtx::start(rt::Runtime& rt) {
  result_.setup_s = seconds_between(begin_, Clock::now());
  if (tracer_ != nullptr) {
    tracer_->spans().close();
    tracer_->spans().open("run");
    tracer_->attach(rt);
  }
}

void CaseCtx::finish(rt::Runtime& rt) {
  if (tracer_ != nullptr) {
    tracer_->detach();
    tracer_->spans().close();
  }
  result_.counts.add(rt);
  result_.sim_ns = rt.elapsed();
  result_.digest = rt.machine().perf().digest(rt.elapsed());
  result_.backend = backend_name(rt.conductor().backend());
  result_.memo = memo_name(rt.memo_mode());
}

void CaseCtx::expect(bool ok, const std::string& what) {
  if (!ok && result_.failure.empty()) result_.failure = what;
}

namespace {

/// Variables that select another backend, worker count, memo mode or PDES
/// window than the library's default: one left over in the shell would
/// silently change what runs.
constexpr const char* kSppEnv[] = {"SPP_CONDUCTOR", "SPP_SHARDS", "SPP_MEMO",
                                   "SPP_MEMO_DEBUG", "SPP_PDES_WINDOW"};
/// Enough passes for a determinism check, however short --seconds is.
constexpr std::size_t kMinPasses = 3;
/// Passes whose rt/pvm call timings are kept: thousands of samples, and a
/// memory footprint that does not grow with the run (peak_rss_mb).
constexpr std::size_t kTimedPasses = 10;

struct Options {
  std::string workload;
  Settings settings;
  double seconds = 10;
  bool trace = false;
  bool replay_check = false;
  std::string spans_path;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "spp-perfbench: %s\n"
               "usage: spp-perfbench --workload apps|sync|pvm [--seed N] "
               "[--seconds S]\n"
               "                     [--trace 0|1] [--smoke] [--spans FILE]\n"
               "       spp-perfbench --replay-check [--seed N]\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        o.workload = value();
      } else if (arg == "--seed") {
        o.settings.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value());
      } else if (arg == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        o.trace = v == "1";
      } else if (arg == "--smoke") {
        o.settings.smoke = true;
      } else if (arg == "--spans") {
        o.spans_path = value();
      } else if (arg == "--replay-check") {
        o.replay_check = true;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {  // stoull/stod: no number, overflow
      usage("bad value for " + arg);
    }
  }
  if (!o.replay_check && o.workload.empty()) usage("--workload is required");
  if (!(o.seconds >= 0)) usage("--seconds must be a number >= 0");
  return o;
}

/// The fastest of a run's samples.  Every pass does the same simulated
/// work (their digests must match), so the fastest is the one the host
/// disturbed least.
double fastest(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::min_element(v.begin(), v.end());
}

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// A fixed piece of host work, timed between cases to gauge how fast the
/// shared host runs during a run: an ALU chain, random updates within 1 MiB
/// and 16 MiB, an 8 MiB sequential read and a 32 MiB pointer chase.
///
/// Host times are the fastest pass's, scaled by kNominalS / (the 10th
/// percentile of the gauge's samples in the run; a lone fast sample would
/// skew the fastest).  On a shared 4-vCPU host the same pass
/// drifted by up to 2x over minutes as other tenants loaded the memory
/// system; steal time stayed near 0 and CPU time tracked wall time, so
/// neither helped.  Over ten 40 s runs per workload of one build, the
/// median pass spread by 27% (apps), 11% (sync) and 31% (pvm) between
/// quartiles, the fastest pass by 12%, 6% and 5%, and the scaled fastest
/// pass by 6%, 4% and 5%.
class HostGauge {
 public:
  /// The gauge's 10th percentile at a quiet moment of that host, where
  /// scaled times equal measured ones.
  static constexpr double kNominalS = 3.7e-3;
  static constexpr std::size_t kWords = std::size_t{4} << 20;  // 32 MiB
  /// Samples cost about 4 ms: at most one per 200 ms keeps them near 2%
  /// of a run.
  static constexpr double kIntervalS = 0.2;

  HostGauge() : table_(kWords) {
    for (std::size_t i = 0; i < kWords; ++i) table_[i] = mix(i);
  }

  /// Takes a sample unless one was taken in the last kIntervalS; returns
  /// the host seconds spent, which the caller leaves out of its pass.
  double maybe_sample() {
    const Clock::time_point t0 = Clock::now();
    if (!samples_.empty() && seconds_between(last_, t0) < kIntervalS) {
      return 0;
    }
    work();
    last_ = Clock::now();
    samples_.push_back(seconds_between(t0, last_));
    return samples_.back();
  }

  /// What a measured host time is multiplied by.
  double scale() const {
    return samples_.empty() ? 1.0 : kNominalS / p10_s();
  }
  std::size_t samples() const { return samples_.size(); }
  double p10_s() const { return percentile(samples_, 0.1); }
  static double mib() { return kWords * sizeof(std::uint64_t) / 1048576.0; }

 private:
  static std::uint64_t mix(std::uint64_t x) {
    x ^= x >> 31;
    x *= 0x9E3779B97F4A7C15ull;
    return x ^ (x >> 29);
  }

  void gather(std::size_t words, int n) {
    const std::size_t mask = words - 1;
    std::uint64_t sum = 0;
    for (int i = 0; i < n; ++i) {
      const std::uint64_t h = mix(acc_ + static_cast<std::uint64_t>(i));
      sum += table_[h & mask];
      table_[(h >> 32) & mask] ^= sum;
    }
    acc_ ^= sum;
  }

  void work() {
    for (int i = 0; i < 200000; ++i) {
      acc_ = mix(acc_ + static_cast<std::uint64_t>(i));
    }
    gather(std::size_t{1} << 17, 40000);
    gather(std::size_t{1} << 21, 20000);
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < (std::size_t{1} << 20); ++i) sum += table_[i];
    acc_ ^= sum;
    for (int i = 0; i < 10000; ++i) {
      acc_ = mix(acc_ + table_[acc_ & (kWords - 1)]);
    }
  }

  std::vector<std::uint64_t> table_;
  std::uint64_t acc_ = 1;
  std::vector<double> samples_;
  Clock::time_point last_;
};

/// One pass over every case of a workload.
struct Pass {
  double wall_s = 0;
  double setup_s = 0;
  std::uint64_t failed = 0;
  Counts counts;
  std::vector<CaseResult> cases;
};

/// Runs every case once.  With a gauge, samples it between cases and leaves
/// the samples out of the pass's time.
Pass run_pass(const Workload& w, const Settings& s, HostTimers& timers,
              Tracer* tracer, HostGauge* gauge = nullptr) {
  Pass p;
  double gauge_s = 0;
  const Clock::time_point t0 = Clock::now();
  for (const Case& c : w.cases) {
    std::size_t depth = 0;
    if (tracer != nullptr) {
      depth = tracer->spans().depth();
      tracer->spans().open(c.name);
    }
    CaseCtx ctx(s, timers, tracer);
    // A failure is counted, never fatal: the remaining cases still run.
    try {
      c.body(ctx);
    } catch (const std::exception& e) {
      ctx.expect(false, std::string("threw: ") + e.what());
    } catch (...) {
      ctx.expect(false, "threw a non-standard exception");
    }
    if (tracer != nullptr) {
      tracer->abandon();  // a no-op unless the case threw mid-run
      tracer->spans().close_to(depth);
    }
    if (gauge != nullptr) gauge_s += gauge->maybe_sample();
    CaseResult& r = ctx.result();
    p.setup_s += r.setup_s;
    p.counts.add(r.counts);
    if (!r.failure.empty()) ++p.failed;
    p.cases.push_back(std::move(r));
  }
  p.wall_s = seconds_between(t0, Clock::now()) - gauge_s;
  return p;
}

bool same_outcome(const CaseResult& a, const CaseResult& b) {
  return a.sim_ns == b.sim_ns && a.digest == b.digest;
}

double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

/// CPU count and affinity, recorded as sppsim-bench records them.
std::string host_record() {
  std::string s =
      "cpus=" + std::to_string(std::thread::hardware_concurrency());
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    std::uint64_t mask = 0;
    for (int c = 0; c < 64; ++c) {
      if (CPU_ISSET(c, &set)) mask |= std::uint64_t{1} << c;
    }
    char buf[80];
    std::snprintf(buf, sizeof buf,
                  " affinity_cpus=%d affinity_mask=0x%" PRIx64,
                  CPU_COUNT(&set), mask);
    s += buf;
  }
#endif
  return s;
}

const char* compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Prints each metric on its own line, then the one-line JSON result.  A
/// metric that is not a finite number makes the run incorrect.
void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string json;
  for (const Metric& m : metrics) {
    const bool finite = std::isfinite(m.value);
    correct = correct && finite;
    const std::string v = number(finite ? m.value : 0.0);
    std::printf("metric %-28s %s %s\n", m.name.c_str(), v.c_str(), m.unit);
    json += (json.empty() ? "\"" : ", \"") + m.name + "\": {\"value\": " + v +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {%s}}\n",
              correct ? "true" : "false", attempted, failed, json.c_str());
}

/// One line per case: sim_ns and digest of the first pass, and the case's
/// first failure in any pass.
void print_cases(const Workload& w, const Pass& first,
                 const std::vector<std::string>& status) {
  for (std::size_t i = 0; i < w.cases.size(); ++i) {
    const CaseResult& r = first.cases[i];
    std::printf("case %s/%s sim_ns=%" PRIu64 " digest=0x%016" PRIx64 " %s\n",
                w.name.c_str(), w.cases[i].name.c_str(),
                static_cast<std::uint64_t>(r.sim_ns), r.digest,
                status[i].empty() ? "ok" : status[i].c_str());
  }
}

/// Prints each paper-comparable metric beside its paper value; returns the
/// mean |measured/paper - 1| in percent (NaN when none could be derived).
double paper_error_pct(const Workload& w, const Pass& pass) {
  Values values;
  for (const CaseResult& r : pass.cases) {
    values.insert(r.values.begin(), r.values.end());
  }
  double sum = 0;
  int n = 0;
  for (const PaperMetric& m : w.paper(values)) {
    const double err = std::abs(m.measured / m.paper - 1.0) * 100.0;
    std::printf("paper %-38s measured=%.3f paper=%.3f err=%.1f%%\n",
                m.name.c_str(), m.measured, m.paper, err);
    if (std::isfinite(err)) {
      sum += err;
      ++n;
    }
  }
  return n > 0 ? sum / n : std::numeric_limits<double>::quiet_NaN();
}

void print_predictions(const std::string& workload, double arch_share,
                       double nonhit_share) {
  const auto verdict = [](bool met) { return met ? "met" : "NOT MET"; };
  if (workload == "sync") {
    std::printf("prediction arch.host_s is about 5%% of wall_s: "
                "share %.3f, %s\n",
                arch_share, verdict(arch_share < 0.15));
    std::printf("prediction rt.above_arch_s is most of wall_s: "
                "share %.3f, %s\n",
                1.0 - arch_share, verdict(arch_share < 0.5));
  } else {
    std::printf("prediction arch.host_s is most of wall_s: share %.3f, %s\n",
                arch_share, verdict(arch_share > 0.5));
  }
  std::printf("prediction non-hit calls take a larger share of arch.host_s "
              "on pvm than on apps: share %.3f here (compare the two "
              "workloads' arch.nonhit_share)\n",
              nonhit_share);
}

int run_workload(const Options& o, const Workload& w) {
  // Only the first pass's case results are kept; later passes are checked
  // against it and leave their times and first failures behind.
  HostTimers timers;
  HostTimers untimed;
  Pass first;
  std::vector<std::string> status(w.cases.size());
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> wall;
  std::vector<double> setup;
  HostGauge gauge;
  const Clock::time_point t0 = Clock::now();
  while (wall.size() < kMinPasses ||
         seconds_between(t0, Clock::now()) < o.seconds) {
    const std::size_t k = wall.size();
    Pass p = run_pass(w, o.settings, k < kTimedPasses ? timers : untimed,
                      nullptr, &gauge);
    untimed = HostTimers{};
    for (std::size_t i = 0; i < p.cases.size(); ++i) {
      CaseResult& r = p.cases[i];
      if (k > 0 && r.failure.empty() && !same_outcome(r, first.cases[i])) {
        r.failure = "sim_ns or digest differs from the first pass";
        ++p.failed;
      }
      if (!r.failure.empty() && status[i].empty()) {
        status[i] = "FAIL in pass " + std::to_string(k + 1) + ": " + r.failure;
      }
    }
    attempted += p.cases.size();
    failed += p.failed;
    wall.push_back(p.wall_s);
    setup.push_back(p.setup_s);
    if (k == 0) first = std::move(p);
  }
  // The gauge's table is resident throughout; it is the benchmark's, not
  // the workload's.
  const double rss_mb = peak_rss_mb() - HostGauge::mib();
  const CaseResult& any = first.cases.front();

  std::printf("# perfbench workload=%s seed=%" PRIu64
              " seconds=%g trace=%d smoke=%d passes=%zu\n",
              w.name.c_str(), o.settings.seed, o.seconds, o.trace ? 1 : 0,
              o.settings.smoke ? 1 : 0, wall.size());
  std::printf("# build compiler=\"%s\" type=%s\n", compiler(),
              PERFBENCH_BUILD_TYPE);
  std::printf("# host %s\n", host_record().c_str());
  std::printf("# rt backend=%s workers=%u memo=%s\n", any.backend.c_str(),
              first.counts.workers, any.memo.c_str());
  print_cases(w, first, status);
  const double paper_err = paper_error_pct(w, first);

  const auto transactions = static_cast<double>(first.counts.transactions());
  // Measured host seconds, and the end-to-end ones scaled to the gauge's
  // nominal speed.
  const double pass_s = fastest(wall);
  const double wall_s = pass_s * gauge.scale();
  std::printf("# pass wall_s");
  for (const double v : wall) std::printf(" %.4f", v);
  std::printf("\n# %zu passes: wall_s fastest %.4f p50 %.4f p90 %.4f "
              "(measured)\n",
              wall.size(), pass_s, percentile(wall, 0.5),
              percentile(wall, 0.9));
  std::printf("# host gauge: %zu samples, p10 %.3f ms, nominal %.3f ms: "
              "host times x %.4f\n",
              gauge.samples(), gauge.p10_s() * 1e3,
              HostGauge::kNominalS * 1e3, gauge.scale());

  if (!o.trace) {
    print_result(failed == 0, attempted, failed,
                 {{"wall_s", wall_s, "s"},
                  {"setup_s", fastest(setup) * gauge.scale(), "s"},
                  {"sim_maccess_per_s", transactions / 1e6 / wall_s, "M/s"},
                  {"peak_rss_mb", rss_mb, "MB"},
                  {"pass_frac",
                   static_cast<double>(attempted - failed) /
                       static_cast<double>(attempted),
                   "ratio"},
                  {"paper_err_pct", paper_err, "%"}});
    return 0;
  }

  // The traced pass.  Its own rt/pvm call timings carry the tracer's cost,
  // so those percentiles come from the untraced passes above.
  Tracer tracer;
  HostTimers traced_timers;
  tracer.spans().open("workload " + w.name);
  const Pass traced = run_pass(w, o.settings, traced_timers, &tracer);
  tracer.spans().close();
  attempted += traced.cases.size();
  failed += traced.failed;
  std::uint64_t digest_mismatches = 0;
  for (std::size_t i = 0; i < traced.cases.size(); ++i) {
    if (!same_outcome(traced.cases[i], first.cases[i])) ++digest_mismatches;
  }
  if (!o.spans_path.empty()) {
    std::ofstream out(o.spans_path);
    tracer.spans().write(out);
  }

  const Tracer::Totals& t = tracer.totals();
  double arch_ns = 0;
  std::uint64_t calls = 0;
  for (int k = 0; k < kCallClasses; ++k) {
    arch_ns += t.replay_ns[k];
    calls += t.calls[k];
  }
  const auto n = [](std::uint64_t v) { return static_cast<double>(v); };
  const double arch_s = arch_ns * 1e-9;
  // Per-layer host times are measured ones, so shares use the measured pass.
  const double above_s = pass_s - arch_s;
  const double arch_share = arch_s / pass_s;
  const double nonhit_share =
      ratio(t.replay_ns[kMissCall] + t.replay_ns[kSyncCall], arch_ns);
  const Counts& c = first.counts;
  const double cached = n(c.cpu.loads + c.cpu.stores - c.cpu.uncached_ops);

  print_predictions(w.name, arch_share, nonhit_share);
  const bool valid = t.mismatches == 0 && digest_mismatches == 0;
  if (!valid) {
    std::printf("per-layer host numbers INVALID: %" PRIu64
                " replay mismatches, %" PRIu64
                " traced digests differ from untraced ones\n",
                t.mismatches, digest_mismatches);
  }
  print_result(
      failed == 0 && valid, attempted, failed,
      {{"arch.host_s", arch_s, "s"},
       {"arch.wall_share", arch_share, "ratio"},
       {"arch.nonhit_share", nonhit_share, "ratio"},
       {"arch.hit_ns", ratio(t.replay_ns[kHitCall], n(t.calls[kHitCall])),
        "ns"},
       {"arch.miss_ns", ratio(t.replay_ns[kMissCall], n(t.calls[kMissCall])),
        "ns"},
       {"arch.sync_op_ns",
        ratio(t.replay_ns[kSyncCall], n(t.calls[kSyncCall])), "ns"},
       {"arch.translate_ns", ratio(t.translate_ns, n(calls)), "ns"},
       {"arch.lines_per_call",
        ratio(n(c.cpu.loads + c.cpu.stores), n(t.data_calls)), "lines/call"},
       {"arch.transactions", n(c.transactions()), "count"},
       {"arch.l1_hit_frac", ratio(n(c.cpu.l1_hits), cached), "ratio"},
       {"arch.upgrades", n(c.cpu.upgrades), "count"},
       {"arch.miss_fu_local", n(c.cpu.miss_fu_local), "count"},
       {"arch.miss_node", n(c.cpu.miss_node), "count"},
       {"arch.miss_gcache", n(c.cpu.miss_gcache), "count"},
       {"arch.miss_remote", n(c.cpu.miss_remote), "count"},
       {"arch.uncached_ops", n(c.cpu.uncached_ops), "count"},
       {"arch.atomic_ops", n(c.cpu.atomic_ops), "count"},
       {"arch.writebacks", n(c.cpu.writebacks), "count"},
       {"arch.invals_sent", n(c.invals_sent), "count"},
       {"arch.l1_evictions", n(c.l1_evictions), "count"},
       {"sci.ring_packets", n(c.ring_packets), "count"},
       {"sci.purges", n(c.sci_purges), "count"},
       {"sci.purge_targets", n(c.sci_purge_targets), "count"},
       {"sci.gcache_evictions", n(c.gcache_evictions), "count"},
       {"rt.dispatches", n(c.dispatches), "count"},
       {"rt.above_arch_s", above_s, "s"},
       {"rt.dispatch_ns", ratio(above_s * 1e9, n(c.dispatches)), "ns"},
       {"rt.forkjoin_us_p50", percentile(timers.forkjoin_us, 0.50), "us"},
       {"rt.forkjoin_us_p99", percentile(timers.forkjoin_us, 0.99), "us"},
       {"rt.forks", n(t.forks), "count"},
       {"rt.sync_ops", n(t.sync_ops), "count"},
       {"rt.data_calls", n(t.data_calls), "count"},
       {"rt.workers", n(c.workers), "count"},
       {"pvm.sends", n(t.sends), "count"},
       {"pvm.recvs", n(t.recvs), "count"},
       {"pvm.send_us_p50", percentile(timers.send_us, 0.50), "us"},
       {"pvm.send_us_p99", percentile(timers.send_us, 0.99), "us"},
       {"pvm.unpack_ns_per_kb", ratio(timers.unpack_ns, timers.unpack_kb),
        "ns/KB"},
       {"memo.hits", n(c.cpu.memo_hits), "count"},
       {"memo.misses", n(c.cpu.memo_misses), "count"},
       {"memo.invalidations", n(c.cpu.memo_invalidations), "count"},
       {"sim.ms", n(c.sim_ns) * 1e-6, "ms"},
       {"trace.overhead_pct", (traced.wall_s / pass_s - 1.0) * 100.0, "%"},
       {"trace.replay_mismatches", n(t.mismatches), "count"},
       {"trace.digest_mismatches", n(digest_mismatches), "count"}});
  return 0;
}

/// Traces a small two-hypernode workload and demands exactness: every
/// replayed completion time, every digest and the transaction count.
int replay_check(const Settings& base) {
  Settings s = base;
  s.smoke = true;
  const Workload w = make_replay_check(s);
  HostTimers timers;
  const Pass plain = run_pass(w, s, timers, nullptr);
  Tracer tracer;
  const Pass traced = run_pass(w, s, timers, &tracer);
  const Tracer::Totals& t = tracer.totals();
  std::uint64_t calls = 0;
  for (const std::uint64_t k : t.calls) calls += k;
  bool digests = true;
  for (std::size_t i = 0; i < plain.cases.size(); ++i) {
    digests = digests && same_outcome(plain.cases[i], traced.cases[i]);
  }
  const std::uint64_t expected = plain.counts.transactions();
  const bool ok = plain.failed == 0 && traced.failed == 0 && calls > 0 &&
                  calls == expected && t.mismatches == 0 && digests;
  std::printf("replay-check: %zu two-hypernode cases, %" PRIu64 " of %" PRIu64
              " transactions replayed, %" PRIu64
              " mismatches, digests %s: %s\n",
              w.cases.size(), calls, expected, t.mismatches,
              digests ? "equal" : "DIFFER", ok ? "exact" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  for (const char* name : kSppEnv) {
    if (std::getenv(name) != nullptr) {
      std::fprintf(stderr,
                   "spp-perfbench: %s is set; unset it, the benchmark runs "
                   "the library defaults\n",
                   name);
      return 2;
    }
  }
  const Options o = parse(argc, argv);
  if (o.replay_check) return replay_check(o.settings);
  Workload w;
  try {
    w = make_workload(o.workload, o.settings);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }
  return run_workload(o, w);
}
