// sppsim-bench: wall-clock benchmark harness for the simulator itself.
//
// Runs a fixed set of deterministic workloads once each and times the HOST
// wall clock, emitting one BENCH_<name>.json per bench with a record of
// {bench, wall_ns, sim_ns, digest}.  The simulated time and the
// whole-machine PerfCounters digest are the correctness oracle: they must be
// bit-identical across runs and against a committed baseline (--check).
// wall_ns is the only field allowed to vary between hosts and is never
// compared.
//
// Format and CI usage: docs/PERFORMANCE.md.  Exit status: 0 = ok, 1 = sim
// time or digest divergence from a baseline, 2 = usage or I/O error.
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#ifdef __linux__
#include <sched.h>
#endif

#include "spp/apps/fem/femgas.h"
#include "spp/apps/nbody/nbody.h"
#include "spp/apps/ppm/ppm.h"
#include "spp/ckpt/durable.h"
#include "spp/lib/psort.h"
#include "spp/lib/scatter_add.h"
#include "spp/rt/garray.h"
#include "spp/rt/loops.h"
#include "spp/rt/runtime.h"
#include "spp/sim/rng.h"

namespace {

using namespace spp;

struct Measurement {
  sim::Time sim_ns = 0;
  std::uint64_t digest = 0;
};

/// Durable-checkpoint options for the nbody app bench (docs/RECOVERY.md).
/// Disabled by default; when disabled the plain run() path executes and the
/// benches stay bit-identical to their committed baselines.
ckpt::DurableSpec g_durable;

Measurement seal(rt::Runtime& runtime) {
  return {runtime.elapsed(),
          runtime.machine().perf().digest(runtime.elapsed())};
}

// --- workloads -------------------------------------------------------------
// Each bench is deterministic: fixed topology, fixed seeds, no host state.
// "scheduling" is conductor-switch bound (fiber switches dominate);
// the others stress the memory system through real app/library code.

Measurement bench_scheduling(bool smoke) {
  rt::Runtime runtime(arch::Topology{.nodes = 2}, arch::CostModel{});
  const std::size_t n = smoke ? 2048 : 16384;
  rt::LoopOptions opts;
  opts.schedule = rt::Schedule::kDynamic;
  opts.chunk = 8;
  runtime.run([&] {
    rt::parallel_for(runtime, n, 16, rt::Placement::kUniform, opts,
                     [&](std::size_t i) {
                       runtime.work_flops(20.0 + static_cast<double>(i) * 0.5);
                     });
  });
  return seal(runtime);
}

Measurement bench_psort(bool smoke) {
  rt::Runtime runtime(arch::Topology{.nodes = 2}, arch::CostModel{});
  const std::size_t n = smoke ? 4096 : 65536;
  rt::GlobalArray<double> data(runtime, n, arch::MemClass::kFarShared,
                               "bench.sort");
  sim::Rng rng(4242);
  for (std::size_t i = 0; i < n; ++i) data.raw(i) = rng.uniform(-100, 100);
  lib::parallel_sort(runtime, data, 8, rt::Placement::kUniform);
  return seal(runtime);
}

Measurement bench_scatter(bool smoke) {
  rt::Runtime runtime(arch::Topology{.nodes = 2}, arch::CostModel{});
  const std::size_t n = 1u << 14;
  const std::size_t m = smoke ? (1u << 14) : (1u << 17);
  rt::GlobalArray<double> target(runtime, n, arch::MemClass::kFarShared,
                                 "bench.scatter");
  sim::Rng rng(99);
  std::vector<std::int32_t> idx(m);
  std::vector<double> val(m, 1.0);
  for (std::size_t k = 0; k < m; ++k) {
    idx[k] = static_cast<std::int32_t>(rng.below(n));
  }
  lib::scatter_add(runtime, target, idx, val, 16, rt::Placement::kUniform,
                   lib::ScatterStrategy::kPrivate);
  return seal(runtime);
}

Measurement bench_nbody(bool smoke) {
  rt::Runtime runtime(arch::Topology{.nodes = 1}, arch::CostModel{});
  nbody::NbodyConfig cfg;
  cfg.n = smoke ? 256 : 1024;
  cfg.steps = 2;
  nbody::NbodyShared nb(runtime, cfg, 8, rt::Placement::kHighLocality);
  runtime.run([&] {
    if (g_durable.enabled()) {
      (void)nb.run_durable(g_durable);
    } else {
      (void)nb.run();
    }
  });
  return seal(runtime);
}

// The *_4n benches run the same scheduling and nbody codes on a
// 4-hypernode topology.

Measurement bench_scheduling_4n(bool smoke) {
  rt::Runtime runtime(arch::Topology{.nodes = 4}, arch::CostModel{});
  const std::size_t n = smoke ? 4096 : 65536;
  rt::LoopOptions opts;
  opts.schedule = rt::Schedule::kStatic;
  runtime.run([&] {
    rt::parallel_for(runtime, n, 32, rt::Placement::kUniform, opts,
                     [&](std::size_t i) {
                       runtime.work_flops(40.0 + static_cast<double>(i & 7));
                     });
  });
  return seal(runtime);
}

Measurement bench_ppm(bool smoke) {
  rt::Runtime runtime(arch::Topology{.nodes = 2}, arch::CostModel{});
  ppm::PpmConfig cfg;
  cfg.nx = smoke ? 48 : 96;
  cfg.ny = smoke ? 48 : 96;
  cfg.tiles_x = 2;
  cfg.tiles_y = 2;
  cfg.steps = smoke ? 8 : 16;
  ppm::PpmTiled app(runtime, cfg, 4, rt::Placement::kHighLocality);
  app.init_sod_x();
  runtime.run([&] { (void)app.run(); });
  return seal(runtime);
}

Measurement bench_fem(bool smoke) {
  rt::Runtime runtime(arch::Topology{.nodes = 2}, arch::CostModel{});
  fem::FemConfig cfg;
  cfg.nx = smoke ? 32 : 64;
  cfg.ny = smoke ? 24 : 48;
  cfg.steps = smoke ? 8 : 16;
  fem::FemGas app(runtime, cfg, 4, rt::Placement::kHighLocality);
  app.init_blast(2.0, 3.0);
  runtime.run([&] { (void)app.run(); });
  return seal(runtime);
}

Measurement bench_nbody_4n(bool smoke) {
  rt::Runtime runtime(arch::Topology{.nodes = 4}, arch::CostModel{});
  nbody::NbodyConfig cfg;
  cfg.n = smoke ? 512 : 2048;
  cfg.steps = 2;
  nbody::NbodyShared nb(runtime, cfg, 32, rt::Placement::kUniform);
  runtime.run([&] { (void)nb.run(); });
  return seal(runtime);
}

struct BenchDef {
  const char* name;
  Measurement (*fn)(bool);
};

constexpr BenchDef kBenches[] = {
    {"scheduling", bench_scheduling},
    {"psort", bench_psort},
    {"scatter", bench_scatter},
    {"nbody", bench_nbody},
    {"ppm", bench_ppm},
    {"fem", bench_fem},
    {"scheduling_4n", bench_scheduling_4n},
    {"nbody_4n", bench_nbody_4n},
};

// --- harness ---------------------------------------------------------------

struct RunRecord {
  std::uint64_t wall_ns = 0;
  Measurement m;
};

RunRecord timed_run(const BenchDef& b, bool smoke) {
  const auto t0 = std::chrono::steady_clock::now();
  const Measurement m = b.fn(smoke);
  const auto t1 = std::chrono::steady_clock::now();
  return {static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                  .count()),
          m};
}

std::string json_path(const std::string& dir, const char* bench) {
  return dir + "/BENCH_" + bench + ".json";
}

/// Host execution context, recorded purely for interpreting wall_ns across
/// machines (a bench timed on 4 pinned cores is not comparable to one on 64
/// free ones).  Informational only: --check never reads these fields.
std::string host_json() {
  std::ostringstream out;
  out << "{\"cpus\": " << std::thread::hardware_concurrency();
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    out << ", \"affinity_cpus\": " << CPU_COUNT(&set);
    // Mask of the first 64 host CPUs, hex, LSB = CPU 0.
    std::uint64_t mask = 0;
    for (int c = 0; c < 64; ++c) {
      if (CPU_ISSET(c, &set)) mask |= std::uint64_t{1} << c;
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%" PRIx64, mask);
    out << ", \"affinity_mask\": \"" << buf << "\"";
  }
#endif
  out << "}";
  return out.str();
}

bool write_json(const std::string& dir, const char* bench, bool smoke,
                const RunRecord& r) {
  const std::string path = json_path(dir, bench);
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "sppsim-bench: cannot write %s\n", path.c_str());
    return false;
  }
  char digest_buf[32];
  std::snprintf(digest_buf, sizeof digest_buf, "0x%016" PRIx64, r.m.digest);
  out << "{\n"
      << "  \"bench\": \"" << bench << "\",\n"
      << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
      << "  \"host\": " << host_json() << ",\n"
      << "  \"sim_ns\": " << r.m.sim_ns << ",\n"
      << "  \"digest\": \"" << digest_buf << "\",\n"
      << "  \"runs\": [\n"
      << "    {\"bench\": \"" << bench << "\", \"wall_ns\": " << r.wall_ns
      << ", \"sim_ns\": " << r.m.sim_ns << ", \"digest\": \"" << digest_buf
      << "\"}\n"
      << "  ]\n}\n";
  return static_cast<bool>(out);
}

/// Minimal extractor for the flat JSON this tool writes: finds the FIRST
/// occurrence of `"key":` and parses the value with strtoull (base 0, so
/// quoted "0x..." digests work after skipping the quote).
bool find_u64(const std::string& text, const std::string& key,
              std::uint64_t* out) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = text.find(needle);
  if (at == std::string::npos) return false;
  std::size_t p = at + needle.size();
  while (p < text.size() && (text[p] == ' ' || text[p] == '"')) ++p;
  if (p >= text.size()) return false;
  *out = std::strtoull(text.c_str() + p, nullptr, 0);
  return true;
}

bool find_bool(const std::string& text, const std::string& key, bool* out) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = text.find(needle);
  if (at == std::string::npos) return false;
  *out = text.compare(at + needle.size(), 5, " true") == 0;
  return true;
}

/// Compares this run's canonical sim time + digest against a committed
/// BENCH_<name>.json.  Wall time is never compared.
int check_against(const std::string& dir, const char* bench, bool smoke,
                  const Measurement& m) {
  const std::string path = json_path(dir, bench);
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "sppsim-bench: no baseline %s\n", path.c_str());
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  bool base_smoke = false;
  std::uint64_t base_sim = 0;
  std::uint64_t base_digest = 0;
  if (!find_bool(text, "smoke", &base_smoke) ||
      !find_u64(text, "sim_ns", &base_sim) ||
      !find_u64(text, "digest", &base_digest)) {
    std::fprintf(stderr, "sppsim-bench: malformed baseline %s\n",
                 path.c_str());
    return 2;
  }
  if (base_smoke != smoke) {
    std::fprintf(stderr,
                 "sppsim-bench: %s baseline is a %s run but this is a %s "
                 "run; sizes differ\n",
                 bench, base_smoke ? "smoke" : "full",
                 smoke ? "smoke" : "full");
    return 2;
  }
  if (base_sim != m.sim_ns || base_digest != m.digest) {
    std::fprintf(stderr,
                 "sppsim-bench: %s DIVERGES from baseline: sim_ns %" PRIu64
                 " vs %" PRIu64 ", digest 0x%016" PRIx64 " vs 0x%016" PRIx64
                 "\n",
                 bench, static_cast<std::uint64_t>(m.sim_ns), base_sim,
                 m.digest, base_digest);
    return 1;
  }
  return 0;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: sppsim-bench [--smoke] [--bench NAME]...\n"
      "                    [--out DIR | --check DIR]\n"
      "                    [--ckpt-dir DIR [--ckpt-wall-interval SEC] "
      "[--resume]]\n"
      "\n"
      "Benches: scheduling psort scatter nbody ppm fem scheduling_4n\n"
      "nbody_4n\n"
      "(default: all).\n"
      "--out writes BENCH_<name>.json baselines; --check compares\n"
      "against committed ones (sim time + digest only; wall time is\n"
      "informational).\n"
      "--ckpt-dir makes the nbody bench a durable run (epoch commits to\n"
      "disk, bit-exact --resume; docs/RECOVERY.md) -- its digest then\n"
      "includes the checkpoint charges, so don't mix with --check against\n"
      "non-durable baselines.\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_dir = ".";
  std::string check_dir;
  bool checking = false;
  std::vector<std::string> only;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--bench") {
      const char* v = value();
      if (v == nullptr) return usage();
      only.emplace_back(v);
    } else if (arg == "--out") {
      const char* v = value();
      if (v == nullptr) return usage();
      out_dir = v;
    } else if (arg == "--check") {
      const char* v = value();
      if (v == nullptr) return usage();
      check_dir = v;
      checking = true;
    } else if (arg == "--ckpt-dir") {
      const char* v = value();
      if (v == nullptr) return usage();
      g_durable.dir = v;
    } else if (arg == "--ckpt-wall-interval") {
      const char* v = value();
      if (v == nullptr) return usage();
      g_durable.wall_interval = std::atof(v);
    } else if (arg == "--resume") {
      g_durable.resume = true;
    } else {
      return usage();
    }
  }
  if (!g_durable.enabled() && (g_durable.resume || g_durable.wall_interval > 0)) {
    std::fprintf(stderr,
                 "sppsim-bench: --resume/--ckpt-wall-interval need "
                 "--ckpt-dir\n");
    return usage();
  }

  std::printf("%-16s %6s | %12s %18s | wall ms\n", "bench", "mode", "sim_ms",
              "digest");
  int rc = 0;
  for (const BenchDef& b : kBenches) {
    if (!only.empty()) {
      bool wanted = false;
      for (const std::string& name : only) wanted = wanted || name == b.name;
      if (!wanted) continue;
    }

    const RunRecord run = timed_run(b, smoke);
    std::printf("%-16s %6s | %12.3f 0x%016" PRIx64 " | %.1f\n", b.name,
                smoke ? "smoke" : "full",
                static_cast<double>(run.m.sim_ns) / 1e6, run.m.digest,
                static_cast<double>(run.wall_ns) / 1e6);

    if (checking) {
      const int c = check_against(check_dir, b.name, smoke, run.m);
      if (rc == 0) rc = c;
    } else {
      if (!write_json(out_dir, b.name, smoke, run)) rc = 2;
    }
  }
  return rc;
}
