// sppsim-bench: every paper figure, ablation and acceptance workload is one
// entry of one table (harness.h), run by one CLI.
//
// Each entry runs once and ends in one record {bench, wall_ns, sim_ns,
// digest}: the simulated time of every Runtime or Machine the entry built,
// summed, and their PerfCounters digests folded in order (Run::seal).  The
// simulated time and the digest are the correctness oracle: they must be
// bit-identical across runs and against a committed baseline (--check).
// wall_ns is the only field allowed to vary between hosts and is never
// compared.
//
// Format and CI usage: docs/PERFORMANCE.md.  Exit status: 0 = ok, 1 = a
// paper-gate FAIL or a sim time or digest divergence from a baseline, 2 =
// usage or I/O error.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#ifdef __linux__
#include <sched.h>
#endif

#include "bench/harness.h"
#include "spp/apps/fem/femgas.h"
#include "spp/apps/nbody/nbody.h"
#include "spp/apps/ppm/ppm.h"
#include "spp/lib/psort.h"
#include "spp/rt/garray.h"
#include "spp/rt/runtime.h"
#include "spp/sim/rng.h"

namespace spp::bench {
namespace {

// --- acceptance workloads --------------------------------------------------
// Each is deterministic: fixed topology, fixed seeds, no host state.
// "scheduling" is conductor-switch bound (fiber switches dominate);
// the others stress the memory system through real app/library code.
// The default runs the smoke sizes, --full the full ones.

void bench_scheduling(Run& run) {
  loop_ms(run, rt::Schedule::kDynamic, /*imbalanced=*/true,
          run.full() ? 16384 : 2048, /*chunk=*/8);
}

void bench_psort(Run& run) {
  rt::Runtime runtime(arch::Topology{.nodes = 2}, arch::CostModel{});
  const std::size_t n = run.full() ? 65536 : 4096;
  rt::GlobalArray<double> data(runtime, n, arch::MemClass::kFarShared,
                               "bench.sort");
  sim::Rng rng(4242);
  for (std::size_t i = 0; i < n; ++i) data.raw(i) = rng.uniform(-100, 100);
  lib::parallel_sort(runtime, data, 8, rt::Placement::kUniform);
  run.seal(runtime);
}

void bench_scatter(Run& run) {
  scatter_ms(run, lib::ScatterStrategy::kPrivate, 1u << 14,
             run.full() ? (1u << 17) : (1u << 14), /*contended=*/false);
}

void bench_nbody(Run& run) {
  nbody::NbodyConfig cfg;
  cfg.n = run.full() ? 1024 : 256;
  cfg.steps = 2;
  run_app<nbody::NbodyShared>(run, 1, cfg, 8, rt::Placement::kHighLocality);
}

// The *_4n benches run the same scheduling and nbody codes on a
// 4-hypernode topology.

void bench_scheduling_4n(Run& run) {
  rt::Runtime runtime(arch::Topology{.nodes = 4}, arch::CostModel{});
  const std::size_t n = run.full() ? 65536 : 4096;
  rt::LoopOptions opts;
  opts.schedule = rt::Schedule::kStatic;
  runtime.run([&] {
    rt::parallel_for(runtime, n, 32, rt::Placement::kUniform, opts,
                     [&](std::size_t i) {
                       runtime.work_flops(40.0 + static_cast<double>(i & 7));
                     });
  });
  run.seal(runtime);
}

void bench_ppm(Run& run) {
  ppm::PpmConfig cfg;
  cfg.nx = run.full() ? 96 : 48;
  cfg.ny = run.full() ? 96 : 48;
  cfg.tiles_x = 2;
  cfg.tiles_y = 2;
  cfg.steps = run.full() ? 16 : 8;
  run_app<ppm::PpmTiled>(run, 2, cfg, 4, rt::Placement::kHighLocality,
                         [](ppm::PpmTiled& app) { app.init_sod_x(); });
}

void bench_fem(Run& run) {
  fem::FemConfig cfg;
  cfg.nx = run.full() ? 64 : 32;
  cfg.ny = run.full() ? 48 : 24;
  cfg.steps = run.full() ? 16 : 8;
  run_app<fem::FemGas>(run, 2, cfg, 4, rt::Placement::kHighLocality,
                       [](fem::FemGas& app) { app.init_blast(2.0, 3.0); });
}

void bench_nbody_4n(Run& run) {
  nbody::NbodyConfig cfg;
  cfg.n = run.full() ? 2048 : 512;
  cfg.steps = 2;
  run_app<nbody::NbodyShared>(run, 4, cfg, 32, rt::Placement::kUniform);
}

struct Entry {
  const char* name;
  void (*fn)(Run&);
};

constexpr Entry kEntries[] = {
    {"fig2_forkjoin", fig2_forkjoin},
    {"fig3_barrier", fig3_barrier},
    {"fig4_message", fig4_message},
    {"latency", latency},
    {"fig6_pic", fig6_pic},
    {"fig7_fem", fig7_fem},
    {"fig8_nbody", fig8_nbody},
    {"table2_ppm", table2_ppm},
    {"cache_sweep", cache_sweep},
    {"loop_schedules", loop_schedules},
    {"scatter_strategies", scatter_strategies},
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
                std::uint64_t wall_ns, const Run& run) {
  const std::string path = json_path(dir, bench);
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "sppsim-bench: cannot write %s\n", path.c_str());
    return false;
  }
  char digest_buf[32];
  std::snprintf(digest_buf, sizeof digest_buf, "0x%016" PRIx64, run.digest());
  out << "{\n"
      << "  \"bench\": \"" << bench << "\",\n"
      << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
      << "  \"host\": " << host_json() << ",\n"
      << "  \"sim_ns\": " << run.sim_ns() << ",\n"
      << "  \"digest\": \"" << digest_buf << "\",\n"
      << "  \"runs\": [\n"
      << "    {\"bench\": \"" << bench << "\", \"wall_ns\": " << wall_ns
      << ", \"sim_ns\": " << run.sim_ns() << ", \"digest\": \"" << digest_buf
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
                  const Run& run) {
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
  if (base_sim != run.sim_ns() || base_digest != run.digest()) {
    std::fprintf(stderr,
                 "sppsim-bench: %s DIVERGES from baseline: sim_ns %" PRIu64
                 " vs %" PRIu64 ", digest 0x%016" PRIx64 " vs 0x%016" PRIx64
                 "\n",
                 bench, static_cast<std::uint64_t>(run.sim_ns()), base_sim,
                 run.digest(), base_digest);
    return 1;
  }
  return 0;
}

bool known(const std::string& name) {
  return std::any_of(std::begin(kEntries), std::end(kEntries),
                     [&](const Entry& e) { return name == e.name; });
}

int usage() {
  std::fprintf(stderr,
               "usage: sppsim-bench [--full] [--bench NAME]... [--out DIR] "
               "[--check DIR]\nentries (docs/PERFORMANCE.md):\n");
  for (const Entry& e : kEntries) std::fprintf(stderr, "  %s\n", e.name);
  return 2;
}

}  // namespace
}  // namespace spp::bench

int main(int argc, char** argv) {
  using namespace spp::bench;
  bool full = false;
  std::string out_dir, check_dir;
  std::vector<std::string> only;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--full") {
      full = true;
      continue;
    }
    // Every other flag takes a non-empty value.
    if (i + 1 == argc || argv[i + 1][0] == '\0') return usage();
    const std::string value = argv[++i];
    if (arg == "--bench" && known(value)) {
      only.push_back(value);
    } else if (arg == "--out") {
      out_dir = value;
    } else if (arg == "--check") {
      check_dir = value;
    } else {
      return usage();
    }
  }

  int rc = 0;
  for (const Entry& e : kEntries) {
    if (!only.empty() &&
        std::find(only.begin(), only.end(), e.name) == only.end()) {
      continue;
    }
    Run run(full);
    const auto t0 = std::chrono::steady_clock::now();
    e.fn(run);
    const auto wall_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    std::printf("%-18s %5s | sim_ms %12.3f | digest 0x%016" PRIx64
                " | wall_ms %.1f\n",
                e.name, full ? "full" : "smoke",
                static_cast<double>(run.sim_ns()) / 1e6, run.digest(),
                static_cast<double>(wall_ns) / 1e6);
    std::fflush(stdout);  // so a stderr line below follows its record

    if (run.gate_failed()) {
      std::fprintf(stderr, "sppsim-bench: %s fails its paper gate\n", e.name);
      rc = std::max(rc, 1);
    }
    if (!out_dir.empty() && !write_json(out_dir, e.name, !full, wall_ns, run)) {
      rc = 2;
    }
    if (!check_dir.empty()) {
      rc = std::max(rc, check_against(check_dir, e.name, !full, run));
    }
  }
  return rc;
}
