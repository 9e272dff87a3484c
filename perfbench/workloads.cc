// The three perfbench workloads, taken from the paper's experiments.
//
//   apps -- section 5's shared-memory applications at reduced paper sizes:
//           PIC (Fig 6), FEM (Fig 7) and N-body (Fig 8) at 16 threads on two
//           hypernodes, PPM (Table 2) at 8 threads on one, so both the
//           classic sequencer and the phase/fusion engine carry load.
//   sync -- section 4's primitives: the Fig 2 fork-join and Fig 3 barrier
//           sweeps over 1-16 threads in both placements, plus lock handoff
//           and the dynamic self-scheduled loop of the section 7 ablation.
//   pvm  -- Fig 4's round trips from 64 B to 256 KB, local and global, plus
//           the Fig 6 PVM PIC and the section 5.3.2 PVM N-body.
//
// Sizes and trial counts follow the bench/ defaults.  The seed varies the
// apps' input seeds and blast parameters, the order of the barrier's
// arrival-stagger patterns and the PVM payloads, never the amount of work.
// Each conservation check uses the tolerance of the app's own test.
#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "perfbench.h"
#include "spp/apps/fem/femgas.h"
#include "spp/apps/nbody/nbody.h"
#include "spp/apps/nbody/nbody_pvm.h"
#include "spp/apps/pic/pic.h"
#include "spp/apps/pic/pic_pvm.h"
#include "spp/apps/ppm/ppm.h"
#include "spp/pvm/pvm.h"
#include "spp/rt/loops.h"
#include "spp/rt/sync.h"
#include "spp/sim/rng.h"

namespace perfbench {

namespace fem = spp::fem;
namespace nbody = spp::nbody;
namespace pic = spp::pic;
namespace ppm = spp::ppm;
namespace pvm = spp::pvm;

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t state = seed ^ (salt * 0x9E3779B97F4A7C15ull);
  return sim::splitmix64(state);
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

arch::Topology nodes(unsigned n) { return arch::Topology{.nodes = n}; }

/// Threads dealt over both hypernodes when there are two, packed otherwise.
rt::Placement placement_for(unsigned n_nodes) {
  return n_nodes > 1 ? rt::Placement::kUniform : rt::Placement::kHighLocality;
}

double us_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now()) * 1e6;
}

/// A paper-metric input, or NaN when its case did not record it.
double get(const Values& v, const std::string& key) {
  const auto it = v.find(key);
  return it == v.end() ? std::numeric_limits<double>::quiet_NaN()
                       : it->second;
}

std::string padded(std::uint64_t n, std::size_t width) {
  const std::string s = std::to_string(n);
  return std::string(s.size() < width ? width - s.size() : 0, '0') + s;
}

// --- apps --------------------------------------------------------------------

pic::PicConfig pic_config(const Settings& s, std::uint64_t salt) {
  pic::PicConfig cfg;  // bench_pic's reduced "large" mesh
  cfg.nx = cfg.ny = cfg.nz = s.smoke ? 8 : 16;
  cfg.steps = s.smoke ? 1 : 2;
  cfg.seed = derive_seed(s.seed, salt);
  return cfg;
}

void check_pic(CaseCtx& ctx, const pic::PicConfig& cfg,
               const pic::PicResult& res) {
  // tests/test_pic.cc: charge neutrality and momentum to 1e-9 per particle.
  const double tol = 1e-9 * static_cast<double>(cfg.particles());
  ctx.expect(std::abs(res.final.total_charge) <= tol,
             "PIC mesh charge is not neutral");
  ctx.expect(std::abs(res.final.momentum_z - res.initial.momentum_z) <= tol,
             "PIC momentum is not conserved");
}

void check_nbody(CaseCtx& ctx, const nbody::NbodyResult& res) {
  // tests/test_nbody.cc: the initial momentum is zero and drifts < 2e-3.
  const double p = std::max({std::abs(res.final.px), std::abs(res.final.py),
                             std::abs(res.final.pz)});
  ctx.expect(p <= 2e-3, "N-body momentum drifted");
  ctx.expect(std::abs(res.final.mass - 1.0) <= 1e-12, "N-body mass changed");
}

void pic_case(CaseCtx& ctx, unsigned np) {
  const pic::PicConfig cfg = pic_config(ctx.settings(), 1);
  rt::Runtime runtime(nodes(2));
  pic::PicShared app(runtime, cfg, np, rt::Placement::kUniform);
  ctx.start(runtime);
  pic::PicResult res;
  runtime.run([&] { res = app.run(); });
  ctx.finish(runtime);
  check_pic(ctx, cfg, res);
}

void fem_case(CaseCtx& ctx, unsigned np, unsigned n_nodes) {
  const Settings& s = ctx.settings();
  fem::FemConfig cfg;  // bench_fem's reduced small1 data set
  cfg.nx = s.smoke ? 16 : 64;
  cfg.ny = s.smoke ? 12 : 48;
  cfg.steps = s.smoke ? 1 : 3;
  sim::Rng rng(derive_seed(s.seed, 2));
  const double peak = rng.uniform(1.5, 2.5);
  const double radius = cfg.nx / 8.0 * rng.uniform(0.9, 1.1);
  rt::Runtime runtime(nodes(n_nodes));
  fem::FemGas app(runtime, cfg, np, placement_for(n_nodes));
  app.init_blast(peak, radius);
  ctx.start(runtime);
  fem::FemResult res;
  runtime.run([&] { res = app.run(); });
  ctx.finish(runtime);
  // tests/test_fem.cc tolerances.
  const fem::FemDiagnostics& a = res.initial;
  const fem::FemDiagnostics& b = res.final;
  ctx.expect(std::abs(b.total_mass / a.total_mass - 1.0) <= 1e-12,
             "FEM mass is not conserved");
  ctx.expect(std::abs(b.total_energy / a.total_energy - 1.0) <= 1e-12,
             "FEM energy is not conserved");
  ctx.expect(std::abs(b.total_mom_x - a.total_mom_x) <= 1e-9 &&
                 std::abs(b.total_mom_y - a.total_mom_y) <= 1e-9,
             "FEM momentum is not conserved");
  ctx.expect(b.min_density > 0 && b.min_pressure > 0,
             "FEM density or pressure is not positive");
}

void nbody_case(CaseCtx& ctx, unsigned np) {
  const Settings& s = ctx.settings();
  nbody::NbodyConfig cfg;  // bench_nbody's 4 K reference size
  cfg.n = s.smoke ? 256 : 4096;
  cfg.steps = 1;
  cfg.seed = derive_seed(s.seed, 3);
  rt::Runtime runtime(nodes(2));
  nbody::NbodyShared app(runtime, cfg, np, rt::Placement::kUniform);
  ctx.start(runtime);
  nbody::NbodyResult res;
  runtime.run([&] { res = app.run(); });
  ctx.finish(runtime);
  check_nbody(ctx, res);
  ctx.value("nbody.mflops", res.mflops);
}

void ppm_case(CaseCtx& ctx, unsigned np) {
  const Settings& s = ctx.settings();
  ppm::PpmConfig cfg;  // Table 2's 120x480 grid at bench_ppm's half scale
  cfg.nx = s.smoke ? 32 : 60;
  cfg.ny = s.smoke ? 64 : 240;
  cfg.tiles_x = s.smoke ? 2 : 4;
  cfg.tiles_y = s.smoke ? 4 : 16;
  cfg.steps = 1;
  sim::Rng rng(derive_seed(s.seed, 4));
  const double peak = rng.uniform(1.5, 2.5);
  const double radius =
      static_cast<double>(cfg.nx) / 6.0 * rng.uniform(0.9, 1.1);
  rt::Runtime runtime(nodes(1));
  ppm::PpmTiled app(runtime, cfg, np, rt::Placement::kHighLocality);
  app.init_blast(peak, radius);
  ctx.start(runtime);
  ppm::PpmResult res;
  runtime.run([&] { res = app.run(); });
  ctx.finish(runtime);
  // tests/test_ppm.cc tolerances.
  const ppm::PpmDiagnostics& a = res.initial;
  const ppm::PpmDiagnostics& b = res.final;
  ctx.expect(std::abs(b.mass / a.mass - 1.0) <= 1e-11,
             "PPM mass is not conserved");
  ctx.expect(std::abs(b.energy / a.energy - 1.0) <= 1e-11,
             "PPM energy is not conserved");
  ctx.expect(std::abs(b.mom_x - a.mom_x) <= 1e-8 &&
                 std::abs(b.mom_y - a.mom_y) <= 1e-8,
             "PPM momentum is not conserved");
  ctx.expect(b.min_rho > 0 && b.min_p > 0,
             "PPM density or pressure is not positive");
  ctx.value("ppm.mflops", res.mflops);
}

Workload apps_workload() {
  Workload w;
  w.name = "apps";
  w.cases = {
      {"pic_16p_2n", [](CaseCtx& c) { pic_case(c, 16); }},
      {"fem_16p_2n", [](CaseCtx& c) { fem_case(c, 16, 2); }},
      {"nbody_16p_2n", [](CaseCtx& c) { nbody_case(c, 16); }},
      {"ppm_4x16_8p_1n", [](CaseCtx& c) { ppm_case(c, 8); }},
  };
  w.paper = [](const Values& v) {
    // Fig 8 at 16 processors and Table 2's 4x16 tiling at 8.  The paper
    // states no PIC or FEM rate at the processor counts run here.
    return std::vector<PaperMetric>{
        {"nbody_16p_mflops", get(v, "nbody.mflops"), 384.0},
        {"ppm_4x16_8p_mflops", get(v, "ppm.mflops"), 228.5},
    };
  };
  return w;
}

// --- sync --------------------------------------------------------------------

void forkjoin_case(CaseCtx& ctx, unsigned n, rt::Placement placement,
                   const std::string& key) {
  const unsigned trials = ctx.settings().smoke ? 2 : 10;  // bench_forkjoin
  rt::Runtime runtime(nodes(2));
  ctx.start(runtime);
  std::vector<double>& host_us = ctx.timers().forkjoin_us;
  double best = kInf;
  unsigned bodies = 0;
  runtime.run([&] {
    for (unsigned k = 0; k < trials; ++k) {
      const sim::Time t0 = runtime.now();
      const Clock::time_point h0 = Clock::now();
      runtime.parallel(n, placement, [&](unsigned, unsigned) { ++bodies; });
      host_us.push_back(us_since(h0));
      best = std::min(best, sim::to_usec(runtime.now() - t0));
    }
  });
  ctx.finish(runtime);
  ctx.expect(bodies == n * trials, "fork-join ran the wrong number of bodies");
  ctx.value(key, best);
}

void barrier_case(CaseCtx& ctx, unsigned n_nodes, unsigned n,
                  rt::Placement placement, std::uint64_t salt,
                  const std::string& key) {
  const unsigned trials = ctx.settings().smoke ? 2 : 8;  // bench_barrier
  // bench_barrier staggers trial k's arrivals by pattern k.  The seed
  // permutes which trial runs which pattern: arrival orders vary, and the
  // minima over trials stay comparable with the paper's.
  std::vector<unsigned> pattern(trials);
  std::iota(pattern.begin(), pattern.end(), 0u);
  sim::Rng rng(derive_seed(ctx.settings().seed, salt));
  for (std::size_t i = pattern.size(); i > 1; --i) {
    std::swap(pattern[i - 1], pattern[rng.below(i)]);
  }
  rt::Runtime runtime(nodes(n_nodes));
  ctx.start(runtime);
  double best_lifo = kInf;
  double best_lilo = kInf;
  bool ordered = true;
  runtime.run([&] {
    rt::Barrier barrier(runtime, n);
    std::vector<sim::Time> entry(n), exit_t(n);
    for (const unsigned k : pattern) {
      runtime.parallel(n, placement, [&](unsigned i, unsigned) {
        barrier.wait();  // align first: cancels the thread-creation stagger
        runtime.work_flops(5000.0 * ((i * 5 + k * 3) % n) + 130.0 * (k % 3));
        entry[i] = runtime.now();
        barrier.wait();
        exit_t[i] = runtime.now();
      });
      const sim::Time last_in = *std::max_element(entry.begin(), entry.end());
      const sim::Time first_out =
          *std::min_element(exit_t.begin(), exit_t.end());
      const sim::Time last_out =
          *std::max_element(exit_t.begin(), exit_t.end());
      if (first_out < last_in) {
        ordered = false;
        continue;
      }
      best_lifo = std::min(best_lifo, sim::to_usec(first_out - last_in));
      best_lilo = std::min(best_lilo, sim::to_usec(last_out - last_in));
    }
  });
  ctx.finish(runtime);
  ctx.expect(ordered, "a thread left the barrier before the last one arrived");
  ctx.value(key + ".lifo", best_lifo);
  ctx.value(key + ".lilo", best_lilo);
}

void lock_case(CaseCtx& ctx) {
  const unsigned threads = 16;
  const unsigned rounds = ctx.settings().smoke ? 4 : 32;
  rt::Runtime runtime(nodes(2));
  ctx.start(runtime);
  unsigned acquired = 0;
  bool inside = false;
  bool exclusive = true;
  runtime.run([&] {
    rt::Lock lock(runtime);
    runtime.parallel(threads, rt::Placement::kUniform,
                     [&](unsigned i, unsigned) {
                       for (unsigned r = 0; r < rounds; ++r) {
                         rt::CriticalSection cs(lock);
                         exclusive = exclusive && !inside;
                         inside = true;
                         runtime.work_flops(200.0 + 50.0 * ((i + r) % 4));
                         ++acquired;
                         inside = false;
                       }
                     });
  });
  ctx.finish(runtime);
  ctx.expect(exclusive && acquired == threads * rounds,
             "lock handoff broke mutual exclusion or lost an acquisition");
}

void dynamic_loop_case(CaseCtx& ctx) {
  const std::size_t n = ctx.settings().smoke ? 512 : 4096;  // bench_scheduling
  rt::Runtime runtime(nodes(2));
  rt::LoopOptions opts;
  opts.schedule = rt::Schedule::kDynamic;
  opts.chunk = 8;
  std::vector<unsigned> runs(n, 0);
  ctx.start(runtime);
  runtime.run([&] {
    rt::parallel_for(runtime, n, 16, rt::Placement::kUniform, opts,
                     [&](std::size_t i) {
                       ++runs[i];
                       // Triangular work: the imbalance self-scheduling is for.
                       runtime.work_flops(20.0 + 0.5 * static_cast<double>(i));
                     });
  });
  ctx.finish(runtime);
  ctx.expect(std::all_of(runs.begin(), runs.end(),
                         [](unsigned r) { return r == 1; }),
             "the dynamic loop ran an iteration other than once");
}

Workload sync_workload() {
  Workload w;
  w.name = "sync";
  struct Spread {
    rt::Placement placement;
    const char* tag;
  };
  const Spread spreads[] = {{rt::Placement::kHighLocality, "hl"},
                            {rt::Placement::kUniform, "un"}};
  for (const Spread& sp : spreads) {
    for (unsigned n = 1; n <= 16; ++n) {
      const std::string key =
          std::string("fj.") + sp.tag + "." + std::to_string(n);
      w.cases.push_back(
          {std::string("forkjoin_") + sp.tag + "_" + padded(n, 2),
           [n, sp, key](CaseCtx& c) { forkjoin_case(c, n, sp.placement, key); }});
    }
  }
  std::uint64_t salt = 100;
  for (const Spread& sp : spreads) {
    for (unsigned n = 2; n <= 16; ++n) {
      const std::string key =
          std::string("bar.2n.") + sp.tag + "." + std::to_string(n);
      w.cases.push_back({std::string("barrier_2n_") + sp.tag + "_" +
                             padded(n, 2),
                         [n, sp, key, salt_k = salt++](CaseCtx& c) {
                           barrier_case(c, 2, n, sp.placement, salt_k, key);
                         }});
    }
  }
  // The single-hypernode reference curve of the authors' earlier study.
  for (unsigned n = 2; n <= 8; ++n) {
    const std::string key = "bar.1n.hl." + std::to_string(n);
    w.cases.push_back({"barrier_1n_hl_" + padded(n, 2),
                       [n, key, salt_k = salt++](CaseCtx& c) {
                         barrier_case(c, 1, n, rt::Placement::kHighLocality,
                                      salt_k, key);
                       }});
  }
  w.cases.push_back({"lock_handoff_16t_2n", lock_case});
  w.cases.push_back({"dynamic_loop_16t_2n", dynamic_loop_case});
  w.paper = [](const Values& v) {
    // The derived metrics of bench_forkjoin.cc and bench_barrier.cc.
    const double hl2 = get(v, "fj.hl.2");
    const double hl8 = get(v, "fj.hl.8");
    const double pair_hl = (hl8 - hl2) / 3.0;
    return std::vector<PaperMetric>{
        {"forkjoin_us_per_pair_high_locality", pair_hl, 10.0},
        {"forkjoin_us_per_pair_uniform",
         (get(v, "fj.un.16") - get(v, "fj.un.2")) / 7.0, 20.0},
        {"forkjoin_second_hypernode_step_us",
         get(v, "fj.hl.9") - hl8 - pair_hl, 50.0},
        {"barrier_lifo_one_node_us", get(v, "bar.1n.hl.8.lifo"), 3.5},
        {"barrier_release_slope_us_per_thread",
         (get(v, "bar.1n.hl.8.lilo") - get(v, "bar.1n.hl.2.lilo")) / 6.0,
         2.0},
    };
  };
  return w;
}

// --- pvm ---------------------------------------------------------------------

void round_trip_case(CaseCtx& ctx, unsigned n_nodes, std::size_t bytes,
                     std::uint64_t salt, const std::string& key) {
  const unsigned trials = ctx.settings().smoke ? 2 : 6;  // bench_message
  sim::Rng rng(derive_seed(ctx.settings().seed, salt));
  std::vector<double> payload(bytes / sizeof(double));
  for (double& x : payload) x = rng.uniform(-1.0, 1.0);
  rt::Runtime runtime(nodes(n_nodes));
  ctx.start(runtime);
  HostTimers& timers = ctx.timers();
  double best = kInf;
  bool intact = true;
  runtime.run([&] {
    pvm::Pvm root(runtime);
    root.spawn(2, placement_for(n_nodes), [&](pvm::Pvm& vm, int me, int) {
      if (me != 0) {
        for (unsigned k = 0; k <= trials; ++k) {
          vm.send(0, 2, vm.recv(0, 1));  // echo without unpacking
        }
        return;
      }
      std::vector<double> back(payload.size());
      for (unsigned k = 0; k <= trials; ++k) {
        pvm::Message m;
        m.pack(payload.data(), payload.size());
        const sim::Time t0 = runtime.now();
        const Clock::time_point h0 = Clock::now();
        vm.send(1, 1, std::move(m));
        timers.send_us.push_back(us_since(h0));
        pvm::Message reply = vm.recv(1, 2);
        // Trial 0 warms up, as in bench_message.
        if (k > 0) best = std::min(best, sim::to_usec(runtime.now() - t0));
        // The paper's round trip excludes unpacking, so it follows the
        // timed window.
        const Clock::time_point u0 = Clock::now();
        reply.unpack(back.data(), back.size());
        timers.unpack_ns += us_since(u0) * 1e3;
        timers.unpack_kb += static_cast<double>(bytes) / 1024.0;
        intact = intact && back == payload;
      }
    });
  });
  ctx.finish(runtime);
  ctx.expect(intact, "a PVM payload changed in a round trip");
  ctx.value(key, best);
}

void pic_pvm_case(CaseCtx& ctx, unsigned ntasks) {
  const pic::PicConfig cfg = pic_config(ctx.settings(), 5);
  rt::Runtime runtime(nodes(2));
  pic::PicPvm app(runtime, cfg, ntasks, rt::Placement::kUniform);
  ctx.start(runtime);
  pic::PicResult res;
  runtime.run([&] { res = app.run(); });
  ctx.finish(runtime);
  check_pic(ctx, cfg, res);
}

void nbody_pvm_case(CaseCtx& ctx, unsigned ntasks) {
  const Settings& s = ctx.settings();
  nbody::NbodyConfig cfg;  // bench_nbody's section 5.3.2 comparison
  cfg.n = s.smoke ? 256 : 2048;
  cfg.steps = s.smoke ? 1 : 3;
  cfg.theta = 1.1;
  cfg.seed = derive_seed(s.seed, 6);
  rt::Runtime runtime(nodes(2));
  nbody::NbodyPvm app(runtime, cfg, ntasks, rt::Placement::kUniform);
  ctx.start(runtime);
  nbody::NbodyResult res;
  runtime.run([&] { res = app.run(); });
  ctx.finish(runtime);
  check_nbody(ctx, res);
}

Workload pvm_workload(const Settings& s) {
  Workload w;
  w.name = "pvm";
  std::vector<std::size_t> sizes;
  if (s.smoke) {
    sizes = {64, 1024, 16384};
  } else {
    for (std::size_t b = 64; b <= (std::size_t{256} << 10); b *= 2) {
      sizes.push_back(b);
    }
  }
  std::uint64_t salt = 200;
  for (const unsigned n_nodes : {1u, 2u}) {
    const std::string where = n_nodes == 1 ? "local" : "global";
    for (const std::size_t bytes : sizes) {
      const std::string key = "rt." + where + "." + std::to_string(bytes);
      w.cases.push_back({"roundtrip_" + where + "_" + padded(bytes, 6),
                         [n_nodes, bytes, key, salt_k = salt++](CaseCtx& c) {
                           round_trip_case(c, n_nodes, bytes, salt_k, key);
                         }});
    }
  }
  w.cases.push_back({"pic_pvm_8t_2n", [](CaseCtx& c) { pic_pvm_case(c, 8); }});
  w.cases.push_back(
      {"nbody_pvm_8t_2n", [](CaseCtx& c) { nbody_pvm_case(c, 8); }});
  w.paper = [](const Values& v) {
    // bench_message.cc's derived metrics.
    const double local = get(v, "rt.local.1024");
    const double global = get(v, "rt.global.1024");
    return std::vector<PaperMetric>{
        {"roundtrip_1kb_local_us", local, 30.0},
        {"roundtrip_1kb_global_us", global, 70.0},
        {"roundtrip_1kb_global_local_ratio", global / local, 2.3},
    };
  };
  return w;
}

}  // namespace

Workload make_workload(const std::string& name, const Settings& settings) {
  if (name == "apps") return apps_workload();
  if (name == "sync") return sync_workload();
  if (name == "pvm") return pvm_workload(settings);
  throw std::invalid_argument("unknown workload '" + name +
                              "' (apps, sync, pvm)");
}

Workload make_replay_check(const Settings&) {
  Workload w;
  w.name = "replay-check";
  w.cases = {
      {"fem_8p_2n", [](CaseCtx& c) { fem_case(c, 8, 2); }},
      {"barrier_2n_un_08",
       [](CaseCtx& c) {
         barrier_case(c, 2, 8, rt::Placement::kUniform, 1, "bar");
       }},
  };
  w.paper = [](const Values&) { return std::vector<PaperMetric>{}; };
  return w;
}

}  // namespace perfbench
