// sppsim-explore: interactive probe tool for the simulated SPP-1000.
//
//   sppsim-explore latency  [--nodes N] [--l1-kb K]
//   sppsim-explore forkjoin [--nodes N] [--threads T]
//   sppsim-explore barrier  [--nodes N] [--threads T]
//   sppsim-explore message  [--nodes N] [--bytes B]
//   sppsim-explore chaos    [--nodes N] [--bytes B] [--rounds R]
//   sppsim-explore chaos-disk [--nodes N] [--threads T]
//   sppsim-explore check    [--nodes N] [--threads T]
//   sppsim-explore survive  [--nodes N] [--threads T]
//   sppsim-explore run      --app APP [--steps S] [--ckpt-dir DIR] [--resume]
//   sppsim-explore map      [--nodes N]
//
// Any runtime-backed command accepts --fault-plan FILE (docs/FAULTS.md) to
// run under injected faults; `chaos` uses a built-in lossy plan when no file
// is given, verifies every payload round-trips intact under full checking,
// and prints the fault/recovery counters afterwards.  `survive` kills a CPU
// mid-run in all four applications with checkpointing enabled, verifies each
// one recovers to the fault-free answer, then SIGKILLs whole durable runs
// mid-flight and verifies --resume reproduces the uninterrupted digest
// (docs/RECOVERY.md).  Both exit nonzero on divergence or an oracle firing.
//
// `chaos-disk` is `survive`'s host-filesystem sibling (docs/RECOVERY.md,
// "Host I/O faults & the degradation ladder"): one soak scenario per
// injected fault class -- EIO, short write, fsync failure, persistent
// ENOSPC, torn rename, read-side bit rot -- each a forked durable run that
// is SIGKILLed mid-flight and/or degrades, then resumed; every resume must
// reach the uninterrupted run's exact PerfCounters digest and never load a
// corrupt epoch.  Exits nonzero on any divergence.
//
// `run` executes one application end to end and prints its PerfCounters
// digest.  With --ckpt-dir it is a durable run: epochs are committed to disk
// (docs/RECOVERY.md), SIGINT/SIGTERM flush a final checkpoint and exit at the
// next boundary, and --resume continues a killed run bit-exactly.
// --watchdog SEC aborts (exit 3) with a wait-for report if the simulation
// stops making progress for that many wall-seconds.
//
// Exit codes are pinned in spp/rt/exit_codes.h: 0 ok, 1 scenario failure,
// 2 usage, 3 watchdog stall, 4 permanent-I/O degradation.
//
// A release-style CLI for quick what-if questions ("what does the remote
// miss cost on an 8-node machine with 256 KB caches?") without writing a
// program against the library.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "spp/apps/fem/femgas.h"
#include "spp/apps/nbody/nbody.h"
#include "spp/apps/nbody/nbody_pvm.h"
#include "spp/apps/pic/pic.h"
#include "spp/apps/pic/pic_pvm.h"
#include "spp/apps/ppm/ppm.h"
#include "spp/arch/machine.h"
#include "spp/check/check.h"
#include "spp/ckpt/durable.h"
#include "spp/fault/fault.h"
#include "spp/io/io.h"
#include "spp/prof/profiler.h"
#include "spp/pvm/pvm.h"
#include "spp/rt/exit_codes.h"
#include "spp/rt/runtime.h"
#include "spp/rt/sync.h"
#include "spp/rt/watchdog.h"

using namespace spp;

namespace {

constexpr const char kUsage[] =
    "usage: sppsim-explore "
    "latency|forkjoin|barrier|message|chaos|chaos-disk|check|survive|run|"
    "map\n"
    "  common:  [--nodes N] [--threads T] [--bytes B] [--l1-kb K]\n"
    "           [--rounds R] [--fault-plan FILE]\n"
    "  run:     --app nbody|fem|pic|ppm|nbody-pvm|pic-pvm [--steps S]\n"
    "           [--ckpt-dir DIR] [--ckpt-interval K] "
    "[--ckpt-wall-interval SEC]\n"
    "           [--resume] [--watchdog SEC] [--kill-after-writes N]\n"
    "  exit:    0 ok, 1 failure, 2 usage, 3 watchdog stall, 4 permanent\n"
    "           host-I/O degradation (spp/rt/exit_codes.h)\n";

struct Args {
  std::string cmd = "latency";
  unsigned nodes = 2;
  unsigned threads = 8;
  std::size_t bytes = 1024;
  std::uint64_t l1_kb = 1024;
  unsigned rounds = 64;
  std::string fault_plan;  ///< path to a text fault plan, "" = none.
  // `run` subcommand (durable checkpoints; docs/RECOVERY.md):
  std::string app = "nbody";
  unsigned steps = 0;               ///< 0 = the app's default.
  std::string ckpt_dir;             ///< "" = durability off.
  std::uint64_t ckpt_interval = 1;  ///< sim steps per epoch.
  double ckpt_wall = 0.0;           ///< min wall-seconds between disk writes.
  bool resume = false;
  double watchdog = 0.0;            ///< stall abort threshold, 0 = off.
  unsigned kill_after_writes = 0;   ///< test hook: SIGKILL self after N commits.

  /// Strict parse: unknown subcommands or flags, flags missing their value,
  /// and numeric values that are negative, not a number or out of range all
  /// fail, and the caller exits 2 with the usage line.
  static bool parse(int argc, char** argv, Args& a) {
    int i = 1;
    if (i < argc && argv[i][0] != '-') a.cmd = argv[i++];
    static const char* kCmds[] = {"latency",    "forkjoin", "barrier",
                                  "message",    "chaos",    "chaos-disk",
                                  "check",      "survive",  "run",
                                  "map"};
    if (std::find_if(std::begin(kCmds), std::end(kCmds), [&](const char* c) {
          return a.cmd == c;
        }) == std::end(kCmds)) {
      std::fprintf(stderr, "sppsim-explore: unknown command '%s'\n",
                   a.cmd.c_str());
      return false;
    }
    for (; i < argc; ++i) {
      const std::string flag = argv[i];
      const auto value = [&]() -> const char* {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "sppsim-explore: %s needs a value\n",
                       flag.c_str());
          return nullptr;
        }
        return argv[++i];
      };
      // The whole value must be a decimal integer in [lo, hi].
      const auto integer = [&](auto& field, std::uint64_t lo,
                               std::uint64_t hi) {
        const char* v = value();
        if (v == nullptr) return false;
        char* end = nullptr;
        errno = 0;
        const unsigned long long x = std::strtoull(v, &end, 10);
        if (!std::isdigit(static_cast<unsigned char>(*v)) || *end != '\0' ||
            errno != 0 || x < lo || x > hi) {
          std::fprintf(stderr,
                       "sppsim-explore: %s needs an integer in %llu..%llu, "
                       "got '%s'\n",
                       flag.c_str(), static_cast<unsigned long long>(lo),
                       static_cast<unsigned long long>(hi), v);
          return false;
        }
        field = static_cast<std::remove_reference_t<decltype(field)>>(x);
        return true;
      };
      // The whole value must be a finite, non-negative number of seconds.
      const auto seconds = [&](double& field) {
        const char* v = value();
        if (v == nullptr) return false;
        char* end = nullptr;
        const double x = std::strtod(v, &end);
        if (end == v || *end != '\0' || !std::isfinite(x) || x < 0) {
          std::fprintf(stderr,
                       "sppsim-explore: %s needs a non-negative number of "
                       "seconds, got '%s'\n",
                       flag.c_str(), v);
          return false;
        }
        field = x;
        return true;
      };
      constexpr std::uint64_t kUintMax = std::numeric_limits<unsigned>::max();
      const char* v = nullptr;
      bool ok = true;
      if (flag == "--nodes") {
        ok = integer(a.nodes, 1, 16);
      } else if (flag == "--threads") {
        ok = integer(a.threads, 1, kUintMax);
      } else if (flag == "--bytes") {
        ok = integer(a.bytes, 0, kUintMax);
      } else if (flag == "--l1-kb") {
        ok = integer(a.l1_kb, 1, kUintMax);
      } else if (flag == "--rounds") {
        ok = integer(a.rounds, 0, kUintMax);
      } else if (flag == "--fault-plan") {
        if (!(v = value())) return false;
        a.fault_plan = v;
      } else if (flag == "--app") {
        if (!(v = value())) return false;
        a.app = v;
      } else if (flag == "--steps") {
        ok = integer(a.steps, 0, kUintMax);
      } else if (flag == "--ckpt-dir") {
        if (!(v = value())) return false;
        a.ckpt_dir = v;
      } else if (flag == "--ckpt-interval") {
        ok = integer(a.ckpt_interval, 0, kUintMax);
      } else if (flag == "--ckpt-wall-interval") {
        ok = seconds(a.ckpt_wall);
      } else if (flag == "--resume") {
        a.resume = true;
      } else if (flag == "--watchdog") {
        ok = seconds(a.watchdog);
      } else if (flag == "--kill-after-writes") {
        ok = integer(a.kill_after_writes, 0, kUintMax);
      } else {
        std::fprintf(stderr, "sppsim-explore: unknown option '%s'\n",
                     flag.c_str());
        return false;
      }
      if (!ok) return false;
    }
    static const char* kApps[] = {"nbody", "fem",       "pic",
                                  "ppm",   "nbody-pvm", "pic-pvm"};
    if (a.cmd == "run" &&
        std::find_if(std::begin(kApps), std::end(kApps), [&](const char* c) {
          return a.app == c;
        }) == std::end(kApps)) {
      std::fprintf(stderr, "sppsim-explore: unknown app '%s'\n", a.app.c_str());
      return false;
    }
    if (a.rounds < 1) a.rounds = 1;
    if (a.ckpt_interval < 1) a.ckpt_interval = 1;
    return true;
  }
};

arch::CostModel cost_for(const Args& a) {
  arch::CostModel cm;
  cm.l1_bytes = a.l1_kb << 10;
  return cm;
}

/// Loads --fault-plan and attaches it to `runtime`; null when flag absent.
std::unique_ptr<fault::FaultInjector> injector_for(const Args& a,
                                                   rt::Runtime& runtime) {
  if (a.fault_plan.empty()) return nullptr;
  auto inj = std::make_unique<fault::FaultInjector>(
      fault::FaultPlan::from_file(a.fault_plan));
  inj->attach(runtime);
  return inj;
}

int cmd_latency(const Args& a) {
  arch::Machine m(arch::Topology{.nodes = a.nodes}, cost_for(a));
  std::printf("machine: %u hypernodes, %u CPUs, L1 %llu KB\n\n", a.nodes,
              m.topo().num_cpus(),
              static_cast<unsigned long long>(a.l1_kb));
  const auto probe = [&](const char* what, unsigned home,
                         sim::Time at) -> void {
    const arch::VAddr va = m.vm().allocate(
        64 * arch::kLineBytes, arch::MemClass::kNearShared, "probe", home);
    sim::Time t = at;
    double sum = 0;
    for (unsigned k = 0; k < 64; ++k) {
      const sim::Time t2 = m.access(0, va + k * arch::kLineBytes, false, t);
      sum += static_cast<double>(sim::to_cycles(t2 - t));
      t = t2;
    }
    std::printf("  %-28s %7.1f cycles\n", what, sum / 64);
  };
  {
    const arch::VAddr va = m.vm().allocate(
        arch::kLineBytes, arch::MemClass::kNearShared, "hit", 0);
    sim::Time t = m.access(0, va, false, 0);
    const sim::Time t2 = m.access(0, va, false, t);
    std::printf("  %-28s %7.1f cycles\n", "cache hit",
                static_cast<double>(sim::to_cycles(t2 - t)));
  }
  probe("hypernode-local miss", 0, 1000000);
  if (a.nodes > 1) probe("remote-hypernode miss", 1, 50000000);
  return 0;
}

int cmd_forkjoin(const Args& a) {
  rt::Runtime runtime(arch::Topology{.nodes = a.nodes}, cost_for(a));
  const auto inj = injector_for(a, runtime);
  runtime.run([&] {
    const sim::Time t0 = runtime.now();
    runtime.parallel(a.threads, rt::Placement::kUniform,
                     [](unsigned, unsigned) {});
    std::printf("fork-join of %u threads (uniform): %.1f us\n", a.threads,
                sim::to_usec(runtime.now() - t0));
  });
  return 0;
}

int cmd_barrier(const Args& a) {
  rt::Runtime runtime(arch::Topology{.nodes = a.nodes}, cost_for(a));
  const auto inj = injector_for(a, runtime);
  runtime.run([&] {
    rt::Barrier barrier(runtime, a.threads);
    sim::Time t0 = 0;
    runtime.parallel(a.threads, rt::Placement::kUniform,
                     [&](unsigned tid, unsigned) {
                       barrier.wait();  // warm/align
                       if (tid == 0) t0 = runtime.now();
                       barrier.wait();
                       if (tid == 0) {
                         std::printf("barrier of %u threads: %.2f us "
                                     "(thread 0 view)\n",
                                     a.threads,
                                     sim::to_usec(runtime.now() - t0));
                       }
                     });
  });
  return 0;
}

int cmd_message(const Args& a) {
  rt::Runtime runtime(arch::Topology{.nodes = a.nodes}, cost_for(a));
  const auto inj = injector_for(a, runtime);
  runtime.run([&] {
    pvm::Pvm root(runtime);
    root.spawn(2, rt::Placement::kUniform, [&](pvm::Pvm& vm, int me, int) {
      std::vector<double> buf(a.bytes / 8 + 1, 1.0);
      if (me == 0) {
        pvm::Message m;
        m.pack(buf.data(), buf.size());
        const sim::Time t0 = runtime.now();
        vm.send(1, 1, std::move(m));
        vm.recv(1, 2);
        std::printf("PVM round trip, %zu bytes, %s: %.1f us\n", a.bytes,
                    a.nodes > 1 ? "cross-node" : "local",
                    sim::to_usec(runtime.now() - t0));
      } else {
        pvm::Message m = vm.recv(0, 1);
        m.tag = 2;
        vm.send(0, 2, std::move(m));
      }
    });
  });
  return 0;
}

int cmd_chaos(const Args& a) {
  rt::Runtime runtime(arch::Topology{.nodes = a.nodes}, cost_for(a));
  fault::FaultPlan plan;
  if (a.fault_plan.empty()) {
    // Built-in demo plan: 1% loss from the start, one dead ring link and a
    // degraded one partway in, and a CPU fail-stop if we have spares.
    plan.pvm_loss(0, 0.01, 0.005, 0.005, 20000);
    plan.link_down(1000000, 0, 0);
    plan.link_degrade(1000000, 1, 0, 4);
    if (runtime.topo().num_cpus() > 2) plan.cpu_fail(2000000, 1);
  } else {
    plan = fault::FaultPlan::from_file(a.fault_plan);
  }
  fault::FaultInjector inj(plan);
  inj.attach(runtime);
  check::Checker checker(runtime);

  // Every payload word is round-trip verified: a lossy/duplicating fabric
  // must still deliver each message exactly once and bit-intact.
  std::uint64_t corrupt = 0;
  runtime.run([&] {
    pvm::Pvm root(runtime);
    root.spawn(2, rt::Placement::kUniform, [&](pvm::Pvm& vm, int me, int) {
      const std::size_t words = a.bytes / 8 + 1;
      for (unsigned r = 0; r < a.rounds; ++r) {
        const double fill = 1.0 + static_cast<double>(r);
        if (me == 0) {
          std::vector<double> buf(words, fill);
          pvm::Message m;
          m.pack(buf.data(), buf.size());
          vm.send(1, 1, std::move(m));
          pvm::Message back = vm.recv(1, 2);
          std::vector<double> echo(words, 0.0);
          back.unpack(echo.data(), echo.size());
          for (const double v : echo) {
            if (v != fill) ++corrupt;
          }
        } else {
          pvm::Message m = vm.recv(0, 1);
          std::vector<double> got(words, 0.0);
          m.unpack(got.data(), got.size());
          for (const double v : got) {
            if (v != fill) ++corrupt;
          }
          pvm::Message reply;
          reply.pack(got.data(), got.size());
          vm.send(0, 2, std::move(reply));
        }
      }
    });
    std::printf("chaos: %u ping-pong rounds of %zu bytes survived "
                "(%.2f ms simulated)\n\n",
                a.rounds, a.bytes, sim::to_seconds(runtime.now()) * 1e3);
    prof::Profiler prof(runtime, 2);
    prof.fault_report();
  });
  if (corrupt != 0) {
    std::printf("chaos: %llu corrupted payload word(s)\n",
                static_cast<unsigned long long>(corrupt));
  }
  if (!checker.clean()) checker.report(stdout);
  return (corrupt == 0 && checker.clean()) ? 0 : 1;
}

/// Kills a CPU mid-run in every application with checkpointing enabled and
/// verifies each recovers to the fault-free answer: bit-exact for the
/// shared-memory apps (migrate-and-restore replay), small tolerance for the
/// PVM apps (shrink + rollback changes the reduction order).  Exits nonzero
/// on divergence, a missing recovery, or any oracle firing.
int cmd_survive(const Args& a) {
  unsigned failures = 0;
  std::printf("survivable-run sweep: %u hypernode(s), %u threads, "
              "one mid-run CPU fail-stop per app\n\n", a.nodes, a.threads);

  const auto close = [](double got, double want, double tol) {
    return std::fabs(got - want) <= tol * std::max(1.0, std::fabs(want));
  };

  const auto scenario = [&](const char* name, double tol, auto&& run_app) {
    // Fault-free baseline, checkpointing off: the ground-truth answer.
    std::vector<double> base;
    sim::Time elapsed = 0;
    {
      rt::Runtime runtime(arch::Topology{.nodes = a.nodes}, cost_for(a));
      runtime.run([&] {
        base = run_app(runtime, 0u);
        elapsed = runtime.now();
      });
    }

    // Faulted run: checkpoint every 2 steps, fail-stop one victim CPU at
    // ~45% of the baseline's elapsed time, full checking attached.
    rt::Runtime runtime(arch::Topology{.nodes = a.nodes}, cost_for(a));
    const unsigned victim =
        runtime.place_cpu(a.threads / 2, a.threads, rt::Placement::kUniform);
    fault::FaultPlan plan;
    plan.cpu_fail(std::max<sim::Time>(1, elapsed * 45 / 100), victim);
    fault::FaultInjector inj(plan);
    inj.attach(runtime);
    check::Checker checker(runtime);
    std::vector<double> got;
    runtime.run([&] { got = run_app(runtime, 2u); });

    const auto& tot = runtime.machine().perf();
    std::string why;
    if (!checker.clean()) why += " oracle";
    if (tot.checkpoints_taken == 0) why += " no-checkpoint";
    if (tot.rollbacks == 0) why += " no-rollback";
    if (got.size() != base.size()) {
      why += " shape";
    } else {
      for (std::size_t i = 0; i < got.size(); ++i) {
        if (!close(got[i], base[i], tol)) {
          why += " diverged";
          break;
        }
      }
    }
    std::printf("  %-12s cpu %2u down  %3llu ckpts %2llu rollbacks "
                "%2llu task-deaths %2llu migrations  %s%s\n",
                name, victim,
                static_cast<unsigned long long>(tot.checkpoints_taken),
                static_cast<unsigned long long>(tot.rollbacks),
                static_cast<unsigned long long>(tot.tasks_failed),
                static_cast<unsigned long long>(tot.cpu_recoveries),
                why.empty() ? "recovered" : "FAILED:", why.c_str());
    if (!why.empty()) {
      if (!checker.clean()) checker.report(stdout);
      ++failures;
    }
  };

  scenario("femgas", 0.0, [&](rt::Runtime& rt, unsigned k) {
    fem::FemConfig cfg;
    cfg.nx = 24;
    cfg.ny = 12;
    cfg.steps = 6;
    cfg.ckpt_interval = k;
    fem::FemGas app(rt, cfg, a.threads, rt::Placement::kUniform);
    app.init_blast(2.0, 3.0);
    const auto r = app.run();
    return std::vector<double>{r.final.total_mass, r.final.total_mom_x,
                               r.final.total_mom_y, r.final.total_energy,
                               r.final.min_density, r.final.min_pressure};
  });
  scenario("ppm", 0.0, [&](rt::Runtime& rt, unsigned k) {
    ppm::PpmConfig cfg;
    cfg.nx = 24;
    cfg.ny = 48;
    cfg.tiles_x = 2;
    cfg.tiles_y = 4;
    cfg.steps = 4;
    cfg.ckpt_interval = k;
    ppm::PpmTiled app(rt, cfg, a.threads, rt::Placement::kUniform);
    app.init_sod_x();
    const auto r = app.run();
    return std::vector<double>{r.final.mass, r.final.mom_x, r.final.mom_y,
                               r.final.energy, r.final.min_rho,
                               r.final.min_p};
  });
  scenario("pic", 0.0, [&](rt::Runtime& rt, unsigned k) {
    pic::PicConfig cfg;
    cfg.nx = cfg.ny = cfg.nz = 8;
    cfg.steps = 6;
    cfg.ckpt_interval = k;
    pic::PicShared app(rt, cfg, a.threads, rt::Placement::kUniform);
    const auto r = app.run();
    std::vector<double> d{r.final.kinetic_energy, r.final.field_energy,
                          r.final.total_charge, r.final.momentum_z};
    d.insert(d.end(), r.field_energy_history.begin(),
             r.field_energy_history.end());
    return d;
  });
  scenario("nbody", 0.0, [&](rt::Runtime& rt, unsigned k) {
    nbody::NbodyConfig cfg;
    cfg.n = 256;
    cfg.steps = 4;
    cfg.ckpt_interval = k;
    nbody::NbodyShared app(rt, cfg, a.threads, rt::Placement::kUniform);
    app.load_plummer();
    const auto r = app.run();
    return std::vector<double>{r.final.kinetic, r.final.px, r.final.py,
                               r.final.pz};
  });
  // PVM variants: ULFM-style shrink + rollback.  The survivors redo the
  // combines with one fewer rank, so reductions associate differently.
  scenario("pic-pvm", 1e-6, [&](rt::Runtime& rt, unsigned k) {
    pic::PicConfig cfg;
    cfg.nx = cfg.ny = cfg.nz = 8;
    cfg.steps = 6;
    cfg.ckpt_interval = k;
    pic::PicPvm app(rt, cfg, a.threads, rt::Placement::kUniform);
    const auto r = app.run();
    std::vector<double> d{r.final.kinetic_energy, r.final.field_energy,
                          r.final.total_charge, r.final.momentum_z};
    d.insert(d.end(), r.field_energy_history.begin(),
             r.field_energy_history.end());
    return d;
  });
  scenario("nbody-pvm", 1e-9, [&](rt::Runtime& rt, unsigned k) {
    nbody::NbodyConfig cfg;
    cfg.n = 256;
    cfg.steps = 4;
    cfg.ckpt_interval = k;
    nbody::NbodyPvm app(rt, cfg, a.threads, rt::Placement::kUniform);
    const auto r = app.run();
    return std::vector<double>{r.final.kinetic, r.final.px, r.final.py,
                               r.final.pz};
  });

  // --- host-kill sweep: SIGKILL the whole process mid-run, then --resume ---
  // The durable-checkpoint layer (spp::ckpt::Disk, docs/RECOVERY.md): a
  // forked child runs the app durably and the session SIGKILLs it after the
  // second disk commit -- a genuine host kill, no unwinding, no flush.  A
  // fresh run with --resume must reach the uninterrupted run's exact digest.
  std::printf("\nhost-kill sweep: durable run, SIGKILL after 2 epoch "
              "commits, then --resume\n\n");

  const auto host_kill = [&](const char* name, auto&& durable_run) {
    char tmpl[] = "/tmp/sppsim-survive-XXXXXX";
    if (mkdtemp(tmpl) == nullptr) {
      std::printf("  %-12s FAILED: mkdtemp\n", name);
      ++failures;
      return;
    }
    const std::string base = tmpl;

    const auto digest_of = [&](const std::string& dir, bool resume,
                               unsigned kill_after) -> std::uint64_t {
      rt::Runtime runtime(arch::Topology{.nodes = a.nodes}, cost_for(a));
      ckpt::DurableSpec spec;
      spec.dir = dir;
      spec.interval = 2;
      spec.resume = resume;
      spec.test_kill_after_writes = kill_after;
      runtime.run([&] { durable_run(runtime, spec); });
      return runtime.machine().perf().digest(runtime.elapsed());
    };

    const std::uint64_t want = digest_of(base + "/base", false, 0);

    const pid_t pid = fork();
    if (pid == 0) {
      digest_of(base + "/kill", false, 2);
      _exit(0);  // unreachable: the kill fires at the second commit.
    }
    int wstatus = 0;
    std::string why;
    if (pid < 0 || waitpid(pid, &wstatus, 0) != pid) {
      why += " fork/wait";
    } else if (!WIFSIGNALED(wstatus) || WTERMSIG(wstatus) != SIGKILL) {
      why += " child-not-SIGKILLed";
    }
    std::uint64_t got = 0;
    try {
      got = digest_of(base + "/kill", true, 0);
    } catch (const std::exception& e) {
      why += std::string(" resume-failed(") + e.what() + ")";
    }
    if (why.empty() && got != want) why += " digest-diverged";
    std::printf("  %-12s resume digest %016llx  %s%s\n", name,
                static_cast<unsigned long long>(got),
                why.empty() ? "recovered" : "FAILED:", why.c_str());
    if (!why.empty()) ++failures;
    std::error_code ec;
    std::filesystem::remove_all(base, ec);
  };

  host_kill("nbody", [&](rt::Runtime& rt, const ckpt::DurableSpec& spec) {
    nbody::NbodyConfig cfg;
    cfg.n = 256;
    cfg.steps = 4;
    nbody::NbodyShared app(rt, cfg, a.threads, rt::Placement::kUniform);
    app.load_plummer();
    (void)app.run(spec);
  });
  host_kill("nbody-pvm", [&](rt::Runtime& rt, const ckpt::DurableSpec& spec) {
    nbody::NbodyConfig cfg;
    cfg.n = 256;
    cfg.steps = 4;
    nbody::NbodyPvm app(rt, cfg, a.threads, rt::Placement::kUniform);
    (void)app.run(spec);
  });

  if (failures != 0) {
    std::printf("\nsurvive: %u scenario(s) FAILED\n", failures);
    return 1;
  }
  std::printf("\nsurvive: all scenarios recovered to the fault-free "
              "answer\n");
  return 0;
}

/// Host-filesystem chaos sweep (docs/RECOVERY.md, "Host I/O faults & the
/// degradation ladder"): one scenario per injected fault class.  Each forks
/// a durable nbody run with an io::FaultPlan armed; the child either
/// SIGKILLs itself mid-run (test_kill_after_writes) or completes degraded
/// and exits rt::kExitIoDegraded.  The parent then resumes fault-free (for
/// bit rot, with a read-side plan armed around the load) and requires the
/// uninterrupted run's exact digest -- proving the commit protocol is
/// all-or-nothing under every fault class and resume never loads a corrupt
/// epoch.
int cmd_chaos_disk(const Args& a) {
  unsigned failures = 0;
  std::printf("disk-chaos sweep: durable nbody runs under injected host-I/O "
              "faults, then fault-free --resume\n\n");

  struct RunResult {
    std::uint64_t digest = 0;
    bool degraded = false;          ///< cmd_run's exit-4 condition.
    std::uint64_t epochs_skipped = 0;
  };

  // One durable nbody run: 256 bodies, 4 steps, one epoch per step.
  const auto run_once = [&](const std::string& dir, bool resume,
                            unsigned kill_after,
                            const ckpt::RecoveryPolicy& policy) -> RunResult {
    rt::Runtime runtime(arch::Topology{.nodes = a.nodes}, cost_for(a));
    ckpt::DurableSpec spec;
    spec.dir = dir;
    spec.interval = 1;
    spec.resume = resume;
    spec.test_kill_after_writes = kill_after;
    spec.policy = policy;
    runtime.run([&] {
      nbody::NbodyConfig cfg;
      cfg.n = 256;
      cfg.steps = 4;
      nbody::NbodyShared app(runtime, cfg, a.threads, rt::Placement::kUniform);
      app.load_plummer();
      (void)app.run(spec);
    });
    const arch::PerfCounters& p = runtime.machine().perf();
    return RunResult{p.digest(runtime.elapsed()),
                     p.io_commit_failures > 0 || p.io_memory_only_epochs > 0,
                     p.io_epochs_skipped};
  };

  // Fault-plan operation numbering for this run shape (src/spp/ckpt/disk.cc):
  // the LOCK is open#1/write#1; commit k is then open/write #2k and #2k+1
  // and fsync/rename/dir-fsync #2k-1 and #2k (epoch file first, MANIFEST
  // second).  A resume over a SIGKILLed child's stale LOCK reads the LOCK
  // pid as read#1 and the newest epoch file as read#2.
  struct Scenario {
    const char* name;
    void (*arm)(io::FaultPlan&);   ///< child-side plan (nullptr = clean).
    unsigned kill_after;           ///< SIGKILL the child after N commits.
    bool expect_degraded;          ///< child exits 4 instead of being killed.
    ckpt::RecoveryPolicy policy;   ///< child-side recovery policy.
    bool rot_resume;               ///< arm read-side bit rot on the resume.
    bool expect_skip;              ///< resume must skip >= 1 corrupt epoch.
  };
  const ckpt::RecoveryPolicy relaxed;  // the defaults: retries + 3 rungs
  ckpt::RecoveryPolicy no_mercy;       // first abandonment goes memory-only
  no_mercy.max_retries = 0;
  no_mercy.max_degradations = 0;

  const Scenario scenarios[] = {
      // Transient EIO on epoch-1's payload write: one retry, then the run
      // survives unharmed to the SIGKILL.
      {"eio-write",
       [](io::FaultPlan& p) { p.fail_nth(io::Op::kWrite, 4, EIO); },
       3, false, relaxed, false, false},
      // Half of epoch-1's payload reaches the temp file, then the device
      // "fails"; the retry truncates and rewrites it.
      {"short-write", [](io::FaultPlan& p) { p.short_write_nth(4); },
       3, false, relaxed, false, false},
      // fsync of epoch-2's payload fails once: data that never reached
      // media must not be renamed into place.
      {"fsync-fail",
       [](io::FaultPlan& p) { p.fail_nth(io::Op::kFsync, 5, EIO); },
       3, false, relaxed, false, false},
      // The disk fills for good after epoch 1: every later commit is
      // abandoned, the ladder widens the stride, the run completes
      // degraded (exit 4) and resumes from the last durable epoch.
      {"enospc",
       [](io::FaultPlan& p) { p.fail_from(io::Op::kOpen, 6, ENOSPC); },
       0, true, relaxed, false, false},
      // Epoch-2's rename is torn: a corrupt corpse lands under the final
      // name.  Zero-tolerance policy sends the child memory-only (exit 4);
      // the resume must detect the corpse by CRC and fall back past it.
      {"torn-rename", [](io::FaultPlan& p) { p.torn_rename_nth(5); },
       0, true, no_mercy, false, true},
      // The child is killed clean; the parent's resume reads the newest
      // epoch through rotting media (one flipped bit) and must fall back
      // to the older epoch rather than trust it.
      {"bit-rot", nullptr, 2, false, relaxed, true, true},
  };

  for (const Scenario& sc : scenarios) {
    char tmpl[] = "/tmp/sppsim-chaosdisk-XXXXXX";
    if (mkdtemp(tmpl) == nullptr) {
      std::printf("  %-12s FAILED: mkdtemp\n", sc.name);
      ++failures;
      continue;
    }
    const std::string base = tmpl;
    const std::uint64_t want =
        run_once(base + "/base", false, 0, relaxed).digest;

    const pid_t pid = fork();
    if (pid == 0) {
      io::FaultPlan plan;
      if (sc.arm != nullptr) {
        sc.arm(plan);
        io::arm_faults(&plan);
      }
      const RunResult r =
          run_once(base + "/kill", false, sc.kill_after, sc.policy);
      io::arm_faults(nullptr);
      _exit(r.degraded ? rt::kExitIoDegraded : rt::kExitOk);
    }
    int wstatus = 0;
    std::string why;
    if (pid < 0 || waitpid(pid, &wstatus, 0) != pid) {
      why += " fork/wait";
    } else if (sc.expect_degraded) {
      if (!WIFEXITED(wstatus) ||
          WEXITSTATUS(wstatus) != rt::kExitIoDegraded) {
        why += " child-not-exit-4";
      }
    } else if (!WIFSIGNALED(wstatus) || WTERMSIG(wstatus) != SIGKILL) {
      why += " child-not-SIGKILLed";
    }

    RunResult got;
    io::FaultPlan rot;
    try {
      if (sc.rot_resume) {
        rot.bitrot_read_nth(2);  // read#1 is the stale LOCK's pid.
        io::arm_faults(&rot);
      }
      got = run_once(base + "/kill", true, 0, relaxed);
      io::arm_faults(nullptr);
    } catch (const std::exception& e) {
      io::arm_faults(nullptr);
      why += std::string(" resume-failed(") + e.what() + ")";
    }
    if (why.empty()) {
      if (got.digest != want) why += " digest-diverged";
      if (got.degraded) why += " resume-degraded";
      if (sc.expect_skip && got.epochs_skipped == 0) {
        why += " corrupt-epoch-not-skipped";
      }
    }
    std::printf("  %-12s resume digest %016llx  skipped %llu  %s%s\n",
                sc.name, static_cast<unsigned long long>(got.digest),
                static_cast<unsigned long long>(got.epochs_skipped),
                why.empty() ? "recovered" : "FAILED:", why.c_str());
    if (!why.empty()) ++failures;
    std::error_code ec;
    std::filesystem::remove_all(base, ec);
  }

  if (failures != 0) {
    std::printf("\nchaos-disk: %u scenario(s) FAILED\n", failures);
    return rt::kExitFailure;
  }
  std::printf("\nchaos-disk: every fault class resumed to the fault-free "
              "digest; no corrupt epoch was ever loaded\n");
  return rt::kExitOk;
}

/// Runs every microbenchmark shape and all four applications at small
/// configurations under full checking (coherence oracle + race detector +
/// wait-for deadlock analysis); exits nonzero if any scenario is not clean.
int cmd_check(const Args& a) {
  unsigned failures = 0;
  std::printf("full-checking sweep: %u hypernode(s), %u threads\n\n", a.nodes,
              a.threads);

  const auto scenario = [&](const char* name, auto&& body) {
    rt::Runtime runtime(arch::Topology{.nodes = a.nodes}, cost_for(a));
    check::Checker checker(runtime);
    runtime.run([&] { body(runtime); });
    std::printf("  %-20s %10llu events %6llu violations %4llu races  %s\n",
                name,
                static_cast<unsigned long long>(checker.oracle().events()),
                static_cast<unsigned long long>(checker.oracle().violations()),
                static_cast<unsigned long long>(checker.races().races()),
                checker.clean() ? "clean" : "NOT CLEAN");
    if (!checker.clean()) {
      checker.report(stdout);
      ++failures;
    }
  };

  // --- microbenchmarks: one per synchronization shape -----------------------
  scenario("forkjoin", [&](rt::Runtime& rt) {
    const arch::VAddr va = rt.alloc(a.threads * 64, arch::MemClass::kFarShared,
                                    "check.slots");
    rt.parallel(a.threads, rt::Placement::kUniform, [&](unsigned i, unsigned) {
      rt.write(va + i * 64, 8);  // disjoint slots: fork/join edges only.
    });
    rt.read(va, 8);
  });
  scenario("barrier", [&](rt::Runtime& rt) {
    const arch::VAddr va = rt.alloc(a.threads * 64, arch::MemClass::kFarShared,
                                    "check.ring");
    rt::Barrier barrier(rt, a.threads);
    rt.parallel(a.threads, rt::Placement::kUniform,
                [&](unsigned i, unsigned n) {
                  rt.write(va + i * 64, 8);
                  barrier.wait();
                  rt.read(va + ((i + 1) % n) * 64, 8);  // neighbor's slot.
                });
  });
  scenario("lock", [&](rt::Runtime& rt) {
    const arch::VAddr va =
        rt.alloc(arch::kLineBytes, arch::MemClass::kNearShared, "check.ctr");
    rt::Lock lock(rt);
    rt.parallel(a.threads, rt::Placement::kUniform, [&](unsigned, unsigned) {
      rt::CriticalSection cs(lock);
      rt.read(va, 8);
      rt.write(va, 8);
    });
  });
  scenario("message", [&](rt::Runtime& rt) {
    pvm::Pvm root(rt);
    root.spawn(2, rt::Placement::kUniform, [&](pvm::Pvm& vm, int me, int) {
      std::vector<double> buf(64, 1.0);
      if (me == 0) {
        pvm::Message m;
        m.pack(buf.data(), buf.size());
        vm.send(1, 1, std::move(m));
        vm.recv(1, 2);
      } else {
        pvm::Message m = vm.recv(0, 1);
        m.tag = 2;
        vm.send(0, 2, std::move(m));
      }
    });
  });

  // --- the four applications at small configurations ------------------------
  scenario("nbody", [&](rt::Runtime& rt) {
    nbody::NbodyConfig cfg;
    cfg.n = 256;
    cfg.steps = 1;
    nbody::NbodyShared nb(rt, cfg, a.threads, rt::Placement::kUniform);
    (void)nb.run();
  });
  scenario("femgas", [&](rt::Runtime& rt) {
    fem::FemConfig cfg;
    cfg.nx = 16;
    cfg.ny = 8;
    cfg.steps = 2;
    fem::FemGas femgas(rt, cfg, a.threads, rt::Placement::kUniform);
    femgas.init_uniform(1.0, 0.3, -0.1, 1.0);
    (void)femgas.run();
  });
  scenario("pic", [&](rt::Runtime& rt) {
    pic::PicConfig cfg;
    cfg.nx = cfg.ny = cfg.nz = 8;
    cfg.steps = 2;
    pic::PicShared pic(rt, cfg, a.threads, rt::Placement::kUniform);
    (void)pic.run();
  });
  scenario("ppm", [&](rt::Runtime& rt) {
    ppm::PpmConfig cfg;
    cfg.nx = 24;
    cfg.ny = 48;
    cfg.tiles_x = 2;
    cfg.tiles_y = 4;
    cfg.steps = 2;
    ppm::PpmTiled ppm(rt, cfg, a.threads, rt::Placement::kUniform);
    ppm.init_sod_x();
    (void)ppm.run();
  });

  if (failures != 0) {
    std::printf("\ncheck: %u scenario(s) NOT clean\n", failures);
    return 1;
  }
  std::printf("\ncheck: all scenarios clean\n");
  return 0;
}

/// Runs one application end to end and prints its PerfCounters digest.  With
/// --ckpt-dir the run is durable (epoch commits to disk, graceful SIGINT/
/// SIGTERM shutdown, bit-exact --resume); without it the app's plain run()
/// path executes, which charges nothing extra (zero-cost discipline).
int cmd_run(const Args& a) {
  if (a.ckpt_dir.empty() &&
      (a.resume || a.kill_after_writes != 0 || a.ckpt_wall > 0)) {
    std::fprintf(stderr,
                 "sppsim-explore: --resume/--kill-after-writes/"
                 "--ckpt-wall-interval need --ckpt-dir\n");
    return rt::kExitUsage;
  }
  // Only a durable session reads the shutdown flag; a plain run keeps the
  // default dispositions, so SIGINT and SIGTERM stop it at once.
  if (!a.ckpt_dir.empty()) ckpt::install_shutdown_handlers();
  ckpt::DurableSpec spec;
  spec.dir = a.ckpt_dir;
  spec.interval = a.ckpt_interval;
  spec.wall_interval = a.ckpt_wall;
  spec.resume = a.resume;
  spec.test_kill_after_writes = a.kill_after_writes;

  rt::Runtime runtime(arch::Topology{.nodes = a.nodes}, cost_for(a));
  const auto inj = injector_for(a, runtime);
  std::unique_ptr<rt::Watchdog> dog;
  if (a.watchdog > 0) {
    dog = std::make_unique<rt::Watchdog>(runtime.conductor(), a.watchdog);
  }

  const unsigned T = a.threads;
  const auto pl = rt::Placement::kUniform;
  runtime.run([&] {
    if (a.app == "nbody") {
      nbody::NbodyConfig cfg;
      cfg.n = 256;
      cfg.steps = a.steps ? a.steps : 4;
      nbody::NbodyShared app(runtime, cfg, T, pl);
      app.load_plummer();
      const auto r = app.run(spec);
      std::printf("nbody: %zu bodies, %u steps, %.1f MFLOPS\n", cfg.n,
                  cfg.steps, r.mflops);
    } else if (a.app == "fem") {
      fem::FemConfig cfg;
      cfg.nx = 24;
      cfg.ny = 12;
      cfg.steps = a.steps ? a.steps : 6;
      fem::FemGas app(runtime, cfg, T, pl);
      app.init_blast(2.0, 3.0);
      const auto r = app.run(spec);
      std::printf("fem: %ux%u blast, %u steps, %.1f MFLOPS\n", cfg.nx, cfg.ny,
                  cfg.steps, r.mflops);
    } else if (a.app == "pic") {
      pic::PicConfig cfg;
      cfg.nx = cfg.ny = cfg.nz = 8;
      cfg.steps = a.steps ? a.steps : 6;
      pic::PicShared app(runtime, cfg, T, pl);
      const auto r = app.run(spec);
      std::printf("pic: %zu^3 mesh, %u steps, %.1f MFLOPS\n", cfg.nx,
                  cfg.steps, r.mflops);
    } else if (a.app == "ppm") {
      ppm::PpmConfig cfg;
      cfg.nx = 24;
      cfg.ny = 48;
      cfg.tiles_x = 2;
      cfg.tiles_y = 4;
      cfg.steps = a.steps ? a.steps : 4;
      ppm::PpmTiled app(runtime, cfg, T, pl);
      app.init_sod_x();
      const auto r = app.run(spec);
      std::printf("ppm: %zux%zu sod, %u steps, %.1f MFLOPS\n", cfg.nx, cfg.ny,
                  cfg.steps, r.mflops);
    } else if (a.app == "nbody-pvm") {
      nbody::NbodyConfig cfg;
      cfg.n = 256;
      cfg.steps = a.steps ? a.steps : 4;
      nbody::NbodyPvm app(runtime, cfg, T, pl);
      const auto r = app.run(spec);
      std::printf("nbody-pvm: %zu bodies, %u steps, %.1f MFLOPS\n", cfg.n,
                  cfg.steps, r.mflops);
    } else {  // pic-pvm (names validated at parse time)
      pic::PicConfig cfg;
      cfg.nx = cfg.ny = cfg.nz = 8;
      cfg.steps = a.steps ? a.steps : 6;
      pic::PicPvm app(runtime, cfg, T, pl);
      const auto r = app.run(spec);
      std::printf("pic-pvm: %zu^3 mesh, %u steps, %.1f MFLOPS\n", cfg.nx,
                  cfg.steps, r.mflops);
    }
  });
  dog.reset();

  if (ckpt::shutdown_requested()) {
    std::printf("run: shutdown requested; stopped at an epoch boundary with "
                "the checkpoint on disk (continue with --resume)\n");
  }
  std::printf("digest: %016llx\n",
              static_cast<unsigned long long>(
                  runtime.machine().perf().digest(runtime.elapsed())));

  // Exit-code contract (spp/rt/exit_codes.h): the run itself succeeded --
  // the digest above is authoritative -- but if the durable layer abandoned
  // any epoch commit the disk trail is thinner than promised, and callers
  // scripting around --resume must know.
  const arch::PerfCounters& p = runtime.machine().perf();
  if (p.io_commit_failures > 0 || p.io_memory_only_epochs > 0) {
    prof::Profiler prof(runtime, a.threads);
    prof.io_report();
    return rt::kExitIoDegraded;
  }
  return rt::kExitOk;
}

int cmd_map(const Args& a) {
  arch::Machine m(arch::Topology{.nodes = a.nodes}, cost_for(a));
  std::printf("SPP-1000, %u hypernode(s):\n", a.nodes);
  std::printf("  %u functional units (2 CPUs each), %u CPUs total\n",
              m.topo().num_fus(), m.topo().num_cpus());
  std::printf("  4 SCI rings; FU k of every node on ring k\n");
  std::printf("  L1: %llu KB direct-mapped, %llu-byte lines\n",
              static_cast<unsigned long long>(m.cost().l1_bytes >> 10),
              static_cast<unsigned long long>(arch::kLineBytes));
  std::printf("  gcache: %llu KB per (node, ring)\n",
              static_cast<unsigned long long>(m.cost().gcache_bytes >> 10));
  std::printf("  memory classes: thread_private node_private near_shared "
              "far_shared block_shared\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!Args::parse(argc, argv, a)) {
    std::fputs(kUsage, stderr);
    return spp::rt::kExitUsage;
  }
  try {
    if (a.cmd == "latency") return cmd_latency(a);
    if (a.cmd == "forkjoin") return cmd_forkjoin(a);
    if (a.cmd == "barrier") return cmd_barrier(a);
    if (a.cmd == "message") return cmd_message(a);
    if (a.cmd == "chaos") return cmd_chaos(a);
    if (a.cmd == "chaos-disk") return cmd_chaos_disk(a);
    if (a.cmd == "check") return cmd_check(a);
    if (a.cmd == "survive") return cmd_survive(a);
    if (a.cmd == "run") return cmd_run(a);
    return cmd_map(a);  // "map": the command set is validated at parse time.
  } catch (const std::exception& e) {
    // ConfigError for malformed plans; ckpt::Error for a corrupt / locked /
    // missing checkpoint directory; io::IoError for an unrecoverable host
    // filesystem failure; TimeoutError / runtime_error when a plan makes
    // the machine unrecoverable (partitioned fabric, all CPUs dead, retries
    // exhausted).  Either way: report, don't abort.
    std::fprintf(stderr, "sppsim-explore: %s\n", e.what());
    return spp::rt::kExitFailure;
  }
}
