#include "spp/ckpt/durable.h"

#include <algorithm>
#include <cstdio>

#include "spp/rt/conductor.h"

namespace spp::ckpt {

namespace {
volatile std::sig_atomic_t g_shutdown = 0;
extern "C" void on_shutdown_signal(int) { g_shutdown = 1; }
}  // namespace

void request_shutdown() { g_shutdown = 1; }
bool shutdown_requested() { return g_shutdown != 0; }
void clear_shutdown() { g_shutdown = 0; }

void install_shutdown_handlers() {
  std::signal(SIGINT, on_shutdown_signal);
  std::signal(SIGTERM, on_shutdown_signal);
}

DurableSession::DurableSession(rt::Runtime& rt, Store& store,
                               const DurableSpec& spec)
    : rt_(&rt),
      store_(&store),
      spec_(spec),
      backoff_rng_(spec.policy.jitter_seed) {
  if (!spec_.enabled()) {
    throw Error(
        "ckpt: DurableSession needs a checkpoint directory; use the "
        "application's plain run() when durability is off");
  }
  spec_.interval = std::max<std::uint64_t>(1, spec_.interval);
  if (io::FaultPlan* plan = io::armed_plan()) {
    seen_injected_ = plan->injected();
  }
}

void DurableSession::drain_injected() {
  if (io::FaultPlan* plan = io::armed_plan()) {
    const std::uint64_t now = plan->injected();
    rt_->machine().perf().io_faults_injected += now - seen_injected_;
    seen_injected_ = now;
  }
}

std::uint64_t DurableSession::begin() {
  try {
    disk_ = std::make_unique<Disk>(spec_.dir);
  } catch (const io::IoError& e) {
    drain_injected();
    arch::PerfCounters& perf = rt_->machine().perf();
    if (e.severity() == io::Sev::kTransient) {
      ++perf.io_transient_errors;
    } else {
      ++perf.io_permanent_errors;
    }
    // A resume cannot proceed blind -- there is state on disk we must read.
    // A fresh run can: durability was best-effort from the first epoch.
    if (spec_.resume) throw;
    enter_memory_only(std::string("cannot open checkpoint directory: ") +
                      e.what());
    return 0;
  }
  if (!spec_.resume) {
    drain_injected();
    return 0;
  }

  std::optional<EpochData> epoch = disk_->load_newest();
  if (!epoch) {
    throw Error("ckpt: --resume found no valid epoch in '" + spec_.dir + "'");
  }
  arch::PerfCounters& perf = rt_->machine().perf();
  if (epoch->perf.cpu.size() != perf.cpu.size()) {
    throw Error("ckpt: epoch " + std::to_string(epoch->step) + " in '" +
                spec_.dir + "' was taken on a " +
                std::to_string(epoch->perf.cpu.size()) +
                "-CPU machine; this run has " +
                std::to_string(perf.cpu.size()));
  }
  store_->seed_epoch(epoch->step, std::move(epoch->snapshot));
  perf = epoch->perf;
  // The io_* family is never serialized (disk.cc), so the assignment above
  // zeroed it; account now for what this process's open and load paths
  // experienced.  Draining only here keeps a fault the Disk constructor
  // swallowed (a failed read of a dead writer's LOCK) from being erased.
  perf.io_epochs_skipped += disk_->epochs_skipped();
  drain_injected();
  rt::Conductor::self().set_clock(epoch->clock);
  rt_->machine().power_cycle();
  // The boundary at the resumed step already happened in the run we are
  // continuing -- its capture charges are inside the restored counters --
  // so the first boundary() call must not replay it.
  skip_once_ = true;
  return epoch->step;
}

bool DurableSession::boundary(std::uint64_t step) {
  if (skip_once_) {
    skip_once_ = false;
    return true;
  }

  store_->capture(step);
  const bool stop = shutdown_requested();

  if (disk_ != nullptr && !memory_only_) {
    // spp-lint: allow(sim-no-wallclock): wall_interval throttles disk commits only; no sim state depends on it
    const auto now = std::chrono::steady_clock::now();
    const bool wall_due =
        spec_.wall_interval <= 0.0 || writes_ == 0 ||
        std::chrono::duration<double>(now - last_write_).count() >=
            spec_.wall_interval;
    ++since_commit_;
    // The degradation ladder widens the stride; a shutdown flush and the
    // kill test hook ignore it (they must hit the disk now or never).
    if (stop || spec_.test_kill_after_writes != 0 ||
        (wall_due && since_commit_ >= disk_stride_)) {
      EpochData epoch;
      epoch.step = step;
      epoch.clock = rt::Conductor::self().clock();
      epoch.perf = rt_->machine().perf();
      epoch.snapshot = store_->epoch_image(step);
      const bool committed = commit_with_recovery(epoch);
      // A failed attempt restarts the stride clock too: once degrade()
      // widens the stride, the next attempt must be a full stride away,
      // not at the very next boundary.
      since_commit_ = 0;
      if (committed) {
        ++writes_;
        last_write_ = now;
        if (spec_.test_kill_after_writes != 0 &&
            writes_ >= spec_.test_kill_after_writes) {
          std::raise(SIGKILL);  // test hook: die exactly as a host OOM-kill
                                // would.
        }
      }
    }
  } else {
    // Bottom of the ladder: the epoch lives only in the Store.  Work and
    // charges are identical to a durable boundary -- only the disk write
    // is missing -- so digests cannot tell the difference.
    ++rt_->machine().perf().io_memory_only_epochs;
  }

  // Reset the machine to a deterministic cold state so a future resume from
  // this epoch continues bit-identically (see file comment).
  rt_->machine().power_cycle();
  stopped_ = stop;
  return !stop;
}

bool DurableSession::commit_with_recovery(const EpochData& epoch) {
  const RecoveryPolicy& pol = spec_.policy;
  arch::PerfCounters& perf = rt_->machine().perf();
  for (unsigned attempt = 0;; ++attempt) {
    try {
      disk_->write_epoch(epoch);
      drain_injected();
      return true;
    } catch (const io::IoError& e) {
      // ckpt::Error (protocol misuse, snapshot shape bugs) deliberately
      // propagates: that is a programming error, not filesystem weather.
      drain_injected();
      const bool transient = e.severity() == io::Sev::kTransient;
      if (transient) {
        ++perf.io_transient_errors;
      } else {
        ++perf.io_permanent_errors;
      }
      if (transient && attempt < pol.max_retries) {
        ++perf.io_retries;
        const double delay = io::backoff_seconds(attempt, pol.backoff_base,
                                                 pol.backoff_cap,
                                                 backoff_rng_);
        std::fprintf(stderr,
                     "ckpt: transient I/O failure committing epoch %llu "
                     "(attempt %u/%u, retrying in %.0f ms): %s\n",
                     static_cast<unsigned long long>(epoch.step), attempt + 1,
                     pol.max_retries + 1, delay * 1e3, e.what());
        io::sleep_seconds(delay);
        continue;
      }
      ++perf.io_commit_failures;
      std::fprintf(stderr,
                   "ckpt: abandoning commit of epoch %llu after %u "
                   "attempt(s) (%s error): %s\n",
                   static_cast<unsigned long long>(epoch.step), attempt + 1,
                   transient ? "transient" : "permanent", e.what());
      degrade(transient ? "transient error exhausted its retries"
                        : "permanent host-I/O error");
      return false;
    }
  }
}

void DurableSession::degrade(const char* why) {
  arch::PerfCounters& perf = rt_->machine().perf();
  if (degradations_ < spec_.policy.max_degradations) {
    ++degradations_;
    ++perf.io_degradations;
    disk_stride_ *= 2;
    std::fprintf(stderr,
                 "ckpt: degrading (%s): disk commits now every %u epoch(s) "
                 "[rung %u/%u]\n",
                 why, disk_stride_, degradations_,
                 spec_.policy.max_degradations);
  } else {
    enter_memory_only(std::string("degradation limit reached (") + why +
                      ")");
  }
}

void DurableSession::enter_memory_only(const std::string& why) {
  memory_only_ = true;
  // disk_ (and with it the writer LOCK) is kept alive on purpose: the
  // directory stays ours until the session ends, so no second writer can
  // slip in and the LOCK is still released exactly once, at destruction.
  std::fprintf(stderr,
               "\n"
               "ckpt: *** HOST-I/O DEGRADATION: CHECKPOINTS ARE NOW "
               "IN-MEMORY ONLY ***\n"
               "ckpt: %s\n"
               "ckpt: the run continues (simulated results are unaffected) "
               "but a host crash\n"
               "ckpt: now loses everything since the last durable epoch; "
               "see Profiler::io_report()\n"
               "ckpt: and docs/RECOVERY.md, \"Host I/O faults & the "
               "degradation ladder\".\n\n",
               why.c_str());
}

}  // namespace spp::ckpt
