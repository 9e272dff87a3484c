// Tests for the CXpa-style profiler: phase accounting, imbalance detection,
// counter deltas, the counter-family reports, and the memory map report.
#include <gtest/gtest.h>

#include <cstdio>
#include <span>
#include <string>

#include "spp/prof/profiler.h"
#include "spp/rt/garray.h"
#include "spp/rt/runtime.h"

namespace spp::prof {
namespace {

using arch::Topology;
using rt::Placement;

TEST(Profiler, AccumulatesPhaseTime) {
  rt::Runtime runtime(Topology{.nodes = 1});
  Profiler prof(runtime, 4);
  runtime.run([&] {
    runtime.parallel(4, Placement::kHighLocality, [&](unsigned tid, unsigned) {
      prof.begin(tid, "compute");
      runtime.work_flops(35000);  // exactly 1 ms at 0.35 flops/cycle
      prof.end(tid, "compute");
    });
  });
  const auto& ps = prof.stats("compute");
  EXPECT_EQ(ps.per_thread.size(), 4u);
  for (unsigned t = 0; t < 4; ++t) {
    EXPECT_EQ(ps.per_thread[t], sim::kMillisecond);
  }
  EXPECT_EQ(ps.total, 4 * sim::kMillisecond);
  EXPECT_NEAR(ps.imbalance(), 1.0, 1e-9);
  EXPECT_NEAR(ps.flops, 4 * 35000.0, 1e-6);
}

TEST(Profiler, DetectsImbalance) {
  rt::Runtime runtime(Topology{.nodes = 1});
  Profiler prof(runtime, 4);
  runtime.run([&] {
    runtime.parallel(4, Placement::kHighLocality, [&](unsigned tid, unsigned) {
      Profiler::Scope scope(prof, tid, "skewed");
      runtime.work_flops(1000.0 * (tid + 1));  // thread 3 does 4x thread 0
    });
  });
  const auto& ps = prof.stats("skewed");
  // mean = 2.5 units, max = 4 units -> imbalance 1.6.
  EXPECT_NEAR(ps.imbalance(), 1.6, 0.05);
}

TEST(Profiler, CountsMissesPerPhase) {
  rt::Runtime runtime(Topology{.nodes = 2});
  Profiler prof(runtime, 1);
  rt::GlobalArray<double> remote(runtime, 4096, arch::MemClass::kNearShared,
                                 "r", /*home=*/1);
  runtime.run([&] {
    runtime.parallel(1, Placement::kHighLocality, [&](unsigned tid, unsigned) {
      prof.begin(tid, "cold");
      for (std::size_t i = 0; i < 4096; i += 4) remote.read(i);
      prof.end(tid, "cold");
      prof.begin(tid, "warm");
      for (std::size_t i = 0; i < 4096; i += 4) remote.read(i);
      prof.end(tid, "warm");
    });
  });
  EXPECT_GT(prof.stats("cold").remote_misses, 900u);
  EXPECT_EQ(prof.stats("warm").misses, 0u);
}

TEST(Profiler, RepeatedPhasesAccumulate) {
  rt::Runtime runtime(Topology{.nodes = 1});
  Profiler prof(runtime, 2);
  runtime.run([&] {
    runtime.parallel(2, Placement::kHighLocality, [&](unsigned tid, unsigned) {
      for (int k = 0; k < 3; ++k) {
        Profiler::Scope scope(prof, tid, "loop");
        runtime.work_flops(350);
      }
    });
  });
  EXPECT_EQ(prof.stats("loop").per_thread[0], 3 * sim::cycles(1000));
}

TEST(Profiler, MisuseThrows) {
  rt::Runtime runtime(Topology{.nodes = 1});
  Profiler prof(runtime, 1);
  runtime.run([&] {
    runtime.parallel(1, Placement::kHighLocality, [&](unsigned tid, unsigned) {
      prof.begin(tid, "p");
      EXPECT_THROW(prof.begin(tid, "p"), std::logic_error);
      prof.end(tid, "p");
      EXPECT_THROW(prof.end(tid, "p"), std::logic_error);
    });
  });
  EXPECT_THROW(prof.stats("unknown"), std::out_of_range);
}

TEST(Profiler, RejectsTidBeyondThreadCount) {
  // A Profiler sized for 2 threads, used by 4: the extra tids must be
  // refused up front, not written past the per-thread table at end().
  rt::Runtime runtime(Topology{.nodes = 1});
  Profiler prof(runtime, 2);
  runtime.run([&] {
    runtime.parallel(4, Placement::kHighLocality, [&](unsigned tid, unsigned) {
      if (tid < 2) {
        Profiler::Scope scope(prof, tid, "p");
        runtime.work_flops(350);
      } else {
        EXPECT_THROW(prof.begin(tid, "p"), std::out_of_range) << tid;
      }
    });
  });
  EXPECT_EQ(prof.stats("p").per_thread.size(), 2u);
}

/// What `report` prints to a stream.
template <typename Report>
std::string printed(Report report) {
  char buf[4096] = {};
  std::FILE* f = fmemopen(buf, sizeof(buf) - 1, "w");
  EXPECT_NE(f, nullptr);
  if (f == nullptr) return {};
  report(f);
  std::fclose(f);
  return buf;
}

TEST(Profiler, ReportsEveryCounterOfItsFamily) {
  rt::Runtime runtime(Topology{.nodes = 1});
  Profiler prof(runtime, 1);
  arch::PerfCounters& p = runtime.machine().perf();
  struct Family {
    std::span<const arch::Counter<arch::PerfCounters>> rows;
    void (Profiler::*report)(std::FILE*) const;
    const char* none;
  };
  const Family families[] = {
      {arch::kFaultCounters, &Profiler::fault_report, "faults: none injected"},
      {arch::kCkptCounters, &Profiler::recovery_report,
       "recovery: no checkpoints or failures"},
      {arch::kCheckCounters, &Profiler::check_report,
       "check: no checker attached"},
      {arch::kIoCounters, &Profiler::io_report,
       "io: no host-I/O faults or degradation"},
  };
  std::uint64_t k = 0;
  for (const Family& fam : families) {
    const auto print = [&] {
      return printed([&](std::FILE* f) { (prof.*fam.report)(f); });
    };
    EXPECT_EQ(print(), std::string(fam.none) + "\n");
    // Any one nonzero counter of the family is enough to print the table.
    for (const auto& row : fam.rows) {
      p.*row.field = 1;
      EXPECT_EQ(print().find(fam.none), std::string::npos) << row.name;
      p.*row.field = 0;
    }
    // Every row prints under its table name, with its own value.
    for (const auto& row : fam.rows) p.*row.field = ++k;
    const std::string out = print();
    for (const auto& row : fam.rows) {
      char line[64];
      std::snprintf(line, sizeof line, "\n%-24s %12llu\n", row.name,
                    static_cast<unsigned long long>(p.*row.field));
      EXPECT_NE(out.find(line), std::string::npos) << row.name << "\n" << out;
    }
  }
}

TEST(Profiler, ReportsWithoutCrashing) {
  rt::Runtime runtime(Topology{.nodes = 2});
  Profiler prof(runtime, 2);
  rt::GlobalArray<double> a(runtime, 64, arch::MemClass::kFarShared, "arr");
  runtime.run([&] {
    runtime.parallel(2, Placement::kUniform, [&](unsigned tid, unsigned) {
      Profiler::Scope scope(prof, tid, "phase");
      a.write(tid, 1.0);
    });
  });
  std::FILE* devnull = std::fopen("/dev/null", "w");
  ASSERT_NE(devnull, nullptr);
  prof.report(devnull);
  prof.memory_map(devnull);
  std::fclose(devnull);
}

}  // namespace
}  // namespace spp::prof
