// spp::ckpt Store tests (docs/RECOVERY.md):
//   * a capture's host image, seeded into a second Store, round-trips
//     GlobalArray, POD, and host-mirror regions, and the capture charges
//     the copy through the checkpoint counters;
//   * the store holds only the newest epoch;
//   * the Registrar and seed_epoch reject malformed region sets with clear
//     errors naming the epoch and region;
//   * a constructed-but-unused Store is bit-free: zero cost, zero counters.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "spp/arch/topology.h"
#include "spp/ckpt/ckpt.h"
#include "spp/rt/garray.h"
#include "spp/rt/runtime.h"

namespace spp::ckpt {
namespace {

using arch::Topology;

// ---------------------------------------------------------------------------
// Store mechanics
// ---------------------------------------------------------------------------

TEST(Ckpt, CaptureRestoreRoundTripsEveryRegionKind) {
  // A capture's host image seeded into a second Store -- what a resumed
  // process does with a disk epoch -- restores every region kind.
  struct Control {
    std::uint32_t step = 0;
    double dt = 0;
  };
  rt::Runtime runtime(Topology{.nodes = 1});
  rt::GlobalArray<double> a(runtime, 64, arch::MemClass::kFarShared, "ck.a");
  rt::GlobalArray<double> a2(runtime, 64, arch::MemClass::kFarShared,
                             "ck.a2");
  Control ctl, ctl2;
  std::vector<float> mirror(16), mirror2(16);

  Store store(runtime);
  store.registrar().add("a", a);
  store.registrar().add_pod("ctl", ctl);
  store.registrar().add_host("mirror", mirror);
  Store seeded(runtime);
  seeded.registrar().add("a", a2);
  seeded.registrar().add_pod("ctl", ctl2);
  seeded.registrar().add_host("mirror", mirror2);

  sim::Time seed_cost = 1;
  runtime.run([&] {
    for (std::size_t i = 0; i < a.size(); ++i) a.raw(i) = 1.5 * static_cast<double>(i);
    ctl = {7, 0.25};
    for (std::size_t i = 0; i < mirror.size(); ++i) {
      mirror[i] = static_cast<float>(i);
    }
    store.capture(3);

    const sim::Time t0 = runtime.now();
    seeded.seed_epoch(3, store.epoch_image(3));
    seed_cost = runtime.now() - t0;
  });

  for (std::size_t i = 0; i < a2.size(); ++i) {
    ASSERT_EQ(a2.raw(i), 1.5 * static_cast<double>(i)) << "element " << i;
  }
  EXPECT_EQ(ctl2.step, 7u);
  EXPECT_EQ(ctl2.dt, 0.25);
  for (std::size_t i = 0; i < mirror2.size(); ++i) {
    ASSERT_EQ(mirror2[i], static_cast<float>(i));
  }
  EXPECT_EQ(seeded.epoch_image(3).blobs, store.epoch_image(3).blobs);
  EXPECT_EQ(seed_cost, 0u) << "seeding charges nothing";

  const arch::PerfCounters& p = runtime.machine().perf();
  const std::uint64_t bytes =
      64 * sizeof(double) + sizeof(Control) + 16 * sizeof(float);
  EXPECT_EQ(p.checkpoints_taken, 1u);
  EXPECT_EQ(p.ckpt_bytes, bytes);
  EXPECT_GT(p.ckpt_ns, 0u) << "the snapshot copy must cost simulated time";
}

TEST(Ckpt, StoreHoldsOnlyTheNewestEpoch) {
  // A durable run persists only the epoch it just captured, so the store
  // keeps one snapshot and its host memory stays flat however long the run.
  rt::Runtime runtime(Topology{.nodes = 1});
  std::vector<double> state(8, 0.0);
  Store store(runtime);
  store.registrar().add_host("state", state);

  runtime.run([&] {
    for (std::uint64_t e = 0; e < 3; ++e) {
      state[0] = 10.0 + static_cast<double>(e);
      store.capture(e);
    }
  });

  const Store::Snapshot& image = store.epoch_image(2);
  ASSERT_EQ(image.blobs.size(), 1u);
  ASSERT_EQ(image.blobs[0].size(), 8 * sizeof(double));
  double first = 0;
  std::memcpy(&first, image.blobs[0].data(), sizeof first);
  EXPECT_EQ(first, 12.0);
  try {
    store.epoch_image(0);
    FAIL() << "epoch 0 was replaced by epochs 1 and 2";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "ckpt: no snapshot for epoch 0");
  }
}

TEST(Ckpt, RegistrarAndStoreRejectProtocolViolations) {
  rt::Runtime runtime(Topology{.nodes = 1});
  rt::GlobalArray<double> shared(runtime, 8, arch::MemClass::kFarShared,
                                 "ck.shared");
  rt::GlobalArray<double> priv(runtime, 8, arch::MemClass::kThreadPrivate,
                               "ck.priv");
  Store store(runtime);

  // Private-class arrays keep one copy per CPU; one snapshot would lose the
  // rest, so registration is refused outright.
  EXPECT_THROW(store.registrar().add("p", priv), Error);
  // Ranges must stay inside the array.
  EXPECT_THROW(store.registrar().add("s", shared, 4, 8), Error);
  // Names are unique.
  store.registrar().add("s", shared);
  EXPECT_THROW(store.registrar().add("s", shared, 0, 4), Error);

  std::vector<double> mirror(4, 1.0);
  store.registrar().add_host("m", mirror);
  runtime.run([&] {
    EXPECT_THROW(store.epoch_image(0), Error) << "no epoch 0 was ever captured";
    store.capture(0);
    const Store::Snapshot image = store.epoch_image(0);
    // A host mirror that changed size between capture and seed is a
    // protocol violation, not a silent partial copy.
    mirror.resize(6, 0.0);
    EXPECT_THROW(store.seed_epoch(0, image), Error);
    mirror.resize(4);
    EXPECT_NO_THROW(store.seed_epoch(0, image));
  });

  Store empty(runtime);
  runtime.run([&] {
    EXPECT_THROW(empty.capture(0), Error) << "no regions registered";
  });
}

TEST(Ckpt, RestoreErrorsNameTheEpochAndRegion) {
  // A disk epoch is outside input: seed_epoch names the epoch and region of
  // every mismatch with the registered region set.
  rt::Runtime runtime(Topology{.nodes = 1});
  std::vector<double> state(8, 1.0);
  Store store(runtime);
  store.registrar().add_host("state", state);
  runtime.run([&] { store.capture(2); });
  const Store::Snapshot image = store.epoch_image(2);

  const auto seed_error = [&](Store& into) -> std::string {
    try {
      into.seed_epoch(2, image);
    } catch (const Error& e) {
      return e.what();
    }
    return "no error";
  };

  // Epoch-not-found names the missing epoch.
  try {
    store.epoch_image(7);
    FAIL() << "no epoch 7 exists";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "ckpt: no snapshot for epoch 7");
  }
  // A different region count.
  std::vector<double> extra(2, 0.0);
  Store more(runtime);
  more.registrar().add_host("state", state);
  more.registrar().add_host("extra", extra);
  EXPECT_EQ(seed_error(more),
            "ckpt: disk epoch 2 holds 1 regions but 2 are registered");
  // A different region name.
  Store renamed(runtime);
  renamed.registrar().add_host("other", state);
  EXPECT_EQ(seed_error(renamed),
            "ckpt: region 'other' does not match 'state' in disk epoch 2");
  // A region whose size changed names the region and both sizes.
  std::vector<double> bigger(10, 0.0);
  Store resized(runtime);
  resized.registrar().add_host("state", bigger);
  EXPECT_EQ(seed_error(resized),
            "ckpt: region 'state' is 80 bytes but disk epoch 2 holds 64");
}

TEST(Ckpt, UnusedStoreIsBitFree) {
  // Zero-cost-when-detached: constructing a Store (and even registering
  // regions) charges nothing until capture() runs.
  const auto timed_run = [](bool with_store) {
    rt::Runtime runtime(Topology{.nodes = 1});
    rt::GlobalArray<double> a(runtime, 256, arch::MemClass::kFarShared,
                              "ck.work");
    Store store(runtime);
    if (with_store) store.registrar().add("a", a);
    runtime.run([&] {
      runtime.parallel(4, rt::Placement::kUniform,
                       [&](unsigned i, unsigned n) {
                         const std::size_t chunk = a.size() / n;
                         for (std::size_t k = i * chunk; k < (i + 1) * chunk;
                              ++k) {
                           a.write(k, 2.0 * static_cast<double>(k));
                         }
                         runtime.work_flops(1000);
                       });
    });
    const arch::PerfCounters& p = runtime.machine().perf();
    EXPECT_EQ(p.checkpoints_taken, 0u);
    EXPECT_EQ(p.ckpt_bytes, 0u);
    EXPECT_EQ(p.rollbacks, 0u);
    return runtime.elapsed();
  };
  EXPECT_EQ(timed_run(false), timed_run(true));
}

}  // namespace
}  // namespace spp::ckpt
