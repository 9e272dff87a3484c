// Figure 4: Cost of Round Trip Message Passing.
//
// PVM round-trip time between a pair of processors on one hypernode (local)
// and on two hypernodes (global), versus message size.  Matching the paper's
// methodology, the timed window excludes the cost of building the message
// (pack/unpack): the echo bounces the received message without unpacking.
//
// Paper targets: ~30 us local round trip and ~70 us global (ratio ~2.3),
// approximately flat below 8 KB; above 8 KB, page-granular growth.
#include <cstdio>
#include <map>
#include <utility>
#include <vector>

#include "bench/harness.h"
#include "spp/pvm/pvm.h"
#include "spp/rt/runtime.h"

namespace spp::bench {
namespace {

double round_trip_us(Run& run, unsigned nodes, rt::Placement placement,
                     std::size_t bytes, unsigned trials) {
  rt::Runtime runtime(arch::Topology{.nodes = nodes});
  double best = 1e300;
  runtime.run([&] {
    pvm::Pvm root(runtime);
    root.spawn(2, placement, [&](pvm::Pvm& vm, int me, int) {
      std::vector<double> buf(bytes / 8, 1.0);
      if (me == 0) {
        for (unsigned k = 0; k < trials + 1; ++k) {
          pvm::Message m;
          m.pack(buf.data(), buf.size());
          const sim::Time t0 = runtime.now();
          vm.send(1, 1, std::move(m));
          pvm::Message reply = vm.recv(1, 2);
          const sim::Time rtt = runtime.now() - t0;
          if (k > 0) best = std::min(best, sim::to_usec(rtt));  // skip warmup
        }
      } else {
        for (unsigned k = 0; k < trials + 1; ++k) {
          pvm::Message m = vm.recv(0, 1);
          m.tag = 2;
          vm.send(0, 2, std::move(m));  // echo without unpacking
        }
      }
    });
  });
  run.seal(runtime);
  return best;
}

}  // namespace

void fig4_message(Run& run) {
  header("Figure 4", "Cost of Round Trip Message Passing", run);
  const unsigned trials = run.full() ? 30 : 6;

  std::printf("%10s %12s %12s %8s\n", "bytes", "local_us", "global_us",
              "ratio");
  std::map<std::size_t, std::pair<double, double>> rtt;  // bytes -> (l, g)
  for (std::size_t bytes = 64; bytes <= (256u << 10); bytes *= 2) {
    const double local =
        round_trip_us(run, 1, rt::Placement::kHighLocality, bytes, trials);
    const double global =
        round_trip_us(run, 2, rt::Placement::kUniform, bytes, trials);
    rtt[bytes] = {local, global};
    std::printf("%10zu %12.1f %12.1f %8.2f\n", bytes, local, global,
                global / local);
  }

  const auto [l1k, g1k] = rtt[1024];
  std::printf("\nderived metrics              measured   paper\n");
  std::printf("local round trip, 1KB (us)   %8.1f   ~30\n", l1k);
  std::printf("global round trip, 1KB (us)  %8.1f   ~70\n", g1k);
  std::printf("global/local ratio           %8.2f   ~2.3\n", g1k / l1k);

  // The 8 KB knee: one step past 8 KB costs more than the whole rise below.
  const auto [l64, g64] = rtt[64];
  const auto [l8k, g8k] = rtt[8192];
  const auto [l16k, g16k] = rtt[16384];
  run.near("local round trip, 1KB (us)", l1k, 30, 6);
  run.near("global round trip, 1KB (us)", g1k, 70, 14);
  run.near("global/local ratio", g1k / l1k, 2.3, 0.3);
  run.expect("8KB->16KB step above the 64B->8KB rise, local",
             l16k - l8k > l8k - l64);
  run.expect("8KB->16KB step above the 64B->8KB rise, global",
             g16k - g8k > g8k - g64);
}

}  // namespace spp::bench
