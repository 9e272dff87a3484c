// Table 2: PPM (PROMETHEUS) performance.
//
//   Grid Size   Tiles    Procs   Mflop/s (paper)
//   120x480     4x16     1       29.9
//   120x480     4x16     2       58.2
//   120x480     4x16     4       118.8
//   120x480     4x16     8       228.5
//   120x480     12x48    1       23.8
//   120x480     12x48    2       47.8
//   120x480     12x48    4       95.9
//   120x480     12x48    8       186.2
//   240x960     4x16     4       118.5
//
// The key shapes: near-linear scaling to 8 processors, the finer 12x48
// tiling uniformly slower (more frame overhead per zone), and the 2x-bigger
// grid matching the small grid's rate at equal processors.
#include <cstdio>
#include <map>
#include <utility>

#include "bench/harness.h"
#include "spp/apps/ppm/ppm.h"

namespace spp::bench {
namespace {

using ppm::PpmConfig;

double run_case(Run& run, std::size_t nx, std::size_t ny, unsigned tx,
                unsigned ty, unsigned np, unsigned steps) {
  PpmConfig cfg;
  cfg.nx = nx;
  cfg.ny = ny;
  cfg.tiles_x = tx;
  cfg.tiles_y = ty;
  cfg.steps = steps;
  return run_app<ppm::PpmTiled>(run, 1, cfg, np, rt::Placement::kHighLocality,
                                [&](ppm::PpmTiled& app) {
                                  app.init_blast(
                                      2.0, static_cast<double>(nx) / 6.0);
                                })
      .mflops;
}

}  // namespace

void table2_ppm(Run& run) {
  header("Table 2", "PPM hydrodynamics performance", run);

  struct Row {
    std::size_t nx, ny;
    unsigned tx, ty, procs;
    double paper;
  };
  const Row paper_rows[] = {
      {120, 480, 4, 16, 1, 29.9},  {120, 480, 4, 16, 2, 58.2},
      {120, 480, 4, 16, 4, 118.8}, {120, 480, 4, 16, 8, 228.5},
      {120, 480, 12, 48, 1, 23.8}, {120, 480, 12, 48, 2, 47.8},
      {120, 480, 12, 48, 4, 95.9}, {120, 480, 12, 48, 8, 186.2},
      {240, 960, 4, 16, 4, 118.5},
  };

  const unsigned steps = run.full() ? 2 : 1;
  const double shrink = run.full() ? 1.0 : 0.5;

  std::printf("%10s %8s %6s | %10s %10s\n", "grid", "tiles", "procs",
              "Mflop/s", "paper");
  std::map<std::pair<unsigned, unsigned>, double> small_grid;  // (tx, p)
  for (const Row& r : paper_rows) {
    const auto nx = static_cast<std::size_t>(static_cast<double>(r.nx) * shrink);
    const auto ny = static_cast<std::size_t>(static_cast<double>(r.ny) * shrink);
    const double mflops = run_case(run, nx, ny, r.tx, r.ty, r.procs, steps);
    char grid[32], tiles[16];
    std::snprintf(grid, sizeof grid, "%zux%zu", nx, ny);
    std::snprintf(tiles, sizeof tiles, "%ux%u", r.tx, r.ty);
    std::printf("%10s %8s %6u | %10.1f %10.1f\n", grid, tiles, r.procs,
                mflops, r.paper);
    if (r.nx == 120) small_grid[{r.tx, r.procs}] = mflops;
  }
  std::printf("\nshapes to check: ~linear scaling 1->8; 12x48 tiling slower\n"
              "than 4x16 at every processor count; 240x960@4 ~= 120x480@4.\n");

  bool finer_slower = true;
  for (const unsigned p : {1u, 2u, 4u, 8u}) {
    finer_slower = finer_slower && small_grid[{12, p}] < small_grid[{4, p}];
  }
  run.expect("12x48 tiling slower than 4x16 at every processor count",
             finer_slower);
}

}  // namespace spp::bench
