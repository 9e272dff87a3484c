#!/usr/bin/env python3
"""Measures one row of bench/trajectory.json (docs/PERFORMANCE.md).

    python3 bench/trajectory_row.py PATH/TO/sppsim-bench COMMIT

Runs the whole sppsim-bench table once at the default size, timed end to
end, then the eight acceptance entries at --full five times, and prints the
row as one JSON object: the commit, the UTC date, the host record
sppsim-bench writes, the table's seconds, fig8_nbody's own seconds in that
table run, and each acceptance entry's median seconds over the five runs
(its wall_ns).  Build sppsim-bench in Release, and measure rows that are to
be compared back to back on one host.
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

ACCEPTANCE = ("scheduling", "psort", "scatter", "nbody", "ppm", "fem",
              "scheduling_4n", "nbody_4n")
FULL_RUNS = 5


def run_bench(bench, out_dir, args):
    subprocess.run([bench, "--out", out_dir] + args, check=True,
                   stdout=subprocess.DEVNULL)


def load(out_dir, entry):
    with open(os.path.join(out_dir, "BENCH_%s.json" % entry)) as f:
        return json.load(f)


def wall_s(out_dir, entry):
    return load(out_dir, entry)["runs"][0]["wall_ns"] / 1e9


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    bench, commit = sys.argv[1], sys.argv[2]
    entries = []
    for entry in ACCEPTANCE:
        entries += ["--bench", entry]
    with tempfile.TemporaryDirectory() as table:
        start = time.monotonic()
        run_bench(bench, table, [])
        table_s = time.monotonic() - start
        fig8_s = wall_s(table, "fig8_nbody")
        host = load(table, "fig8_nbody")["host"]
    samples = {entry: [] for entry in ACCEPTANCE}
    for _ in range(FULL_RUNS):
        with tempfile.TemporaryDirectory() as full:
            run_bench(bench, full, ["--full"] + entries)
            for entry in ACCEPTANCE:
                samples[entry].append(wall_s(full, entry))
    full_s = {entry: round(statistics.median(samples[entry]), 3)
              for entry in ACCEPTANCE}
    print(json.dumps({"commit": commit,
                      "date": time.strftime("%Y-%m-%d", time.gmtime()),
                      "host": host,
                      "table_s": round(table_s, 2),
                      "fig8_s": round(fig8_s, 2),
                      "full_runs": FULL_RUNS,
                      "full_s": full_s,
                      "full_total_s": round(sum(full_s.values()), 3)}))


if __name__ == "__main__":
    main()
