#!/usr/bin/env python3
"""Measures one row of bench/trajectory.json (docs/PERFORMANCE.md).

    python3 bench/trajectory_row.py PATH/TO/sppsim-bench COMMIT

Runs the whole sppsim-bench table once at the default size, timed end to
end, then the eight acceptance entries once at --full, and prints the row
as one JSON object: the commit, the UTC date, the host record sppsim-bench
writes, the table's seconds and each acceptance entry's seconds (its
wall_ns).  Build sppsim-bench in Release, and measure rows that are to be
compared back to back on one host.
"""

import json
import os
import subprocess
import sys
import tempfile
import time

ACCEPTANCE = ("scheduling", "psort", "scatter", "nbody", "ppm", "fem",
              "scheduling_4n", "nbody_4n")


def run_bench(bench, out_dir, args):
    subprocess.run([bench, "--out", out_dir] + args, check=True,
                   stdout=subprocess.DEVNULL)


def load(out_dir, entry):
    with open(os.path.join(out_dir, "BENCH_%s.json" % entry)) as f:
        return json.load(f)


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    bench, commit = sys.argv[1], sys.argv[2]
    with tempfile.TemporaryDirectory() as table, \
            tempfile.TemporaryDirectory() as full:
        start = time.monotonic()
        run_bench(bench, table, [])
        table_s = time.monotonic() - start
        entries = []
        for entry in ACCEPTANCE:
            entries += ["--bench", entry]
        run_bench(bench, full, ["--full"] + entries)
        full_s = {entry: round(load(full, entry)["runs"][0]["wall_ns"] / 1e9, 3)
                  for entry in ACCEPTANCE}
        host = load(table, "fig8_nbody")["host"]
    print(json.dumps({"commit": commit,
                      "date": time.strftime("%Y-%m-%d", time.gmtime()),
                      "host": host,
                      "table_s": round(table_s, 2),
                      "full_s": full_s,
                      "full_total_s": round(sum(full_s.values()), 3)}))


if __name__ == "__main__":
    main()
