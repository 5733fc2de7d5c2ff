#!/usr/bin/env python3
"""Sum the solver's effort over a sweep of production ladders.

Runs `mmsynth minimize --jobs 1 --report-json` on the four perfbench
`ladder` functions (adder1, xor3, cmp2, mux21) at eight ladder shapes
(--max-rops/--max-steps from 4/4 to 8/7, the default 8/6 among them),
32 ladders in all. Every rung is encoded and solved on its own (no rung
inherits another's learnt clauses). It prints per shape and in total:

* `conflicts` -- the `solver.conflicts` counter, deterministic at --jobs 1;
* `solve_s`   -- summed time of the `solve` phases;
* `inproc_s`  -- summed time of the `inprocess` phases nested under them.

A single ladder's conflict count swings by tens of percent under any change
to the search (clause order, watch order, which clauses a pass reaches), so
comparing two builds on one ladder says little. The 32-ladder total averages
most of that out (reordering which binaries a pass checks first moves it by
about 1 %); use it to compare inprocessing variants. A sweep takes about a
minute.

Usage: python3 scripts/ladder_sweep.py [--bin target/release/mmsynth]
                                      [-- EXTRA_MMSYNTH_ARGS...]
e.g. `-- --no-inprocess` sweeps with inprocessing off. Stdlib only.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

FUNCTIONS = ["adder1", "xor3", "cmp2", "mux21"]
SHAPES = [
    (f"{r}/{s}", ["--max-rops", str(r), "--max-steps", str(s)])
    for r, s in [(4, 4), (5, 4), (5, 5), (6, 5), (6, 6), (7, 6), (8, 6), (8, 7)]
]


def phase_totals(phases, acc):
    for node in phases:
        if node["name"] in acc:
            acc[node["name"]] += node["total_us"]
        phase_totals(node.get("children", []), acc)


def run_ladder(binary, function, shape_args, extra, workdir):
    report = os.path.join(workdir, f"{function}.json")
    subprocess.run(
        [binary, "minimize", "--function", function, "--jobs", "1", *shape_args,
         *extra, "--report-json", report],
        check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    with open(report) as f:
        r = json.load(f)
    counters = {c["name"]: c["total"] for c in r["counters"]}
    acc = {"solve": 0, "inprocess": 0}
    phase_totals(r["phases"], acc)
    return counters.get("solver.conflicts", 0), acc["solve"] / 1e6, acc["inprocess"] / 1e6


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bin", default="target/release/mmsynth")
    ap.add_argument("extra", nargs="*", help="further mmsynth minimize arguments")
    args = ap.parse_args()
    total = [0, 0.0, 0.0]
    with tempfile.TemporaryDirectory() as workdir:
        for label, shape_args in SHAPES:
            row = [0, 0.0, 0.0]
            for function in FUNCTIONS:
                for k, v in enumerate(run_ladder(args.bin, function, shape_args, args.extra, workdir)):
                    row[k] += v
            print(f"{label:>8}  conflicts={row[0]:>7}  solve_s={row[1]:6.2f}  "
                  f"inproc_s={row[2]:6.3f}")
            total = [t + v for t, v in zip(total, row)]
    print(f"{'total':>8}  conflicts={total[0]:>7}  solve_s={total[1]:6.2f}  "
          f"inproc_s={total[2]:6.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
