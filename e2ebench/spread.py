#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 e2ebench/spread.py --workload regular8-default --runs 10 [--first-seed 1]

Runs run.py --trace 0 once per seed (seeds first-seed, first-seed+1, ...)
and prints, per end-to-end metric, the median of the runs, the spread
(interquartile distance as a share of the median) and the metric's bound
from BENCHMARK.json. A spread above a third of the bound is flagged. With
--against FILE (a JSON list of earlier runs' metrics, as written by --save)
it also applies the acceptance rule of stats.check_bound.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True  # keep the source tree clean
sys.path.insert(0, HERE)

import stats  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--save", help="write the runs' metrics to this JSON file")
    ap.add_argument("--against", help="compare with runs saved by an earlier --save")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print("seed %d: output checks failed (%d of %d)" % (seed, result["failed"],
                                                                 result["attempted"]))
        runs.append({k: v["value"] for k, v in result["metrics"].items()})
        print("seed %d: %s" % (seed, json.dumps(runs[-1])), flush=True)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(runs, f)
    earlier = None
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)
    ok = True
    for m in bench["end_to_end"]:
        values = [r[m["name"]] for r in runs]
        sp = stats.spread(values)
        flag = "" if sp <= m["bound"] / 3 else "  <-- above a third of the bound"
        print("%-20s median %-14.6g spread %6.3f  bound %.2f%s"
              % (m["name"], stats.median(values), sp, m["bound"], flag))
        if earlier is not None:
            good, detail = stats.check_bound([r[m["name"]] for r in earlier], values, m["bound"],
                                             m["better"])
            ok = ok and good
            print("%-20s against earlier runs: %s %s" % ("", "ok" if good else "FAIL",
                                                         json.dumps(detail)))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
