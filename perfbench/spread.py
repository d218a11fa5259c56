#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs run.py once per seed on one workload (untraced) and prints, per
metric, the median, the quartiles and (q3 - q1) / median -- the spread the
benchmark's bounds are judged against.

    python3 perfbench/spread.py --workload miss-bound --seeds 1-10 --seconds 30
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import metrics

HERE = Path(__file__).resolve().parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", type=float, default=30.0)
    args = ap.parse_args()
    values = {}
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print("seed %d: run failed (exit %d)" % (seed, out.returncode))
            return 1
        result = json.loads(lines[-1])
        if not result["correct"]:
            print("seed %d: incorrect results" % seed)
            return 1
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items())))
        for k, v in result["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    for k, vs in values.items():
        median, q1, q3, share = metrics.quartile_spread(vs)
        print("%-16s median %12.6g  q1 %12.6g  q3 %12.6g  spread %.4f" %
              (k, median, q1, q3, share))
    return 0


if __name__ == "__main__":
    sys.exit(main())
