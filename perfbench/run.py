#!/usr/bin/env python3
"""Host-performance benchmark of the simulator.

Builds perfbench_sim from the checkout's sources (Release), runs one
workload, checks every simulated result, and prints every metric by name
and unit. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones. End-to-end
times are calibrated against a reference kernel timed next to them, so
that the host's changing speed does not show as a change of the program.

    python3 perfbench/run.py --workload fig16 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload miss-bound --seed 3 --seconds 30 --trace 1
    python3 perfbench/run.py --workload hit-bound --record-pins   # seed 0 only

Seed 0 runs each app's default inputs, which are checked against the
fingerprints pinned in perfbench/pins/. Any other seed shifts every
point's input seed; its results must repeat bit-identically within the
run and agree on app digests across platforms. See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import metrics

WORKLOADS = ("fig16", "hit-bound", "miss-bound")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SIM_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def available_cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def jobs():
    """Sweep worker threads: four, or fewer on a smaller host."""
    return max(1, min(4, available_cores()))


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (d if d.is_absolute() else ROOT / d) / "perfbench"


def build(bdir):
    """Configure and build perfbench_sim; returns its path or None."""
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(bdir), "-j", str(jobs()), "--target",
         "perfbench_sim"],
    ]
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            log("perfbench: build step failed: " + " ".join(cmd))
            return None
    return bdir / "perfbench_sim"


def host_record(doc):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        rev = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True)
        git = rev.stdout.strip() if rev.returncode == 0 else "none"
    except OSError:
        git = "none"
    h = dict(doc["host"])
    h.update({"cores": os.cpu_count() or 0,
              "affinity_cores": available_cores(), "cpu_model": cpu,
              "machine": platform.machine(), "git_revision": git,
              "jobs": doc["jobs"]})
    return h


def load_pins(workload):
    path = HERE / "pins" / (workload + ".json")
    if not path.exists():
        return None
    return json.loads(path.read_text())["points"]


def record_pins(workload, doc):
    _, _, failures = metrics.check_points(doc, None)
    if failures:
        for label, name, why in failures:
            log("perfbench: not pinning, %s [%s]: %s" % (name, label, why))
        return 1
    points = {}
    for p in doc["passes"]:
        for pt in p["points"]:
            points[pt["name"]] = pt["fp"]
    path = HERE / "pins" / (workload + ".json")
    path.parent.mkdir(exist_ok=True)
    body = {"workload": workload, "seed": 0,
            "points": {k: points[k] for k in sorted(points)}}
    path.write_text(json.dumps(body, indent=1, sort_keys=True) + "\n")
    log("perfbench: pinned %d fingerprints in %s" % (len(points), path))
    return 0


def report(args, doc, host):
    pins = load_pins(args.workload) if args.seed == 0 else None
    if args.seed == 0 and pins is None:
        log("perfbench: no pinned fingerprints for " + args.workload)
        return 1
    attempted, failed, failures = metrics.check_points(doc, pins)
    for label, name, why in failures:
        print("FAILED %s [%s]: %s" % (name, label, why))

    print("host: " + json.dumps(host, sort_keys=True))
    print("fail_ratio: %.6f (%d failed of %d points attempted)" %
          (metrics.fail_ratio(failed, attempted), failed, attempted))
    if args.trace:
        values = metrics.per_layer(doc)
        units = dict(metrics.PER_LAYER)
        print("net: no counter is exposed after a run; its load shows in the "
              "proto.* counts and its host time awaits in-program tracing")
        print("per-layer metrics (%s is not applicable on this workload):" %
              metrics.NOT_APPLICABLE)
        summary = metrics.span_summary(doc["spans"])
        for name, row in sorted(summary.items()):
            print("  span %-20s n=%-5d total %10.1f ms  self %10.1f ms" %
                  (name, row["count"], row["total_ms"], row["self_ms"]))
        spans_out = build_dir() / ("spans-%s-%d.json" % (args.workload, args.seed))
        selfs = metrics.self_times(doc["spans"])
        spans_out.write_text(json.dumps({
            "host": host, "workload": args.workload, "seed": args.seed,
            "spans": [dict(s, self_ms=selfs[s["id"]]) for s in doc["spans"]],
        }) + "\n")
        print("spans written to " + str(spans_out))
    else:
        values = metrics.end_to_end(doc)
        units = dict(metrics.END_TO_END)
        walls = [p["wall_ms"] / 1e3 for p in metrics.passes(doc, "measured")]
        tail = metrics.highest_tail(walls)
        print("pass wall (s, raw): n=%d median=%.4f %s" % (
            len(walls), statistics.median(walls),
            "p%d=%.4f" % tail if tail else "(too few passes for a tail)"))
        refs = metrics.reference_samples(doc)
        print("reference kernel (ms): n=%d median=%.4f nominal=%.1f" % (
            len(refs), statistics.median(refs), metrics.REF_NOMINAL_MS))
        raw = metrics.end_to_end(doc, calibrated=False)
        print("raw (uncalibrated): " + " ".join(
            "%s=%.6g" % kv for kv in raw.items()))
        print("calibrated:")
    for name, value in values.items():
        print("  %-34s %14.6g %s" % (name, value, units[name]))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-pins", action="store_true",
                    help="run seed 0 untraced and pin its fingerprints")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.record_pins and (args.seed != 0 or args.trace):
        ap.error("--record-pins runs seed 0 with --trace 0")

    bdir = build_dir()
    sim = build(bdir)
    if sim is None:
        return 1
    work_dir = bdir / ("run-%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    raw = work_dir / "raw.json"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        cmd = [str(sim), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--jobs", str(jobs()), "--out", str(raw),
               "--work-dir", str(work_dir)]
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=SIM_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            log("perfbench: workload did not finish in %d s" % SIM_TIMEOUT_S)
            return 1
        if r.returncode != 0:
            log("perfbench: perfbench_sim exited with %d" % r.returncode)
            return 1
        doc = json.loads(raw.read_text())
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    host = host_record(doc)
    if args.record_pins:
        return record_pins(args.workload, doc)
    return report(args, doc, host)


if __name__ == "__main__":
    sys.exit(main())
