"""Arithmetic of the host-performance benchmark.

Pure functions over the raw document perfbench_sim writes: percentiles,
quartiles, span self time, failure accounting, fingerprint comparison and
the end-to-end and per-layer metrics. run.py does the I/O; the tests in
test_metrics.py cover this file.
"""

import math
import statistics

NOT_APPLICABLE = -1.0  # a per-layer metric the workload cannot measure

END_TO_END = [
    ("wall_s", "s"),
    ("maccess_per_s", "Macc/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

EVENT_KINDS = [
    "PageFault", "TwinCreate", "DiffSend", "LockAcquire", "LockGrant",
    "LockRelease", "BarrierArrive", "BarrierDepart", "SharedRead",
    "SharedWrite", "RacyRead", "RacyWrite", "Alloc",
]

PROTO_COUNTERS = [
    ("page_faults", "page_faults"),
    ("write_faults", "write_faults"),
    ("diff_bytes", "diff_bytes"),
    ("remote_misses", "remote_misses"),
    ("invalidations", "invalidations_sent"),
    ("remote_lock_acquires", "remote_lock_acquires"),
]

BUCKETS = ["Compute", "CacheStall", "DataWait", "LockWait", "BarrierWait",
           "Handler"]

PER_LAYER = (
    [("core.busy_share", "ratio"), ("core.tail_s", "s"),
     ("core.point_ms_p50", "ms"), ("core.point_ms_p90", "ms"),
     ("core.point_samples", "count"), ("core.baselines_computed", "count"),
     ("core.cache_store_ms_p50", "ms"), ("core.cache_lookup_ms_p50", "ms"),
     ("core.cache_hit_ratio", "ratio"),
     ("sim.engine_s", "s"), ("sim.switch_ns", "ns"),
     ("sim.stacks_allocated", "count"), ("sim.stacks_reused", "count"),
     ("runtime.fast_hit_ratio", "ratio"), ("runtime.fastpath_speedup", "ratio"),
     ("runtime.slow_ns", "ns"), ("runtime.create_ms", "ms"),
     ("mem.l1_miss_ratio", "ratio"), ("mem.l2_miss_ratio", "ratio")]
    + [("proto.%s_per_kacc" % name, "1/kacc") for name, _ in PROTO_COUNTERS]
    + [("proto.data_wait_share", "share"), ("proto.handler_share", "share")]
    + [("proto.events.%s" % k, "count") for k in EVENT_KINDS]
    + [("check.oracle_overhead", "ratio"), ("check.oracle_violations", "count"),
       ("check.trace_overhead", "ratio"), ("apps.init_verify_ms", "ms"),
       ("trace.overhead_s", "s")]
)

# ------------------------------------------------------------ statistics


def percentile(values, p):
    """Nearest-rank percentile p (0 < p <= 100) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n, p):
    """How many of n samples lie above the nearest-rank percentile p."""
    return n - max(1, math.ceil(p / 100.0 * n))


def tail_percentile(values, p, min_beyond=10):
    """Percentile p, or NOT_APPLICABLE when fewer than min_beyond samples
    lie beyond it (a tail read from fewer samples is noise)."""
    if samples_beyond(len(values), p) < min_beyond:
        return NOT_APPLICABLE
    return percentile(values, p)


def highest_tail(values, min_beyond=10):
    """(p, value) for the highest whole percentile p above the median with
    at least min_beyond samples beyond it, or None when the sample is too
    small for a tail."""
    for p in range(99, 50, -1):
        if samples_beyond(len(values), p) >= min_beyond:
            return p, percentile(values, p)
    return None


def quartile_spread(values):
    """(median, q1, q3, (q3 - q1) / median) as statistics.quantiles gives
    them; the last is the run-to-run spread the benchmark is judged on."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    share = (q3 - q1) / median if median else float("inf")
    return median, q1, q3, share


def self_times(spans):
    """Self time of each span: its duration minus the part of it that its
    children cover (overlapping children are counted once). Returns a
    dict span id -> ms."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        lo, hi = s["start_ms"], s["end_ms"]
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start_ms"]):
            a, b = max(lo, c["start_ms"]), min(hi, c["end_ms"])
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s["id"]] = (hi - lo) - covered
    return out


def fail_ratio(failed, attempted):
    """Failed points over points attempted; the base must be positive."""
    if attempted <= 0:
        raise ValueError("fail_ratio needs at least one attempted point")
    return failed / attempted


# ------------------------------------------------------------ correctness


def fingerprint_diff(expected, actual):
    """Fields whose simulated values differ, as 'field: expected -> actual'
    strings (empty when the fingerprints are identical)."""
    out = []
    for key in sorted(set(expected) | set(actual)):
        e, a = expected.get(key), actual.get(key)
        if e != a:
            out.append("%s: %s -> %s" % (key, e, a))
    return out


def digest_group(name):
    """Points whose app digests must agree: same app, version and scale on
    any platform and processor count. A baseline runs the original
    version, so it joins that version's group."""
    app_version, _platform, _procs, scale = name.split(" ")[:4]
    return app_version, scale


def check_points(doc, pins):
    """Check every point of every pass. Returns (attempted, failed,
    failures): point runs checked, point runs with at least one reason to
    fail, and a list of (pass label, point name, reason). A point fails
    on a run error, an incorrect result, a pinned-fingerprint mismatch
    (pins given), a fingerprint that differs from the same point earlier
    in the run, a nonzero oracle violation count, or an app digest that
    disagrees with the same version on another platform."""
    attempted = failed = 0
    failures = []
    first = {}
    digests = {}
    for p in doc["passes"]:
        for pt in p["points"]:
            attempted += 1
            name, fp = pt["name"], pt["fp"]
            reasons = []
            if pt["error"]:
                reasons.append("error: " + pt["error"])
            elif not pt["correct"]:
                reasons.append("incorrect result")
            if pins is not None:
                if name not in pins:
                    reasons.append("no pinned fingerprint")
                else:
                    diff = fingerprint_diff(pins[name], fp)
                    if diff:
                        reasons.append("pinned fingerprint mismatch: " +
                                       "; ".join(diff))
            if name in first:
                diff = fingerprint_diff(first[name], fp)
                if diff:
                    reasons.append("not deterministic: " + "; ".join(diff))
            else:
                first[name] = fp
            if pt["oracle_violations"] > 0:
                reasons.append("%d oracle violations" % pt["oracle_violations"])
            if fp["state_hash"] or fp["result_hash"]:
                key = digest_group(name)
                dig = (fp["state_hash"], fp["result_hash"])
                if digests.setdefault(key, (name, dig))[1] != dig:
                    reasons.append("digest differs from " + digests[key][0])
            failed += 1 if reasons else 0
            for r in reasons:
                failures.append((p["label"], name, r))
    return attempted, failed, failures


# ------------------------------------------------------------ metrics


def accesses(pt):
    return pt["fp"]["reads"] + pt["fp"]["writes"]


def computed(points):
    """Points simulated in this pass (not served from a cache)."""
    return [pt for pt in points if not pt["cached"]]


def passes(doc, label):
    return [p for p in doc["passes"] if p["label"] == label]


def pass_engine_ms(p):
    return sum(pt["host_wall_ms"] for pt in computed(p["points"]))


def pass_setup_ms(p):
    """Host time of the pass's points outside Engine::run: Platform::create,
    the app's untimed init and result check (and, in a sweep, the cache
    store)."""
    return sum(pt["wall_ms"] - pt["host_wall_ms"] for pt in computed(p["points"]))


def pass_maccess_per_s(p):
    pts = computed(p["points"])
    return sum(accesses(pt) for pt in pts) / (pass_engine_ms(p) * 1e3)


# The reference kernel's nominal time: its typical time on the recorded
# host with every core busy. Calibrated times are host times scaled by
# REF_NOMINAL_MS / (the reference time measured next to them).
REF_NOMINAL_MS = 5.7


def calibration(ref_ms):
    """Factor that scales a time measured next to a reference sample of
    ref_ms to the reference's nominal speed."""
    if ref_ms <= 0:
        raise ValueError("reference sample must be positive")
    return REF_NOMINAL_MS / ref_ms


def pointwise_median(ms, key):
    """Sum over a workload's points of each point's median across the
    passes, where key maps a point record to the value taken."""
    return sum(statistics.median(key(p["points"][j]) for p in ms)
               for j in range(len(ms[0]["points"])))


def end_to_end(doc, calibrated=True):
    """Every end-to-end metric over the measured passes. Times (and the
    rate) are calibrated against the reference kernel unless calibrated
    is False, which gives the raw host figures.

    A sweep's points overlap on the workers, so a sweep is read whole: it
    is calibrated by the median of the reference burst that follows it,
    and each metric is the median over sweeps. One-at-a-time points ran
    on every worker at once, each followed by a reference sample on its
    worker: each point's time is calibrated by its own sample, and wall,
    engine and set-up time are sums of each point's median. Peak memory
    is a median over sweeps, or the warm-up pass's, which ran alone."""
    ms = passes(doc, "measured")
    if not ms:
        raise ValueError("no measured pass")
    if ms[0]["sweep"]:
        k = [calibration(statistics.median(p["ref_ms"])) if calibrated else 1.0
             for p in ms]
        wall_ms = statistics.median(p["wall_ms"] * f for p, f in zip(ms, k))
        rate = statistics.median(pass_maccess_per_s(p) / f
                                 for p, f in zip(ms, k))
        setup_ms = statistics.median(pass_setup_ms(p) * f
                                     for p, f in zip(ms, k))
        rss_kb = statistics.median(p["peak_rss_kb"] for p in ms)
    else:
        k = (lambda pt: calibration(pt["ref_ms"])) if calibrated else (
            lambda pt: 1.0)
        wall_ms = pointwise_median(ms, lambda pt: pt["wall_ms"] * k(pt))
        acc = sum(accesses(pt) for pt in ms[0]["points"])
        engine_ms = pointwise_median(ms, lambda pt: pt["host_wall_ms"] * k(pt))
        rate = acc / (engine_ms * 1e3)
        setup_ms = pointwise_median(
            ms, lambda pt: (pt["wall_ms"] - pt["host_wall_ms"]) * k(pt))
        rss_kb = passes(doc, "warmup")[0]["peak_rss_kb"]
    return {
        "wall_s": wall_ms / 1e3,
        "maccess_per_s": rate,
        "setup_s": setup_ms / 1e3,
        "peak_rss_mb": rss_kb / 1024.0,
    }


def reference_samples(doc):
    """Every reference-kernel sample of the measured passes, in ms."""
    out = []
    for p in passes(doc, "measured"):
        out.extend(p.get("ref_ms", []))
        out.extend(pt["ref_ms"] for pt in p["points"] if pt.get("ref_ms", -1) > 0)
    return out


def _ratio(num, den):
    return num / den if den else NOT_APPLICABLE


def min_engine_ms(doc, label, names=None):
    """Engine time of the fastest pass with this label, over the points
    named (default: all). Ratios of these compare each mode at its fast
    end, as the end-to-end metrics do."""
    return min(sum(pt["host_wall_ms"] for pt in computed(p["points"])
                   if names is None or pt["name"] in names)
               for p in passes(doc, label))


def per_layer(doc):
    """Every per-layer metric from a traced run's document."""
    m = passes(doc, "measured")[0]
    t = passes(doc, "traced")[0]
    warm = passes(doc, "warm")[0]
    sweep = t["sweep"]
    jobs = doc["jobs"] if sweep else 1
    na = NOT_APPLICABLE
    out = {}

    walls = [pt["wall_ms"] for pt in computed(t["points"])]
    busy = sum(walls)
    out["core.busy_share"] = busy / (jobs * t["wall_ms"])
    out["core.tail_s"] = (t["wall_ms"] - busy / jobs) / 1e3
    out["core.point_ms_p50"] = statistics.median(walls)
    out["core.point_ms_p90"] = tail_percentile(walls, 90)
    out["core.point_samples"] = float(len(walls))
    out["core.baselines_computed"] = float(
        sum(1 for pt in computed(t["points"]) if pt["name"].endswith(" base")))
    out["core.cache_store_ms_p50"] = statistics.median(doc["cache_store_ms"])
    out["core.cache_lookup_ms_p50"] = statistics.median(doc["cache_lookup_ms"])
    out["core.cache_hit_ratio"] = _ratio(warm["fleet"]["cache_hits"],
                                         len(t["points"]))

    engine_ms = min_engine_ms(doc, "measured")
    out["sim.engine_s"] = engine_ms / 1e3
    out["sim.switch_ns"] = statistics.median(doc["switch_ns"])
    # Incomplete when a sweep worker never reached its sentinel point.
    stacks = doc["stacks"]
    out["sim.stacks_allocated"] = (float(stacks["allocated"])
                                   if stacks["complete"] else na)
    out["sim.stacks_reused"] = float(stacks["reused"]) if stacks["complete"] else na

    pts = computed(m["points"])
    acc = sum(accesses(pt) for pt in pts)
    total = lambda key: sum(pt["fp"][key] for pt in pts)
    if sweep:
        out["runtime.fast_hit_ratio"] = na
        out["runtime.fastpath_speedup"] = na
        out["runtime.slow_ns"] = na
    else:
        slow = sum(pt["slow_calls"] for pt in pts)
        out["runtime.fast_hit_ratio"] = 1.0 - slow / acc
        out["runtime.fastpath_speedup"] = (min_engine_ms(doc, "filter_off") /
                                           engine_ms)
        out["runtime.slow_ns"] = _ratio(engine_ms * 1e6, slow)
    out["runtime.create_ms"] = statistics.mean(pt["create_ms"] for pt in pts)

    out["mem.l1_miss_ratio"] = total("l1_misses") / acc
    out["mem.l2_miss_ratio"] = _ratio(total("l2_misses"), total("l1_misses"))
    for name, key in PROTO_COUNTERS:
        out["proto.%s_per_kacc" % name] = total(key) * 1e3 / acc
    cycles = sum(total(b) for b in BUCKETS)
    out["proto.data_wait_share"] = total("DataWait") / cycles
    out["proto.handler_share"] = total("Handler") / cycles

    if sweep:
        for k in EVENT_KINDS:
            out["proto.events.%s" % k] = na
        out["check.oracle_overhead"] = na
        out["check.oracle_violations"] = na
        out["check.trace_overhead"] = na
    else:
        hook = passes(doc, "trace_hook")[0]
        oracle = passes(doc, "oracle")[0]
        for k in EVENT_KINDS:
            out["proto.events.%s" % k] = float(
                sum(pt["events"][k] for pt in hook["points"]))
        # The oracle pass may hold a subset (the oracle's domain limit);
        # compare it with the same points untraced.
        checked = {pt["name"] for pt in oracle["points"]}
        out["check.oracle_overhead"] = (min_engine_ms(doc, "oracle") /
                                        min_engine_ms(doc, "measured", checked))
        out["check.oracle_violations"] = float(sum(
            max(0, pt["oracle_violations"])
            for p in passes(doc, "oracle") for pt in p["points"]))
        out["check.trace_overhead"] = min_engine_ms(doc, "trace_hook") / engine_ms

    if sweep:
        init = [pt["wall_ms"] - pt["create_ms"] - pt["host_wall_ms"] for pt in pts]
    else:
        init = [pt["run_ms"] - pt["host_wall_ms"] for pt in pts]
    out["apps.init_verify_ms"] = statistics.mean(init)
    out["trace.overhead_s"] = (t["wall_ms"] - m["wall_ms"]) / 1e3
    return out


def span_summary(spans):
    """Per span name: count, total ms and self ms."""
    selfs = self_times(spans)
    out = {}
    for s in spans:
        row = out.setdefault(s["name"], {"count": 0, "total_ms": 0.0,
                                         "self_ms": 0.0})
        row["count"] += 1
        row["total_ms"] += s["end_ms"] - s["start_ms"]
        row["self_ms"] += selfs[s["id"]]
    return out
