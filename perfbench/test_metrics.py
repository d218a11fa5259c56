"""Tests of the benchmark's own arithmetic (perfbench/metrics.py).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import statistics
import unittest
from pathlib import Path

import metrics


def fp(**over):
    base = {"exec_cycles": 100, "reads": 10, "writes": 5, "state_hash": 0,
            "result_hash": 0}
    base.update(over)
    return base


def point(name, **over):
    pt = {"name": name, "error": "", "correct": True, "cached": False,
          "wall_ms": 10.0, "create_ms": 1.0, "run_ms": 9.0,
          "host_wall_ms": 8.0, "slow_calls": 3, "oracle_violations": -1,
          "fp": fp()}
    pt.update(over)
    return pt


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(metrics.percentile(values, 50), 50)
        self.assertEqual(metrics.percentile(values, 90), 90)
        self.assertEqual(metrics.percentile(values, 100), 100)
        self.assertEqual(metrics.percentile([7.0], 90), 7.0)
        self.assertEqual(metrics.percentile([3, 1, 2], 50), 2)

    def test_empty_sample_is_an_error(self):
        with self.assertRaises(ValueError):
            metrics.percentile([], 50)

    def test_samples_beyond(self):
        self.assertEqual(metrics.samples_beyond(100, 90), 10)
        self.assertEqual(metrics.samples_beyond(135, 90), 13)
        self.assertEqual(metrics.samples_beyond(99, 90), 9)
        self.assertEqual(metrics.samples_beyond(1, 50), 0)

    def test_tail_needs_ten_samples_beyond(self):
        self.assertEqual(metrics.tail_percentile(list(range(100)), 90), 89)
        self.assertEqual(metrics.tail_percentile(list(range(99)), 90),
                         metrics.NOT_APPLICABLE)
        self.assertEqual(metrics.tail_percentile(list(range(6)), 90),
                         metrics.NOT_APPLICABLE)

    def test_highest_tail(self):
        self.assertEqual(metrics.highest_tail(list(range(1, 101))), (90, 90))
        self.assertEqual(metrics.highest_tail(list(range(1, 31))), (66, 20))
        self.assertIsNone(metrics.highest_tail(list(range(10))))
        self.assertIsNone(metrics.highest_tail(list(range(20))))


class Quartiles(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
        median, q1, q3, share = metrics.quartile_spread(values)
        e1, _, e3 = statistics.quantiles(values, n=4)
        self.assertEqual((q1, q3), (e1, e3))
        self.assertEqual(median, 14.5)
        self.assertAlmostEqual(share, (e3 - e1) / 14.5)

    def test_identical_values_have_no_spread(self):
        self.assertEqual(metrics.quartile_spread([2.0] * 10)[3], 0.0)


class SelfTime(unittest.TestCase):
    def span(self, i, name, a, b, parent):
        return {"id": i, "name": name, "start_ms": a, "end_ms": b,
                "parent": parent, "point": 0}

    def test_parent_minus_children(self):
        spans = [self.span(0, "point", 0, 100, -1),
                 self.span(1, "runtime.create", 0, 10, 0),
                 self.span(2, "apps.run", 10, 100, 0),
                 self.span(3, "sim.engine", 40, 100, 2)]
        st = metrics.self_times(spans)
        self.assertEqual(st, {0: 0, 1: 10, 2: 30, 3: 60})

    def test_overlapping_children_count_once(self):
        spans = [self.span(0, "pass", 0, 100, -1),
                 self.span(1, "point", 10, 60, 0),
                 self.span(2, "point", 40, 80, 0)]
        self.assertEqual(metrics.self_times(spans)[0], 30)

    def test_children_are_clipped_to_the_parent(self):
        spans = [self.span(0, "point", 10, 20, -1),
                 self.span(1, "sim.engine", 5, 15, 0)]
        self.assertEqual(metrics.self_times(spans)[0], 5)

    def test_summary_sums_by_name(self):
        spans = [self.span(0, "point", 0, 10, -1),
                 self.span(1, "point", 10, 30, -1),
                 self.span(2, "sim.engine", 12, 30, 1)]
        row = metrics.span_summary(spans)["point"]
        self.assertEqual(row, {"count": 2, "total_ms": 30, "self_ms": 12})


class FailRatio(unittest.TestCase):
    def test_ratio_and_base(self):
        self.assertEqual(metrics.fail_ratio(0, 36), 0.0)
        self.assertEqual(metrics.fail_ratio(3, 12), 0.25)
        with self.assertRaises(ValueError):
            metrics.fail_ratio(0, 0)


class Fingerprints(unittest.TestCase):
    def test_diff_names_each_field(self):
        diff = metrics.fingerprint_diff(fp(), fp(exec_cycles=101, reads=9))
        self.assertEqual(diff, ["exec_cycles: 100 -> 101", "reads: 10 -> 9"])
        self.assertEqual(metrics.fingerprint_diff(fp(), fp()), [])

    def test_missing_field_is_a_difference(self):
        actual = fp()
        del actual["writes"]
        self.assertEqual(metrics.fingerprint_diff(fp(), actual),
                         ["writes: 5 -> None"])

    def doc(self, *passes):
        return {"passes": [{"label": label, "points": pts}
                           for label, pts in passes]}

    def test_pinned_mismatch_fails_the_point_by_name(self):
        doc = self.doc(("measured", [point("lu/2d FGS 16p small"),
                                     point("ocean/2d SVM 16p small",
                                           fp=fp(exec_cycles=7))]))
        pins = {"lu/2d FGS 16p small": fp(), "ocean/2d SVM 16p small": fp()}
        attempted, failed, failures = metrics.check_points(doc, pins)
        self.assertEqual((attempted, failed), (2, 1))
        self.assertEqual(len(failures), 1)
        label, name, why = failures[0]
        self.assertEqual((label, name), ("measured", "ocean/2d SVM 16p small"))
        self.assertIn("exec_cycles: 100 -> 7", why)

    def test_repeat_must_be_bit_identical(self):
        doc = self.doc(("warmup", [point("a/b SVM 16p small")]),
                       ("measured", [point("a/b SVM 16p small",
                                           fp=fp(writes=6))]))
        _, failed, failures = metrics.check_points(doc, None)
        self.assertEqual((failed, len(failures)), (1, 1))
        self.assertIn("not deterministic", failures[0][2])

    def test_each_failing_run_of_a_point_counts(self):
        bad = point("a/b SVM 16p small", error="boom")
        doc = self.doc(("measured", [bad]), ("measured", [bad]))
        attempted, failed, failures = metrics.check_points(doc, None)
        self.assertEqual((attempted, failed), (2, 2))

    def test_errors_incorrect_results_and_violations_fail(self):
        doc = self.doc(("oracle", [
            point("a/b SVM 16p small", error="boom"),
            point("a/c SVM 16p small", correct=False),
            point("a/d SVM 16p small", oracle_violations=2)]))
        _, failed, failures = metrics.check_points(doc, None)
        self.assertEqual(failed, 3)
        self.assertEqual([f[2] for f in failures],
                         ["error: boom", "incorrect result",
                          "2 oracle violations"])

    def test_digests_agree_across_platforms_and_baselines(self):
        same = fp(state_hash=5, result_hash=6)
        doc = self.doc(("measured", [
            point("index/hash-orig SVM 1p small base", fp=same),
            point("index/hash-orig SMP 16p small", fp=same),
            point("index/hash-orig DSM 16p small",
                  fp=fp(state_hash=5, result_hash=7))]))
        _, failed, failures = metrics.check_points(doc, None)
        self.assertEqual((failed, len(failures)), (1, 1))
        self.assertEqual(failures[0][1], "index/hash-orig DSM 16p small")
        self.assertIn("digest differs", failures[0][2])


class EndToEnd(unittest.TestCase):
    def measured(self, sweep, wall, points, rss_kb, ref_ms=None):
        """A measured pass. Points are (name, engine ms) or (name, engine
        ms, reference ms); a sweep's reference burst reads ref_ms."""
        nominal = metrics.REF_NOMINAL_MS
        pts = [point(spec[0], wall_ms=spec[1] + 2.0, host_wall_ms=spec[1],
                     ref_ms=spec[2] if len(spec) > 2 else nominal,
                     fp=fp(reads=3_000_000, writes=1_000_000))
               for spec in points]
        p = {"label": "measured", "sweep": sweep, "wall_ms": wall,
             "peak_rss_kb": rss_kb, "points": pts}
        if sweep:
            r = ref_ms or nominal
            p["ref_ms"] = [r, r, 10 * r]
        return p

    def test_calibration_scales_to_the_nominal_reference(self):
        self.assertEqual(metrics.calibration(metrics.REF_NOMINAL_MS), 1.0)
        self.assertEqual(metrics.calibration(2 * metrics.REF_NOMINAL_MS), 0.5)
        with self.assertRaises(ValueError):
            metrics.calibration(0.0)

    def test_sweeps_take_the_median_of_calibrated_passes(self):
        nominal = metrics.REF_NOMINAL_MS
        doc = {"passes": [
            {"label": "warmup", "sweep": True, "wall_ms": 1.0,
             "peak_rss_kb": 1 << 30, "points": []},
            # The middle sweep is slow, but so was the host: its
            # reference ran at half speed, so it calibrates to 150 ms.
            self.measured(True, 100.0, [("p", 40.0)], 2048, nominal),
            self.measured(True, 300.0, [("p", 80.0)], 4096, 2 * nominal),
            self.measured(True, 200.0, [("p", 50.0)], 1024, nominal)]}
        e = metrics.end_to_end(doc)
        self.assertAlmostEqual(e["wall_s"], 0.15)
        # Rates 100, 50 and 80 Macc/s; the slow sweep calibrates to 100.
        self.assertAlmostEqual(e["maccess_per_s"], 100.0)
        self.assertAlmostEqual(e["setup_s"], 0.002)
        self.assertEqual(e["peak_rss_mb"], 2.0)
        raw = metrics.end_to_end(doc, calibrated=False)
        self.assertAlmostEqual(raw["wall_s"], 0.2)
        self.assertAlmostEqual(raw["maccess_per_s"], 80.0)

    def test_one_at_a_time_points_take_their_own_median(self):
        nominal = metrics.REF_NOMINAL_MS
        doc = {"passes": [
            {"label": "warmup", "sweep": False, "wall_ms": 1.0,
             "peak_rss_kb": 3072, "points": []},
            self.measured(False, 0.0, [("a", 10.0), ("b", 30.0)], -1),
            self.measured(False, 0.0, [("a", 20.0), ("b", 20.0)], -1),
            self.measured(False, 0.0, [("a", 90.0), ("b", 25.0)], -1)]}
        e = metrics.end_to_end(doc)
        # a's median is 20 ms (+2 set-up), b's is 25 ms (+2 set-up).
        self.assertAlmostEqual(e["wall_s"], 0.049)
        self.assertAlmostEqual(e["maccess_per_s"], 8.0 / 0.045)
        self.assertAlmostEqual(e["setup_s"], 0.004)
        # Loaded passes overlap, so peak memory is the lone warm-up's.
        self.assertEqual(e["peak_rss_mb"], 3.0)
        # Each sample is calibrated by the reference run just after it.
        # a ran at 10, 40 and 90 ms while the host ran at full, half and
        # a third of its speed: 12, 21 and 30.7 ms calibrated.
        doc["passes"][1:] = [
            self.measured(False, 0.0, [("a", 10.0), ("b", 30.0)], -1),
            self.measured(False, 0.0, [("a", 40.0, 2 * nominal),
                                       ("b", 20.0)], -1),
            self.measured(False, 0.0, [("a", 90.0, 3 * nominal),
                                       ("b", 25.0)], -1)]
        self.assertAlmostEqual(metrics.end_to_end(doc)["wall_s"], 0.048)
        raw = metrics.end_to_end(doc, calibrated=False)
        self.assertAlmostEqual(raw["wall_s"], 0.069)
        self.assertEqual(sorted(metrics.reference_samples(doc))[-2:],
                         [2 * nominal, 3 * nominal])

    def test_cached_points_are_not_simulated_work(self):
        p = {"label": "measured", "wall_ms": 10.0, "points": [
            point("a", host_wall_ms=5.0, wall_ms=6.0),
            point("b", cached=True, host_wall_ms=5.0, wall_ms=0.5)]}
        self.assertEqual(metrics.pass_engine_ms(p), 5.0)
        self.assertEqual(metrics.pass_setup_ms(p), 1.0)


class Manifest(unittest.TestCase):
    def test_benchmark_json_lists_the_reported_metrics(self):
        manifest = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
        spec = json.loads(manifest.read_text())
        listed = lambda key: [(m["name"], m["unit"]) for m in spec[key]]
        self.assertEqual(listed("end_to_end"), metrics.END_TO_END)
        self.assertEqual(listed("per_layer"), metrics.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
