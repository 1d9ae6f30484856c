"""Self-tests of the benchmark's own arithmetic and wiring.

    python3 -m unittest discover -s perfbench
"""

from __future__ import annotations

import importlib
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import client  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402
from speed import SpeedMeter  # noqa: E402


def _execute(main, requests):
    """client.execute from the repository root, under a running speed-meter."""
    cwd = os.getcwd()
    os.chdir(wl.ROOT)
    meter = SpeedMeter().start()
    try:
        return client.execute(main, requests, meter)
    finally:
        meter.stop()
        os.chdir(cwd)


def _span(name, start, end, parent):
    return [name, start, end, parent, 0, None]


class SelfTime(unittest.TestCase):
    def test_self_time_subtracts_only_direct_children(self):
        agg = spans.aggregate(
            [
                _span("cli", 0.0, 10.0, -1),
                _span("wp", 1.0, 7.0, 0),
                _span("simplify", 2.0, 5.0, 1),
                _span("simplify", 5.5, 6.0, 1),
                _span("Dist", 8.0, 9.0, 0),
            ]
        )
        self.assertAlmostEqual(agg["cli"]["self_s"], 10.0 - 6.0 - 1.0)
        self.assertAlmostEqual(agg["wp"]["self_s"], 6.0 - 3.0 - 0.5)
        self.assertAlmostEqual(agg["simplify"]["self_s"], 3.5)
        self.assertEqual(agg["simplify"]["calls"], 2)
        self.assertAlmostEqual(agg["cli"]["busy_s"], 10.0)

    def test_nested_same_name_counts_busy_once(self):
        agg = spans.aggregate(
            [_span("x", 0.0, 4.0, -1), _span("y", 1.0, 3.0, 0), _span("x", 1.5, 2.5, 1)]
        )
        self.assertEqual(agg["x"]["calls"], 2)
        self.assertAlmostEqual(agg["x"]["busy_s"], 4.0)
        self.assertAlmostEqual(agg["y"]["self_s"], 1.0)

    def test_tracer_records_parents_and_counts(self):
        t = spans.Tracer()
        inner = t.span("inner", lambda xs: list(xs), {"n": spans._n_entries})
        outer = t.span("outer", lambda: inner(range(3)) and inner(range(2)))
        t.request = 7
        outer()
        names = [(s[0], s[3], s[4], s[5]) for s in t.spans]
        self.assertEqual(
            names, [("outer", -1, 7, None), ("inner", 0, 7, {"n": 3}), ("inner", 0, 7, {"n": 2})]
        )
        agg = spans.aggregate(t.spans)
        self.assertEqual(agg["inner"]["n"], 5)
        self.assertGreaterEqual(agg["outer"]["busy_s"], agg["inner"]["busy_s"])


class TailRule(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertIsNone(run.tail(range(10)))
        _value, pct, beyond, n = run.tail(range(11))
        self.assertEqual((beyond, n), (10, 11))
        self.assertAlmostEqual(pct, 100 / 11)

    def test_highest_percentile_with_ten_beyond(self):
        value, pct, beyond, n = run.tail(list(range(100, 0, -1)))
        self.assertEqual((pct, beyond, n), (90.0, 10, 100))
        self.assertAlmostEqual(value, 90.4, delta=0.5)
        value, pct, _, _ = run.tail(range(1000))
        self.assertEqual(pct, 99.0)
        self.assertAlmostEqual(value, 989.5, delta=0.5)

    def test_median_estimate(self):
        self.assertAlmostEqual(run.hd_quantile([3.0] * 7, 0.5), 3.0)
        self.assertAlmostEqual(run.hd_quantile([1.0, 2.0, 3.0, 4.0, 5.0], 0.5), 3.0)

    def test_wall_is_sum_of_per_request_medians(self):
        results = [["a", 0, 0, "", 1.0], ["a", 1, 0, "", 3.0], ["a", 2, 0, "", 2.0],
                   ["b", 0, 0, "", 0.5]]
        self.assertAlmostEqual(run.list_wall_s(results), 2.5)


class FailedFraction(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        from kuifje.cli import main

        # eleven samples: enough for the tail rule inside end_to_end
        cls.requests = [wl.warmup_request("backward")] * 11
        cls.results = _execute(main, cls.requests)

    def _failed_frac(self, refs):
        failures = client.check("backward", self.requests, self.results, refs)
        out = dict(results=client.rows(self.results), failures=failures, peak_rss_mb=1.0)
        return run.end_to_end([0.1], out)[0]["failed_frac"]

    def _altered(self, **change):
        refs = dict(wl.load_references("backward"))
        key = self.requests[0]["key"]
        refs[key] = dict(refs[key], **change)
        return refs

    def test_recorded_reference_passes(self):
        self.assertEqual(self._failed_frac(wl.load_references("backward")), 0.0)

    def test_altered_reference_fails(self):
        refs = self._altered(digest=wl.digest("[a] MAX [b]\n"))
        self.assertEqual(self._failed_frac(refs), 1.0)

    def test_altered_exit_code_fails(self):
        self.assertEqual(self._failed_frac(self._altered(exit=2)), 1.0)


class Wrapping(unittest.TestCase):
    def _snapshot(self):
        out = {}
        for module, attr, _name, _counters in spans.TARGETS:
            owner = importlib.import_module(module)
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
            out[(module, attr)] = owner.__dict__[attr]
        return out

    def test_untraced_run_leaves_kuifje_unwrapped(self):
        from kuifje.cli import main

        before = self._snapshot()
        _execute(main, [wl.warmup_request("check")])
        self.assertEqual(spans.wrapped_attributes(), [])
        self.assertEqual(self._snapshot(), before)

    def test_uninstall_restores_every_original(self):
        before = self._snapshot()
        t = spans.Tracer()
        t.install()
        try:
            wrapped = spans.wrapped_attributes()
            self.assertEqual(len(wrapped), len(spans.TARGETS))
        finally:
            t.uninstall()
        self.assertEqual(spans.wrapped_attributes(), [])
        self.assertEqual(self._snapshot(), before)


if __name__ == "__main__":
    unittest.main()
