"""Tests of the benchmark itself: self-time arithmetic, the tracer's
wrappers, the correctness check and the metric lists.

    python3 -m unittest discover -s bench -p "test_*.py"
"""

import json
import math
import os
import sys
import tempfile
import types
import unittest

import run
import tracer

BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")


def _span(name, parent, start, end, outcome=0.0):
    return [name, parent, start, end, outcome]


class SelfTimeTest(unittest.TestCase):
    # cli.main [0, 10]
    #   a [1, 4]         child b [2, 3]
    #   a [5, 6]
    #   b [7, 9]         child b [7.5, 8] (same name, nested)
    SPANS = [
        _span("cli.main", -1, 0.0, 10.0),
        _span("a", 0, 1.0, 4.0, 1.0),
        _span("b", 1, 2.0, 3.0),
        _span("a", 0, 5.0, 6.0, 0.0),
        _span("b", 0, 7.0, 9.0),
        _span("b", 4, 7.5, 8.0),
    ]

    def test_self_time_is_busy_minus_children(self):
        s = tracer.summarize(self.SPANS)
        self.assertAlmostEqual(s["cli.main"]["self_s"], 10.0 - 3.0 - 1.0 - 2.0)
        self.assertAlmostEqual(s["a"]["self_s"], (3.0 - 1.0) + 1.0)
        self.assertAlmostEqual(s["b"]["self_s"], 1.0 + (2.0 - 0.5) + 0.5)

    def test_nested_same_name_counted_once_in_busy(self):
        s = tracer.summarize(self.SPANS)
        self.assertEqual(s["b"]["calls"], 3)
        self.assertAlmostEqual(s["b"]["busy_s"], 1.0 + 2.0)
        self.assertAlmostEqual(s["a"]["busy_s"], 4.0)
        self.assertEqual(s["a"]["outcome"], 1.0)

    def test_self_times_account_for_root(self):
        s = tracer.summarize(self.SPANS)
        self.assertAlmostEqual(sum(v["self_s"] for v in s.values()), s["cli.main"]["busy_s"])


class TracerTest(unittest.TestCase):
    def test_spans_nest_and_counters_respect_inside(self):
        t = tracer.Tracer()
        hot = t.counter("hot", lambda: None, inside="outer")

        def inner():
            hot()

        inner = t.span("inner", inner)

        def outer():
            hot()
            inner()

        t.span("outer", outer)()
        hot()  # outside any span: not counted
        self.assertEqual([s[:2] for s in t.spans], [["outer", -1], ["inner", 0]])
        self.assertEqual(t.counters["hot"][0], 1)

    def test_install_replaces_aliases(self):
        mod = types.ModuleType("hyperwave._fake")
        alias = types.ModuleType("hyperwave._alias")

        def target():
            return 7

        mod.target = alias.target = target
        sys.modules.update({mod.__name__: mod, alias.__name__: alias})
        try:
            t = tracer.Tracer()
            tracer._patch("hyperwave._fake:target", lambda fn, foreign: t.span("x", fn, foreign))
            self.assertEqual(alias.target(), 7)
            self.assertIs(mod.target, alias.target)
            self.assertEqual(len(t.spans), 1)
        finally:
            del sys.modules[mod.__name__], sys.modules[alias.__name__]


class CheckTest(unittest.TestCase):
    SUMMARY = {"T_star": 0.99999998641799659, "omega0_fit": 0.5857098151152648, "gap": 0.588904823827385}

    def setUp(self):
        os.makedirs(run.WORK, exist_ok=True)
        self.tmp = tempfile.TemporaryDirectory(dir=run.WORK)
        self.prefix = os.path.join(self.tmp.name, "out")
        self._write(self.SUMMARY)
        with open(self.prefix + ".csv", "w") as fh:
            fh.write("s,norm_k,norm_km1,projection_coeff\n")
        self.reference = dict(self.SUMMARY)

    def tearDown(self):
        self.tmp.cleanup()

    def _write(self, doc):
        with open(self.prefix + ".json", "w") as fh:
            json.dump(doc, fh)

    def test_accepts_reference_artifacts(self):
        reason, dev, digest = run.check("blowup-d7", self.prefix, 0, self.reference)
        self.assertIsNone(reason)
        self.assertEqual(dev, 0.0)
        self.assertEqual(len(digest), 64)

    def test_rejects_corrupted_value(self):
        self._write(dict(self.SUMMARY, omega0_fit=0.5857))
        reason, dev, _ = run.check("blowup-d7", self.prefix, 0, self.reference)
        self.assertIn("ref_dev", reason)
        self.assertGreater(dev, run.REF_TOL)

    def test_rejects_truncated_summary(self):
        with open(self.prefix + ".json", "w") as fh:
            fh.write('{"T_star": 0.99')
        reason, _, _ = run.check("blowup-d7", self.prefix, 0, self.reference)
        self.assertIn("unreadable", reason)

    def test_rejects_missing_artifact(self):
        os.unlink(self.prefix + ".csv")
        reason, _, _ = run.check("blowup-d7", self.prefix, 0, self.reference)
        self.assertIn("missing", reason)

    def test_rejects_breach_exit_code(self):
        reason, _, _ = run.check("blowup-d7", self.prefix, 1, self.reference)
        self.assertIn("exit code 1", reason)

    def test_digest_tracks_bytes(self):
        _, _, before = run.check("blowup-d7", self.prefix, 0, self.reference)
        with open(self.prefix + ".csv", "a") as fh:
            fh.write("0,0,0,0\n")
        _, _, after = run.check("blowup-d7", self.prefix, 0, self.reference)
        self.assertNotEqual(before, after)

    def test_deviation_kinds(self):
        outputs = {"z": ("rel", [2.0, 0.0]), "e": ("abs", 3e-9)}
        self.assertAlmostEqual(run.ref_dev(outputs, {"z": [2.0, 1e-6], "e": 1e-9}), 5e-7)
        self.assertEqual(run.ref_dev(outputs, {"z": [2.0, 0.0]}), math.inf)


class DefinitionTest(unittest.TestCase):
    def test_benchmark_json_matches_runner(self):
        with open(BENCHMARK_JSON) as fh:
            spec = json.load(fh)
        self.assertLessEqual({w["name"] for w in spec["workloads"]}, set(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["per_layer"]],
            [(m, run.layer_unit(m)) for m in run.PER_LAYER],
        )

    def test_references_cover_every_input(self):
        with open(run.REFERENCES) as fh:
            values = json.load(fh)["values"]
        for k in range(len(run.AMPLITUDES)):
            self.assertIn(run.blowup_input(k)[1], values["blowup-d7"])
        for w in ("freewave-d7", "spectrum-d7"):
            self.assertIn("default", values[w])

    def test_combine_prefixes_metrics_by_workload(self):
        m = {"wall_s": {"value": 1.5, "unit": "s"}}
        records = [
            {"workload": "a", "result": {"correct": True, "attempted": 4, "failed": 0, "metrics": m}},
            {"workload": "b", "result": {"correct": False, "attempted": 4, "failed": 1, "metrics": m}},
        ]
        self.assertEqual(
            run.combine(records),
            {"correct": False, "attempted": 8, "failed": 1, "metrics": {"a.wall_s": m["wall_s"], "b.wall_s": m["wall_s"]}},
        )

    def test_seeds(self):
        self.assertEqual(run.inputs("blowup-d7", 0)[0], run.WORKLOADS["blowup-d7"]["argv"])
        amps = {float(run.inputs("blowup-d7", s)[0][4]) for s in range(1, 200)}
        self.assertEqual(len(amps), len(run.AMPLITUDES))
        self.assertTrue(all(5e-4 <= a <= 2e-3 * (1 + 1e-12) for a in amps))
        self.assertEqual(run.inputs("blowup-d7", 5), run.inputs("blowup-d7", 5))


if __name__ == "__main__":
    unittest.main()
