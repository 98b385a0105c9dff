"""Tests of the benchmark itself (not collected by the package's pytest run).

    python3 perfbench/selftest.py

They check that the traced run wraps every binding and restores it, that
call counts are nonzero exactly on the workloads the layer table predicts,
that counts repeat exactly between two traced runs at one seed, that the
op sequence depends only on the seed, that a wrong answer is caught, the
scaling to the reference host speed, and the compare verdicts.
"""

import json
import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import compare  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from layers import CACHE_KEYS, LAYERS, WORKLOADS, functions, per_layer_metrics  # noqa: E402
from tracing import Tracer  # noqa: E402

EXACT = (".calls", ".distinct", ".useful_ratio", ".raised")


class PatchingTest(unittest.TestCase):
    def test_every_binding_is_wrapped_and_restored(self):
        import weylkit.cli  # noqa: F401  (loads every layer)

        modules = {n: m for n, m in sys.modules.items() if n.startswith("weylkit")}
        before = {n: dict(vars(m)) for n, m in modules.items()}
        tracer = Tracer()
        tracer.install()
        try:
            for name in ("length", "reduced_word", "has_left_descent", "has_right_descent",
                         "reflections_T", "enumerate_ball"):
                self.assertIs(vars(modules["weylkit.cli"])[name].__wrapped__,
                              before["weylkit.weyl"][name])
            for mod, name in (("coxcomplex", "min_coset_rep"), ("relative", "length"),
                              ("spiral", "facets_in_ball"), ("spiral", "span"),
                              ("ddaha", "reduced_word"), ("ddaha", "weyl_action"),
                              ("ddaha", "divide_linear"), ("weyl", "mat_inv")):
                self.assertTrue(hasattr(vars(modules[f"weylkit.{mod}"])[name], "__wrapped__"),
                                f"weylkit.{mod}.{name} is not wrapped")
            # no binding of a wrapped function is left unwrapped
            originals = {id(v.__wrapped__) for m in modules.values()
                         for v in vars(m).values() if hasattr(v, "__wrapped__")}
            for mod_name, m in modules.items():
                for attr, v in vars(m).items():
                    self.assertNotIn(id(v), originals, f"{mod_name}.{attr} left unwrapped")
        finally:
            tracer.restore()
        for n, m in modules.items():
            self.assertEqual(dict(vars(m)), before[n], f"{n} not restored")
        from weylkit.weyl import ExtAffineWeylElement

        self.assertIsInstance(ExtAffineWeylElement.__dict__["simple"], staticmethod)
        self.assertFalse(hasattr(ExtAffineWeylElement.__dict__["simple"].__func__, "__wrapped__"))

    def test_benchmark_json_matches_the_layer_table(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        self.assertEqual(sorted(WORKLOADS), sorted(workloads.BLOCKS))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         per_layer_metrics())

    def test_metric_names_cover_the_layer_table(self):
        names = [m for m, _, _ in per_layer_metrics()]
        self.assertEqual(len(names), len(set(names)))
        for layer, qual, name in functions():
            self.assertIn(f"{name}.calls", names)
        for name in CACHE_KEYS:
            self.assertIn(f"{name}.useful_ratio", names)


class TracedRunTest(unittest.TestCase):
    """One traced run per workload, twice at the same seed."""

    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        cls.runs = {}
        for workload in WORKLOADS:
            cls.runs[workload] = [
                run.worker("fixed", workload, 7, os.path.join(cls.tmp.name, f"{workload}-{k}"))
                for k in range(2)
            ]

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def test_calls_nonzero_exactly_where_predicted(self):
        for workload, (first, _) in self.runs.items():
            metrics = first["per_layer"]
            for layer, (_, reaches, _) in LAYERS.items():
                calls = sum(metrics[f"{name}.calls"] for lay, _, name in functions() if lay == layer)
                if workload in reaches:
                    self.assertGreater(calls, 0, f"{layer} not reached on {workload}")
                else:
                    self.assertEqual(calls, 0, f"{layer} reached on {workload}")

    def test_counts_repeat_exactly(self):
        for workload, (first, second) in self.runs.items():
            for name, value in first["per_layer"].items():
                if name.endswith(EXACT):
                    self.assertEqual(value, second["per_layer"][name], f"{workload} {name}")

    def test_traced_ops_are_correct(self):
        for workload, runs in self.runs.items():
            for r in runs:
                self.assertEqual(r["failures"], [], workload)

    def test_spans_are_written(self):
        for workload in WORKLOADS:
            path = os.path.join(self.tmp.name, f"{workload}-0")
            with open(path, "rb") as fh:
                header = fh.readline()
            self.assertIn(b'"spans"', header)


class WorkloadTest(unittest.TestCase):
    def test_sequence_depends_only_on_the_seed(self):
        for workload in WORKLOADS:
            pool = workloads.load_pool(workload)
            a, b, c = (workloads.op_sequence(workload, pool, s) for s in (3, 3, 4))
            first = [next(a) for _ in range(5)]
            self.assertEqual(first, [next(b) for _ in range(5)])
            self.assertNotEqual(first, [next(c) for _ in range(5)])
            composition = sorted(pool[i]["group"] for i in first[0])
            expected = sorted(g for g, k in workloads.BLOCKS[workload] for _ in range(k))
            self.assertEqual(composition, expected)

    def test_wrong_answer_is_caught(self):
        for workload in WORKLOADS:
            pool = workloads.load_pool(workload)
            op = pool[0]
            outcome = workloads.Context(workload).run(op)
            self.assertIsNone(workloads.check(workload, op, outcome))
            tampered = dict(op, answer={k: "x" for k in op["answer"]})
            self.assertIsNotNone(workloads.check(workload, tampered, outcome))


class SpeedTest(unittest.TestCase):
    def test_times_are_scaled_by_the_probes_around_them(self):
        ref = speed.REFERENCE_PROBE_S
        self.assertEqual(speed.at_reference([0.1, 0.2], [ref, ref, ref]), [0.1, 0.2])
        scaled = speed.at_reference([0.1, 0.2], [2 * ref, 2 * ref, 4 * ref])
        self.assertAlmostEqual(scaled[0], 0.05)
        self.assertAlmostEqual(scaled[1], 0.2 / 3)
        with self.assertRaises(ValueError):
            speed.at_reference([0.1], [ref])

    def test_every_op_has_a_probe_after_it(self):
        out = run.worker("fixed", "ddaha_assoc", 3)
        self.assertEqual(len(out["probes"]), len(out["latencies"]) + 1)
        self.assertTrue(all(p > 0 for p in out["probes"]))


class CompareTest(unittest.TestCase):
    def test_verdicts(self):
        base = {s: 100.0 + s % 3 for s in range(10)}
        self.assertEqual(compare.verdict(base, {s: v / 2 for s, v in base.items()}, "lower", 0.1)[0],
                         "improved")
        self.assertEqual(compare.verdict(base, {s: v * 1.5 for s, v in base.items()}, "lower", 0.1)[0],
                         "worse")
        self.assertEqual(compare.verdict(base, dict(base), "lower", 0.1)[0], "unchanged")
        noisy = {s: 100.0 * (1 + s % 2) for s in range(10)}
        self.assertEqual(compare.verdict(noisy, noisy, "lower", 0.1)[0], "unresolved")


if __name__ == "__main__":
    unittest.main()
