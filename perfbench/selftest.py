"""Tests of the benchmark's own checker, input generator and tracer.

    python3 perfbench/selftest.py

Kept out of the package's pytest suite on purpose: they import mpmath and
patch the package's module attributes while a tracer is installed.
"""
import itertools
import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from lerchzeta.evaluate import EvalResult, Method, evaluate  # noqa: E402


def record(sigma, a, z, result):
    return (("point", "test", sigma, a, z), result, 0.0, None, "test")


class CheckerTest(unittest.TestCase):
    POINT = (-0.5, 0.3, complex(1.0))

    def test_result_moved_by_ten_tol_is_a_tol_miss(self):
        good = evaluate(*self.POINT)
        moved = EvalResult(good.value + 10 * oracle.TOL, good.abs_err_estimate,
                           good.method)
        report = oracle.check("points", [record(*self.POINT, good),
                                         record(*self.POINT, moved)], [])
        self.assertEqual(report["ratios"]["tol_miss_ratio"], 0.5)
        self.assertFalse(report["correct"])
        clean = oracle.check("points", [record(*self.POINT, good)], [])
        self.assertEqual(clean["ratios"]["tol_miss_ratio"], 0.0)
        self.assertTrue(clean["correct"])

    def test_halved_estimate_is_a_bound_violation(self):
        ref = complex(oracle.phi(*self.POINT))
        d = 1e-12               # below tol, so only the bound can fail
        honest = EvalResult(ref + d, 1.5 * d, Method.INTEGRAL_NEG)
        halved = EvalResult(ref + d, 0.75 * d, Method.INTEGRAL_NEG)
        ok = oracle.check("points", [record(*self.POINT, honest)], [])
        bad = oracle.check("points", [record(*self.POINT, halved)], [])
        self.assertEqual(ok["ratios"]["bound_violation_ratio"], 0.0)
        self.assertEqual(bad["ratios"]["bound_violation_ratio"], 1.0)
        self.assertTrue(bad["correct"])      # within tol: not a wrong value

    def test_census_root_off_by_more_than_delta_fails(self):
        a, z = 0.1, complex(1.0)
        from lerchzeta.zeros import scan_zeros
        rep = scan_zeros(a, 1.0)
        self.assertTrue(oracle.check_cell(a, z, "ZeroExists", 1, list(rep.roots)))
        shifted = [rep.roots[0] + 10 * oracle.ROOT_DELTA]
        self.assertFalse(oracle.check_cell(a, z, "ZeroExists", 1, shifted))
        self.assertFalse(oracle.check_cell(a, z, "CaseI", 1, list(rep.roots)))


class InputTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name, stream in workloads.STREAMS.items():
            first = list(itertools.islice(stream(7), 300))
            again = list(itertools.islice(stream(7), 300))
            other = list(itertools.islice(stream(8), 300))
            self.assertEqual(first, again, name)
            self.assertNotEqual(first, other, name)
        self.assertEqual(workloads.refusal_probe(7), workloads.refusal_probe(7))

    def test_points_strata_counts_are_exact_per_block(self):
        block = list(itertools.islice(workloads.points_ops(3), 100))
        counts = {s: sum(1 for op in block if op[1] == s)
                  for s, _ in workloads.POINTS_BLOCK}
        self.assertEqual(counts, dict(workloads.POINTS_BLOCK))
        unit_high = [op for op in block if op[1] == "unit_high"]
        self.assertEqual(sum(1 for op in unit_high if op[4] == 1), 3)


class TracerTest(unittest.TestCase):
    def test_install_and_uninstall_restore_originals(self):
        mods = workloads.modules()
        original = mods.evaluate.evaluate
        tracer = tracing.Tracer(prefix_ops=10)
        tracer.install()
        try:
            self.assertIsNot(mods.evaluate.evaluate, original)
            self.assertTrue(hasattr(mods.zeros.evaluate, tracing.MARK))
            with self.assertRaises(AssertionError):
                tracing.assert_untraced()
            for i in range(3):
                tracer.run_op(i, workloads.run_point, mods,
                              ("point", "z1", -0.5, 0.3 + 0.1 * i, complex(1.0)))
        finally:
            tracer.uninstall()
        self.assertIs(mods.evaluate.evaluate, original)
        tracing.assert_untraced()
        metrics, _ = tracing.per_layer(tracer)
        self.assertEqual(metrics["evaluate.calls"], 3)
        # head + one rebuild per tanh-sinh level on the z = 1 integral route
        self.assertEqual(metrics["kernels.coeff_builds_per_eval"], 5)
        self.assertEqual(metrics["special.bernoulli_poly.calls"], 3 * 5 * 30)
        self.assertEqual(metrics["evaluate.route.IntegralNeg.calls"], 3)

    def test_self_time_subtracts_the_union_of_children(self):
        spans = [(1, 0, "op", 0.0, 10.0, 0, None),
                 (2, 1, "x", 1.0, 5.0, 0, None),
                 (3, 1, "x", 4.0, 6.0, 0, None),     # overlaps span 2
                 (4, 2, "y", 2.0, 3.0, 0, None)]
        self.assertEqual(tracing.self_times(spans),
                         {1: 5.0, 2: 3.0, 3: 2.0, 4: 1.0})


class ContractTest(unittest.TestCase):
    def test_metric_names_and_units_match_benchmark_json(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        self.assertEqual(e2e, run.END_TO_END_UNITS)
        layer, _ = tracing.per_layer(tracing.Tracer(prefix_ops=1))
        names = set(layer) | {"trace.overhead_ratio"} | {
            f"check.{k}" for k in oracle.check("points", [], [])["ratios"]}
        self.assertEqual({m["name"] for m in spec["per_layer"]}, names)
        for m in spec["per_layer"]:
            self.assertEqual(m["unit"], run.unit_of(m["name"]), m["name"])


if __name__ == "__main__":
    unittest.main()
