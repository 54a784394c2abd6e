"""Self-tests of the benchmark harness.

Run from the root of a checkout:
    python3 perfbench/selftest.py

They start a few short scenario runs (under half a minute in all).
"""

from __future__ import annotations

import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402

SCRATCH = run.WORK / "selftest"


def _deadline() -> float:
    return time.monotonic() + 120.0


class WrapperTests(unittest.TestCase):

    def test_no_module_keeps_an_unwrapped_original(self):
        import peanobsde.cli
        import peanobsde.control

        rec = tracer.Recorder("selftest")
        originals, restore = tracer.install(rec)
        try:
            self.assertEqual(tracer.unwrapped_left(originals), [])
            # names bound by `from .x import f` are wrapped too
            for mod, attr in ((peanobsde.control, "conditional_expectation"),
                              (peanobsde.control, "integral_H"),
                              (peanobsde.cli, "solve_backward_euler"),
                              (peanobsde, "f_star")):
                self.assertTrue(hasattr(getattr(mod, attr),
                                        "__traced_original__"), attr)
        finally:
            restore()
        # the scan does see aliases once the originals are back
        left = tracer.unwrapped_left(originals)
        self.assertIn("peanobsde.control.conditional_expectation", left)
        self.assertIn("peanobsde.peano.PeanoFunction.__call__", left)

    def test_spans_nest_and_counts_go_to_the_innermost_span(self):
        from peanobsde import peano

        rho = peano.make_family("rho1", k=2.0)
        rec = tracer.Recorder("selftest")
        _, restore = tracer.install(rec)
        try:
            peano.integral_H(rho, 1.0, 0.5)
            rho(0.25)
        finally:
            restore()
        summary = rec.summary()
        self.assertGreater(summary["counts"]["quad_calls"]["peano"], 0)
        self.assertGreater(summary["counts"]["phi_calls"]["peano"], 0)
        self.assertEqual(summary["counts"]["phi_calls"][tracer.TOP], 1)
        self.assertEqual(summary["calls"]["peano"], 1)

    def test_design_shape_matches_basis_matrix(self):
        from peanobsde import engine

        grid = engine.TimeGrid(horizon=1.0, steps=3)
        for dim in (1, 2, 3):
            ens = engine.simulate_brownian(grid, paths=7, dim=dim, seed=1)
            for degree in (None, 1, 2, 4):
                for step in (0, 2):
                    self.assertEqual(
                        tracer.design_shape(ens, None, step, degree=degree),
                        engine.basis_matrix(ens, step, degree).shape)


class BenchmarkFileTests(unittest.TestCase):

    def test_benchmark_json_lists_the_metrics_run_prints(self):
        import json

        bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         run.PER_LAYER)
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(run.WORKLOADS))


class ScenarioRunTests(unittest.TestCase):

    def test_traced_and_untraced_runs_write_identical_csvs(self):
        config = "configs/lower_bound.ini"
        records = [run.run_scenario("selftest", "lower_bound", config,
                                    [config], 3, rep, traced, _deadline())
                   for rep, traced in ((0, False), (1, True), (2, True))]
        run.check(records)
        self.assertTrue(all(r["ok"] for r in records))
        self.assertEqual(records[0]["hashes"], records[1]["hashes"])
        counts = [{k: v for k, v in run.layer_values(r).items()
                   if run.PER_LAYER[k] == "count"} for r in records[1:]]
        self.assertEqual(counts[0], counts[1])
        self.assertGreater(counts[0]["engine.regress_calls"], 0)

    def test_nonzero_exit_counts_its_verdicts_as_failed(self):
        (run.ROOT / SCRATCH).mkdir(parents=True, exist_ok=True)
        good = "configs/assumption_audit.ini"
        # a gradient term declared weaker than it is fails the pre-flight
        # audit: exit 3 and no report.json
        broken = SCRATCH / "understated_gamma.ini"
        (run.ROOT / broken).write_text(
            "[scenario]\nname = assumption_audit\n\n[generator]\n"
            "family = sqrt\ngradient_coeff = 1.0\ndeclared_gamma = 0.5\n")
        configs = [good]
        records = [run.run_scenario("selftest", "assumption_audit", cfg,
                                    configs, 1, rep, False, _deadline())
                   for rep, cfg in enumerate((good, str(broken)))]
        run.check(records)
        ok, bad = records
        self.assertTrue(ok["ok"])
        self.assertEqual(bad["exit_code"], 3)
        self.assertFalse(bad["ok"])
        self.assertEqual(bad["verdicts_failed"], ok["verdicts"])
        metrics, _ = run.end_to_end(records)
        self.assertAlmostEqual(metrics["verdict_pass_frac"], 0.5)
        self.assertEqual(metrics["rerun_match_frac"], 0.0)


if __name__ == "__main__":
    unittest.main()
