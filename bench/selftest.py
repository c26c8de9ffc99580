"""Self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

* every workload prints every end-to-end metric (untraced) and every
  per-layer metric (traced), with units, and all outputs pass their checks;
* call and evaluation counts of the traced run repeat exactly for a seed;
* a corrupted result is caught by the output checks and counted in
  ``fail_ratio``;
* without the package next to it the benchmark exits non-zero and prints
  no result.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
import unittest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402

SEED = 7


def bench(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd)


def smoke(name: str, trace: int):
    proc = bench("--workload", name, "--seed", str(SEED), "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    if proc.returncode != 0:
        raise AssertionError(f"{name} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2][len("detail "):]), proc.stdout


def counts(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items()
            if k.endswith(("_calls", "_evals", "_ratio", "_per_root"))}


class Smoke(unittest.TestCase):

    def test_end_to_end_metrics(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                result, detail, text = smoke(name, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertEqual(detail["fail_ratio"], 0.0)
                self.assertIn("fail_ratio", text)
                self.assertEqual({k: m["unit"] for k, m in result["metrics"].items()},
                                 run.END_TO_END)
                for key, m in result["metrics"].items():
                    self.assertIn(key, text)
                    self.assertGreater(m["value"], 0.0, key)

    def test_per_layer_metrics_and_repeatable_counts(self):
        expected = dict(LAYER_METRICS, **{"trace.overhead_ms": "ms"})
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                first, detail_a, text = smoke(name, 1)
                second, detail_b, _ = smoke(name, 1)
                self.assertTrue(first["correct"])
                self.assertEqual({k: m["unit"] for k, m in first["metrics"].items()},
                                 expected)
                for key in expected:
                    self.assertIn(key, text)
                values = {k: m["value"] for k, m in first["metrics"].items()}
                again = {k: m["value"] for k, m in second["metrics"].items()}
                self.assertEqual(counts(values), counts(again))
                self.assertEqual(counts(detail_a["per_layer_small"]),
                                 counts(detail_b["per_layer_small"]))
                self.assertGreater(sum(counts(values).values()), 0)


def _rewrite_report(spec, edit):
    path = os.path.join(spec["out"], "report.json")
    with open(path, encoding="utf-8") as fh:
        rep = json.load(fh)
    edit(rep)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(rep, fh)


class FlippedFoc(workloads.DeadlineAffine):
    def run(self, pkg, spec):
        rc = super().run(pkg, spec)
        _rewrite_report(spec, lambda rep: rep["foc"].update(satisfied=False))
        return rc


class RisingLevels(workloads.PathSmooth):
    def run(self, pkg, spec):
        pair, sol, residuals = super().run(pkg, spec)
        return pair, dataclasses.replace(sol, levels=sol.levels[::-1]), residuals


class RatioAboveOne(workloads.UiSweep):
    def run(self, pkg, spec):
        rc = super().run(pkg, spec)
        _rewrite_report(spec, lambda rep: rep["rows"][-1].update(ratio=1.01))
        return rc


class DominatedEntry(workloads.OracleScan):
    def run(self, pkg, spec):
        entries = super().run(pkg, spec)
        e = entries[0]
        worse = dataclasses.replace(e, payoffs=tuple(p - 1 for p in e.payoffs))
        return entries + (worse,)


class Corruption(unittest.TestCase):

    def test_corrupted_results_raise_fail_ratio(self):
        sys.path.insert(0, run.SRC)
        for bad in (FlippedFoc, RisingLevels, RatioAboveOne, DominatedEntry):
            saved = workloads.WORKLOADS[bad.name]
            workloads.WORKLOADS[bad.name] = bad
            try:
                with contextlib.redirect_stderr(io.StringIO()):
                    result, detail = run.run_workload(bad.name, SEED, 0.0, False, True)
            finally:
                workloads.WORKLOADS[bad.name] = saved
            with self.subTest(workload=bad.name):
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], result["attempted"])
                self.assertEqual(detail["fail_ratio"], 1.0)


class WithoutPackage(unittest.TestCase):

    def test_exits_non_zero_without_source(self):
        bare = os.path.join(run.ROOT, ".bench_work", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.makedirs(bare)
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(BENCH, os.path.join(bare, "bench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "deadline-affine",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                capture_output=True, text=True, cwd=bare, timeout=180)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
