"""Benchmark of the disclose solvers: seeded workloads, end-to-end metrics,
and a traced run with per-layer metrics.

One workload per process (so import state, the insurance inner-max cache
and peak RSS belong to that workload alone), one client in a closed loop:
the next request starts when the previous one has finished and been
checked.  Checks run outside the timed region.

    python3 bench/run.py --workload deadline-affine --seed 1 --seconds 25 --trace 0
    python3 bench/run.py                      # every workload, untraced and traced
    python3 bench/run.py --record bench/BENCH_baseline.json

The last line of a single-workload run is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the metrics are the
end-to-end ones with ``--trace 0`` and the per-layer ones with ``--trace 1``.
The line before it, ``detail {...}``, carries what does not fit there
(sample counts, the tail percentile, per-layer metrics at the small size).
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter
from typing import NamedTuple, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

from tracing import LAYER_METRICS, PACKAGE, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Stream  # noqa: E402

END_TO_END = {
    "solve_ms.p50": "ms",
    "solve_ms.tail": "ms",
    "solves_per_s": "1/s",
    "scale_4x": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
SETUP_REPEATS = 9
PREGENERATED_BLOCKS = 16
MIN_BLOCKS = 4          # every run, however short: RSS is read after these
TRACE_COUNTED = 2       # per-layer metrics: the first traced requests of a size

# Times are scaled by the machine's speed, measured with a fixed kernel
# right before and right after each timed piece of work: on a shared machine
# the speed drifts by 20-50 % within minutes, and the kernel slows down with
# it.  The reference, 3 ms, is about the kernel's time on the 2-vCPU machine
# the benchmark was written on when that machine was not slowed down, so
# scaled times read as times on that machine at full speed.
REFERENCE_KERNEL_S = 3e-3
_KERNEL_TIMES = tuple((i + 0.5) / 256 for i in range(256))
_KERNEL_PROBS = (1.0 / 256,) * 256


def kernel_seconds() -> float:
    """Time of a fixed pure-Python kernel shaped like the solvers' inner
    loops: bisections over ``exp``, ``bisect`` lookups and ``fsum``."""
    t0 = perf_counter()
    for k in range(120):
        y = 0.3 + 0.003 * k
        lo, hi = 0.0, 1.0
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            j = bisect.bisect_right(_KERNEL_TIMES, mid)
            if math.fsum(_KERNEL_PROBS[:j]) + 0.5 * math.exp(-mid) < y:
                lo = mid
            else:
                hi = mid
    return perf_counter() - t0


def scaled(wall: float, kernel_before: float) -> float:
    """Wall time at the reference speed: times the reference kernel time
    over the mean of the kernel times just before and just after."""
    return wall * REFERENCE_KERNEL_S / (0.5 * (kernel_before + kernel_seconds()))


def load_package():
    """Import the package afresh from ``src`` (any earlier copy is dropped,
    so every set-up pays the full import)."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    pkg = importlib.import_module(PACKAGE)
    importlib.import_module(PACKAGE + ".cli")
    return pkg


def tail(samples):
    """Highest order statistic with at least ten samples above it, as
    ``(value, percentile, n)``; the maximum when there are ten or fewer."""
    xs = sorted(samples)
    n = len(xs)
    if n > 10:
        return xs[n - 11], 100.0 * (n - 10) / n, n
    return xs[-1], 100.0, n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Request(NamedTuple):
    index: int
    label: str          # "small" or "large"
    wall_s: float
    scaled_s: float     # wall_s at the reference machine speed
    traced: bool
    problem: Optional[str]


def time_metrics(requests, setup, key: str) -> dict:
    """End-to-end time metrics from the untraced requests, on ``key``
    (``wall_s`` or ``scaled_s``) times."""
    def times(label):
        return [getattr(r, key) for r in requests if r.label == label and not r.traced]

    large = times("large")
    # large over small wall time within each block: the two requests ran
    # back to back, so a slow spell of the machine cancels out of the ratio
    by_block = {}
    for r in requests:
        if not r.traced:
            by_block.setdefault(r.index // 2, {})[r.label] = r.wall_s
    ok = sum(1 for r in requests if r.problem is None)
    return {
        "solve_ms.p50": statistics.median(large) * 1e3,
        "solve_ms.tail": tail(large)[0] * 1e3,
        "solves_per_s": ok / sum(getattr(r, key) for r in requests),
        "scale_4x": statistics.median(b["large"] / b["small"] for b in by_block.values()),
        "setup_s": statistics.median(setup),
    }


def run_workload(name: str, seed: int, seconds: float, traced: bool, smoke: bool):
    """One closed-loop run; returns ``(result, detail)``."""
    workdir = os.path.join(ROOT, ".bench_work", f"{name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        setup_wall, setup_scaled = [], []
        for _ in range(SETUP_REPEATS):
            kernel_before = kernel_seconds()
            t0 = perf_counter()
            pkg = load_package()
            workload = WORKLOADS[name](workdir, smoke=smoke)
            stream = Stream(workload, seed)
            stream.generate(PREGENERATED_BLOCKS)
            setup_wall.append(perf_counter() - t0)
            setup_scaled.append(scaled(setup_wall[-1], kernel_before))

        tracer = Tracer() if traced else None
        requests = []
        per_layer = {"small": [], "large": []}
        rss_by_block = []
        t_start = perf_counter()
        blocks = 0
        while blocks < MIN_BLOCKS or perf_counter() - t_start < seconds:
            trace_block = traced and blocks % 2 == 0
            for index, label, spec in stream.next_block():
                gc.collect()
                kernel_before = kernel_seconds()
                if trace_block:
                    tracer.begin(index)
                t0 = perf_counter()
                try:
                    out = workload.run(pkg, spec)
                    problem = None
                except Exception as e:   # a failed request is counted, not fatal
                    if not any(r.problem for r in requests):
                        traceback.print_exc(file=sys.stderr)
                    problem = f"{type(e).__name__}: {e}"
                dt = perf_counter() - t0
                dt_scaled = scaled(dt, kernel_before)
                if trace_block:
                    counters = tracer.end()
                    if len(per_layer[label]) < TRACE_COUNTED:
                        spans = [s for s in tracer.spans if s[5] == index]
                        per_layer[label].append(layer_metrics(spans, counters))
                if problem is None:
                    problem = workload.check(pkg, spec, out)
                if problem is not None:
                    print(f"request {index} ({label}) failed: {problem}", file=sys.stderr)
                requests.append(Request(index, label, dt, dt_scaled, trace_block, problem))
            blocks += 1
            rss_by_block.append(peak_rss_mb())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(requests)
    failed = sum(1 for r in requests if r.problem is not None)
    large = [r.scaled_s for r in requests if r.label == "large" and not r.traced]
    _, tail_pct, tail_n = tail(large)
    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "smoke": smoke,
        "sizes": {"small": workload.small, "large": workload.large},
        "requests": {label: sum(1 for r in requests if r.label == label and not r.traced)
                     for label in ("small", "large")},
        "fail_ratio": failed / attempted,
        "tail_percentile": tail_pct, "tail_samples": tail_n,
        "scale_factor_median": statistics.median(r.scaled_s / r.wall_s for r in requests),
        "wall": time_metrics(requests, setup_wall, "wall_s"),
        "rss_mb_by_block": rss_by_block,
        "setup_s_repeats": setup_scaled,
    }
    if traced:
        traced_large = [r.scaled_s for r in requests if r.label == "large" and r.traced]
        overhead = statistics.median(traced_large) - statistics.median(large)
        metrics = {}
        for label, rows in per_layer.items():
            means = {k: statistics.fmean(row[k] for row in rows) for k in LAYER_METRICS}
            means["trace.overhead_ms"] = overhead * 1e3
            if label == "large":
                metrics = means
            detail[f"per_layer_{label}"] = means
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.dump(os.path.join(out_dir, f"trace-{name}-seed{seed}.jsonl"))
        units = dict(LAYER_METRICS, **{"trace.overhead_ms": "ms"})
    else:
        metrics = time_metrics(requests, setup_scaled, "scaled_s")
        metrics["peak_rss_mb"] = rss_by_block[MIN_BLOCKS - 1]
        metrics = {k: metrics[k] for k in END_TO_END}
        units = END_TO_END
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    return result, detail


def print_metrics(title: str, metrics: dict, detail: dict) -> None:
    print(title)
    for key, m in metrics.items():
        note = ""
        if key == "solve_ms.tail":
            note = f"  (p{detail['tail_percentile']:.1f} of {detail['tail_samples']} large requests)"
        print(f"  {key:38s} {m['value']:14.4f} {m['unit']}{note}")


def run_one(args) -> int:
    result, detail = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace), args.smoke)
    title = (f"{args.workload} seed={args.seed} trace={args.trace}: "
             f"{result['attempted']} requests ({detail['requests']['small']} at "
             f"m={detail['sizes']['small']}, {detail['requests']['large']} at "
             f"m={detail['sizes']['large']} untraced), {result['failed']} failed, "
             f"fail_ratio {detail['fail_ratio']:.4f}")
    print_metrics(title, result["metrics"], detail)
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


def run_child(args, name: str, trace: int):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("detail "):
        raise SystemExit(f"{name} (trace {trace}) exited {proc.returncode}:\n{proc.stdout}")
    return json.loads(lines[-1]), json.loads(lines[-2][len("detail "):])


def run_all(args) -> int:
    record = {"seed": args.seed, "seconds": args.seconds, "smoke": args.smoke,
              "python": platform.python_version(), "machine": platform.machine(),
              "cpus": os.cpu_count(), "workloads": {}}
    ok = True
    for name in WORKLOADS:
        entry = {}
        for trace in (0, 1):
            result, detail = run_child(args, name, trace)
            ok = ok and result["correct"]
            print_metrics(f"{name} trace={trace}: {result['attempted']} requests, "
                          f"{result['failed']} failed, fail_ratio "
                          f"{detail['fail_ratio']:.4f}", result["metrics"], detail)
            entry["end_to_end" if trace == 0 else "per_layer"] = result
            entry[f"detail_trace{trace}"] = detail
        record["workloads"][name] = entry
        sys.stdout.flush()
    if args.record:
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print("all outputs correct" if ok else "SOME OUTPUTS FAILED THEIR CHECKS")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the self-test")
    parser.add_argument("--record", metavar="FILE",
                        help="with --workload all: write every result to FILE")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, PACKAGE, "__init__.py")):
        print(f"no {PACKAGE} package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
