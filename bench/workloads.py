"""The benchmark's four seeded workloads.

Each workload turns a seed into an endless stream of requests, runs one
request against the package (the timed part) and checks its output with a
property every correct solver has (untimed).  Configs are derived only
through transformations that keep the model assumptions intact:

* fixture A (piecewise, affine ``f0`` on the working band) and fixture B
  (smooth, strictly concave) with both axes rescaled by the same factors
  for ``f0`` and ``f1``, which preserves concavity, the peak order, the
  dominance ``f1 >= f0`` and the shared-slope level (scaled);
* insurance primitives inside the ranges ``UiPrimitives`` accepts;
* breakthrough laws discretized by the package itself (``m`` midpoint
  quantiles of mass ``1/m``), so masses sum to 1 without float drift.

Requests come in blocks of one small and one large request (size ``m`` and
``4m``) in a seeded order within the block.  Both requests of a block share
every other parameter, so their time ratio measures the cost of size alone;
``ui-sweep`` draws them independently instead, because two requests with
the same primitives would share the insurance inner-max cache.  A request
that raises, exits non-zero or fails its check counts as failed; nothing is
dropped.
"""

from __future__ import annotations

import json
import math
import os
import random
from fractions import Fraction

A_F0 = ((0.0, 0.0), (1.0, 1.0), (2.0, 0.0))
A_F1 = ((0.0, 0.6), (0.3, 1.2), (0.8, 1.4), (1.8, 0.6))
B_U_HI = 1.2
SHADOWS = (0.5, 0.2, 0.1, 0.05)

RESIDUAL_TOL = 1e-8
PSI_TOL = 1e-9
LEVEL_TOL = 1e-10
RATIO_TOL = 1e-9


def _law(rng: random.Random, m: int) -> dict:
    """A discretized exponential or Weibull law with seeded parameters."""
    if rng.random() < 0.5:
        return {"kind": "exponential", "rate": rng.uniform(0.5, 2.0), "m": m}
    return {"kind": "weibull", "shape": rng.uniform(0.8, 2.0),
            "scale": rng.uniform(0.5, 2.0), "m": m}


def _dist(pkg, law: dict):
    params = {k: v for k, v in law.items() if k not in ("kind", "m")}
    return pkg.discretize(law["kind"], law["m"], **params)


class Workload:
    """One workload: ``sizes`` are (small, large); ``smoke_sizes`` are the
    tiny sizes of the self-test."""

    name = ""
    sizes = (0, 0)
    smoke_sizes = (0, 0)
    paired = True

    def __init__(self, workdir: str, smoke: bool = False):
        self.workdir = workdir
        self.small, self.large = self.smoke_sizes if smoke else self.sizes

    def spec(self, rng: random.Random, m: int) -> dict:
        raise NotImplementedError

    def prepare(self, index: int, spec: dict) -> None:
        """Write whatever the request reads from disk (untimed)."""

    def run(self, pkg, spec: dict):
        raise NotImplementedError

    def check(self, pkg, spec: dict, out) -> str | None:
        """``None`` when the output is correct, else what is wrong."""
        raise NotImplementedError


class Stream:
    """Deterministic request stream of a workload for one seed.

    Yields ``(index, label, spec)`` with ``label`` "small" or "large"; the
    two requests of a block come in a seeded order."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.rng = random.Random(f"{workload.name}/{seed}")
        self.index = 0
        self.pending = []

    def _fill(self):
        labels = [("small", self.workload.small), ("large", self.workload.large)]
        if self.rng.random() < 0.5:
            labels.reverse()
        state = self.rng.getstate()
        for label, m in labels:
            if self.workload.paired:
                self.rng.setstate(state)
            spec = self.workload.spec(self.rng, m)
            self.workload.prepare(self.index, spec)
            self.pending.append((self.index, label, spec))
            self.index += 1

    def generate(self, n_blocks: int):
        """Generate (and write) the first ``n_blocks`` blocks ahead of time."""
        while len(self.pending) < 2 * n_blocks:
            self._fill()

    def next_block(self):
        if len(self.pending) < 2:
            self._fill()
        block, self.pending = self.pending[:2], self.pending[2:]
        return block


class _CliWorkload(Workload):
    """Requests are ``disclose.cli.main`` runs on a config file."""

    command = ""

    def config(self, spec: dict) -> dict:
        raise NotImplementedError

    def prepare(self, index, spec):
        spec["config"] = os.path.join(self.workdir, f"config-{index}.json")
        spec["out"] = os.path.join(self.workdir, "out")
        with open(spec["config"], "w", encoding="utf-8") as fh:
            json.dump(self.config(spec), fh)

    def run(self, pkg, spec):
        return pkg.cli.main([self.command, "--config", spec["config"],
                             "--out", spec["out"]])

    def report(self, spec, rc) -> tuple:
        """``(report, problem)``: the parsed report.json, or why not."""
        if rc != 0:
            return None, f"exit code {rc}"
        with open(os.path.join(spec["out"], "report.json"), encoding="utf-8") as fh:
            return json.load(fh), None


class DeadlineAffine(_CliWorkload):
    """``solve-deadline`` on fixture A: the bracket loop of
    ``optimize_deadline`` (``pi_and_derivs``, 2-cell ``payoff``, ``cdf``,
    piecewise ``derivs``)."""

    name = "deadline-affine"
    command = "solve-deadline"
    sizes = (64, 256)
    smoke_sizes = (4, 16)

    def spec(self, rng, m):
        return {"su": rng.uniform(0.5, 2.0), "sv": rng.uniform(0.5, 2.0),
                "r": rng.uniform(0.5, 2.0), "law": _law(rng, m)}

    def config(self, spec):
        su, sv = spec["su"], spec["sv"]
        return {"technology": {
                    "kind": "piecewise",
                    "f0": [[u * su, v * sv] for u, v in A_F0],
                    "f1": [[u * su, v * sv] for u, v in A_F1]},
                "r": spec["r"], "distribution": spec["law"]}

    def check(self, pkg, spec, rc):
        rep, problem = self.report(spec, rc)
        if problem:
            return problem
        if rep["foc"]["satisfied"] is not True:
            return "first-order conditions not satisfied"
        if not rep["T"] >= rep["t_underline"]:
            return f"T={rep['T']} below t_underline={rep['t_underline']}"
        if not (isinstance(rep["payoff"], float) and math.isfinite(rep["payoff"])):
            return f"payoff {rep['payoff']!r} is not finite"
        return None


class PathSmooth(Workload):
    """``euler.solve`` then ``euler.euler_residuals`` on fixture B: nested
    bisections (``inv_deriv_f0`` inside the ``psi`` root) and ``payoff`` on
    an (m+1)-cell mechanism."""

    name = "path-smooth"
    sizes = (128, 512)
    smoke_sizes = (8, 32)

    def spec(self, rng, m):
        return {"su": rng.uniform(0.5, 2.0), "sv": rng.uniform(0.5, 2.0),
                "r": rng.uniform(0.5, 2.0), "law": _law(rng, m)}

    def run(self, pkg, spec):
        su, sv = spec["su"], spec["sv"]
        k = sv / su

        def f0(u):
            x = u / su
            return sv * (2.0 * x - x * x)

        def f0_d(u):
            return k * (2.0 - 2.0 * u / su)

        def f1(u):
            return sv * (1.45 - 1.5 * (u / su - 0.7) ** 2)

        def f1_d(u):
            return k * -3.0 * (u / su - 0.7)

        pair = pkg.TechnologyPair.build(
            pkg.ParametricFrontier(fn=f0, u_lo=0.0, u_hi=B_U_HI * su, dfn=f0_d),
            pkg.ParametricFrontier(fn=f1, u_lo=0.0, u_hi=B_U_HI * su, dfn=f1_d),
            spec["r"])
        dist = _dist(pkg, spec["law"])
        sol = pkg.solve(pair, dist)
        residuals = pkg.euler_residuals(pair, dist, sol.levels, sol.conts)
        return pair, sol, residuals

    def check(self, pkg, spec, out):
        pair, sol, residuals = out
        worst = max(abs(v) for v in residuals)
        if not worst <= RESIDUAL_TOL:
            return f"max |euler residual| = {worst:.3e}"
        if not abs(sol.psi) <= PSI_TOL:
            return f"|psi| = {abs(sol.psi):.3e}"
        lo, hi = float(pair.u_star) - LEVEL_TOL, float(pair.u0) + LEVEL_TOL
        if not all(lo <= x <= hi for x in sol.levels):
            return "a flow level lies outside [u_star, u0]"
        if any(b > a + LEVEL_TOL for a, b in zip(sol.levels, sol.levels[1:])):
            return "flow levels increase"
        return None


class UiSweep(_CliWorkload):
    """``ui-sweep`` over four shadow prices: the numerically defined ``f1``,
    both solvers on parametric frontiers and ``affine_gap``."""

    name = "ui-sweep"
    command = "ui-sweep"
    sizes = (8, 32)
    smoke_sizes = (2, 4)
    paired = False

    def spec(self, rng, m):
        # fresh primitives per request: the insurance inner-max cache gets
        # no hit carried over from an earlier request
        return {"a": rng.uniform(0.45, 0.55), "b": rng.uniform(1.7, 2.3),
                "w": rng.uniform(0.8, 1.25), "r": rng.uniform(0.5, 2.0),
                "law": _law(rng, m)}

    def config(self, spec):
        return {"technology": {"kind": "insurance", "a": spec["a"],
                               "b": spec["b"], "w": spec["w"],
                               "shadow": SHADOWS[0]},
                "r": spec["r"], "shadows": list(SHADOWS),
                "distribution": spec["law"]}

    def check(self, pkg, spec, rc):
        rep, problem = self.report(spec, rc)
        if problem:
            return problem
        if rep["gain_within_bound"] is not True:
            return "path gain exceeds the curvature bound"
        for row in rep["rows"]:
            if not row["ratio"] <= 1.0 + RATIO_TOL:
                return f"deadline/path ratio {row['ratio']!r} above 1"
        return None


class OracleScan(Workload):
    """``discrete.undominated_scan`` over horizon-2 grid mechanisms with
    exact ``Fraction`` frontiers, discount factor and grids."""

    name = "oracle-scan"
    sizes = (7, 10)   # grid levels g: g**4 mechanisms per request
    smoke_sizes = (3, 4)
    horizon = 2

    def spec(self, rng, g):
        su = Fraction(rng.randint(2, 8), 4)
        sv = Fraction(rng.randint(2, 8), 4)
        # levels k/20 * su for k in 0..36, inside both domains [0, 1.8 su];
        # the first g of a shuffle, so a block's small grid is in its large one
        x_grid = sorted(rng.sample(range(37), 37)[:g])
        reward_grid = sorted(rng.sample(range(37), 37)[:g])
        return {"su": su, "sv": sv, "beta": Fraction(rng.randint(3, 8), 10),
                "x_grid": [Fraction(k, 20) * su for k in x_grid],
                "reward_grid": [Fraction(k, 20) * su for k in reward_grid]}

    def run(self, pkg, spec):
        f0 = pkg.PiecewiseFrontier(_exact(A_F0, spec["su"], spec["sv"]))
        f1 = pkg.PiecewiseFrontier(_exact(A_F1, spec["su"], spec["sv"]))
        return pkg.undominated_scan(f0, f1, spec["beta"], self.horizon,
                                    spec["x_grid"], spec["reward_grid"])

    def check(self, pkg, spec, entries):
        for e in entries:
            if not pkg.ic_discrete(pkg.DiscreteMechanism(spec["beta"], e.x, e.x1)).ok:
                return "a kept mechanism is not incentive compatible"
        for a in entries:
            for b in entries:
                if a is not b and all(p >= q for p, q in zip(a.payoffs, b.payoffs)) \
                        and any(p > q for p, q in zip(a.payoffs, b.payoffs)):
                    return "a kept mechanism is dominated by another"
        return None


def _exact(points, su, sv):
    """Fixture breakpoints as exact rationals, axes scaled by ``su``/``sv``."""
    return tuple((Fraction(str(u)) * su, Fraction(str(v)) * sv) for u, v in points)


WORKLOADS = {w.name: w for w in (DeadlineAffine, PathSmooth, UiSweep, OracleScan)}
