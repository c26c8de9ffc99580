"""Finite breakthrough-time distributions.

Everything downstream works with finitely many atoms; continuous families
enter through equal-mass quantile discretization.  Times must be finite and
are snapped to 1e-12 when merging, masses must be positive, and the total
mass must be 1 within 1e-12 — a defective ("never") scenario is not
representable here and is handled explicitly by the discrete-time oracle
instead.
"""

from __future__ import annotations

import bisect as _bisect
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .errors import ConfigError

SNAP = 1e-12
MASS_TOL = 1e-12
# slack in the cdf and mass-ratio comparisons of the stochastic-order checks
ORDER_TOL = 1e-12
# largest discretization size: discretize builds all m atoms up front
MAX_ATOMS = 100_000


def _prefix_masses(probs: Sequence[float]) -> Tuple[float, ...]:
    """``out[j] == math.fsum(probs[:j])`` for every j, in O(len(probs)).

    Each finite float is an integer over a power of two, so the prefix sums
    are exact integers over the largest denominator, and int / int true
    division rounds each one correctly, as ``fsum`` does.  Like ``fsum``,
    it rounds every input to float first.
    """
    probs = [float(p) for p in probs]
    den = max(p.as_integer_ratio()[1] for p in probs)
    acc = 0
    out = [0.0]
    for p in probs:
        num, d = p.as_integer_ratio()
        acc += num * (den // d)
        out.append(acc / den)
    return tuple(out)


@dataclass(frozen=True)
class BreakthroughDist:
    """Atoms ``(times, probs)`` with times strictly increasing and probs > 0.

    ``cdf``/``cdf_left`` are O(log m): they bisect the times and read a table
    of correctly rounded prefix masses built once at construction.
    """

    times: Tuple[float, ...]
    probs: Tuple[float, ...]

    def __post_init__(self):
        if len(self.times) != len(self.probs) or not self.times:
            raise ConfigError("distribution needs matching, non-empty times/probs")
        for t in self.times:
            if not math.isfinite(t):
                raise ConfigError(f"atom times must be finite, got {t}")
        for t0, t1 in zip(self.times, self.times[1:]):
            if not t1 > t0:
                raise ConfigError("atom times must be strictly increasing")
        if self.times[0] < 0:
            raise ConfigError("atom times must be non-negative")
        for p in self.probs:
            if not p > 0:
                raise ConfigError(f"atom masses must be positive, got {p}")
        total = math.fsum(self.probs)
        if abs(total - 1.0) > MASS_TOL:
            raise ConfigError(f"atom masses must sum to 1 within {MASS_TOL}, got {total!r}")
        object.__setattr__(self, "_cum", _prefix_masses(self.probs))

    def cdf(self, t: float) -> float:
        """G(t) = P(tau <= t)."""
        if not t >= self.times[0]:  # before the first atom, or NaN
            return 0.0
        return self._cum[_bisect.bisect_right(self.times, t)]

    def cdf_left(self, t: float) -> float:
        """G(t-) = P(tau < t)."""
        return self._cum[_bisect.bisect_left(self.times, t)]


def from_atoms(pairs: Sequence[Sequence[float]]) -> BreakthroughDist:
    """Build a distribution from ``(time, mass)`` pairs.

    Atoms closer than 1e-12 in time are merged onto the first occurrence;
    zero masses are dropped after merging; negative masses are an error.
    """
    if not pairs:
        raise ConfigError("no atoms given")
    items = sorted((float(t), float(p)) for t, p in pairs)
    merged = []
    for t, p in items:
        if p < 0:
            raise ConfigError(f"negative atom mass at t={t}")
        if merged and t - merged[-1][0] <= SNAP:
            merged[-1][1] += p
        else:
            merged.append([t, p])
    kept = [(t, p) for t, p in merged if p > 0.0]
    if not kept:
        raise ConfigError("all atoms have zero mass")
    return BreakthroughDist(times=tuple(t for t, _ in kept),
                            probs=tuple(p for _, p in kept))


# the parameters each named family takes, all required
_FAMILIES = {"point": ("t",), "exponential": ("rate",), "weibull": ("shape", "scale")}


def discretize(kind: str, m: int, **params) -> BreakthroughDist:
    """Equal-mass quantile discretization of a named family.

    Uses the midpoint quantiles ``F^{-1}((i - 1/2) / m)`` for i = 1..m, each
    carrying mass 1/m.  Supported kinds: ``exponential`` (rate), ``weibull``
    (shape, scale), ``point`` (t).
    """
    if not isinstance(m, int) or m < 1:
        raise ConfigError(f"discretization size must be a positive integer, got {m}")
    if m > MAX_ATOMS:
        raise ConfigError(f"discretization size m={m} exceeds the limit of {MAX_ATOMS}")
    if kind not in _FAMILIES:
        raise ConfigError(f"unknown distribution kind {kind!r}")
    if sorted(params) != sorted(_FAMILIES[kind]):
        raise ConfigError(f"{kind} distribution takes parameters "
                          f"{sorted(_FAMILIES[kind])}, got {sorted(params)}")
    if kind == "point":
        t = params["t"]
        if t < 0:
            raise ConfigError("point atom must be at a non-negative time")
        return from_atoms([(float(t), 1.0)])
    if kind == "exponential":
        rate = params["rate"]
        if not rate > 0:
            raise ConfigError("exponential rate must be positive")
        inv = lambda q: -math.log1p(-q) / rate
    else:
        shape, scale = params["shape"], params["scale"]
        if not (shape > 0 and scale > 0):
            raise ConfigError("weibull shape and scale must be positive")
        def inv(q):  # a time past the float range is inf, as a huge scale makes it
            try:
                return scale * (-math.log1p(-q)) ** (1.0 / shape)
            except OverflowError:
                return math.inf
    atoms = [(inv((i - 0.5) / m), 1.0 / m) for i in range(1, m + 1)]
    return from_atoms(atoms)


@dataclass(frozen=True)
class OrderReport:
    """How the first distribution relates to the second."""

    fosd: bool                    # first-order stochastic dominance (first puts mass later)
    mlr: Optional[bool]           # likelihood-ratio dominance; None when supports differ
    equal_support: bool
    detail: str = ""


def order_checks(d: BreakthroughDist, d_dag: BreakthroughDist) -> OrderReport:
    """Numerically check stochastic orderings of ``d`` over ``d_dag``.

    FOSD holds when the cdf of ``d`` is everywhere <= the cdf of ``d_dag``
    (checked on the union of the supports, which is exact for step cdfs).
    The likelihood-ratio check needs equal supports; the mass ratios
    ``p_k / p_dag_k`` must then be non-decreasing (cross-multiplied to avoid
    dividing).  When supports differ, ``mlr`` is None rather than a guess.
    """
    union = sorted(set(d.times) | set(d_dag.times))
    fosd = all(d.cdf(t) <= d_dag.cdf(t) + ORDER_TOL for t in union)

    equal = len(d.times) == len(d_dag.times) and all(
        abs(a - b) <= SNAP for a, b in zip(d.times, d_dag.times))
    if not equal:
        return OrderReport(fosd=fosd, mlr=None, equal_support=False,
                           detail="supports differ; likelihood-ratio order undefined here")
    mlr = True
    for k in range(len(d.times) - 1):
        # p_{k+1}/pdag_{k+1} >= p_k/pdag_k  <=>  p_{k+1} pdag_k >= p_k pdag_{k+1}
        if d.probs[k + 1] * d_dag.probs[k] < d.probs[k] * d_dag.probs[k + 1] - ORDER_TOL:
            mlr = False
            break
    return OrderReport(fosd=fosd, mlr=mlr, equal_support=True)
