"""Step mechanisms in continuous time: flows, continuation values, payoffs.

A mechanism is a right-continuous step path of pre-disclosure flow utilities
(``levels`` on the cells of ``grid``, constant after the last grid point)
together with a disclosure reward path: either DERIVED — the reward at t is
the continuation value of the flow path itself, which is the undominated
configuration — or an EXPLICIT per-cell step path, needed to express
candidate mechanisms that still leave the agent strictly better off
disclosing than waiting.

All continuous-time arithmetic here is float;  exact-rational checking lives
in the discrete-time oracle module.
"""

from __future__ import annotations

import bisect as _bisect
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .errors import ConfigError, ModelAssumptionError
from .frontier import NEG_INF, TechnologyPair, is_neg_inf

# slack allowed in the incentive premium before a sample counts as a violation
IC_TOL = 1e-12
# equal steps per cell at which the incentive premium is sampled
IC_REFINE = 8


@dataclass(frozen=True)
class Mechanism:
    """Step mechanism: ``levels[i]`` applies on ``[grid[i], grid[i+1])`` and
    ``levels[-1]`` forever after ``grid[-1]``.  ``reward`` is None for the
    DERIVED reward (continuation value of the flow path) or a same-length
    tuple of per-cell disclosure rewards."""

    grid: Tuple[float, ...]
    levels: Tuple[float, ...]
    reward: Optional[Tuple[float, ...]] = None

    def __post_init__(self):
        grid = tuple(float(t) for t in self.grid)
        levels = tuple(float(x) for x in self.levels)
        reward = None if self.reward is None else tuple(float(x) for x in self.reward)
        if not all(map(math.isfinite, grid + levels + (reward or ()))):
            raise ConfigError("mechanism grid, levels and reward must be finite")
        if not grid or grid[0] != 0.0:
            raise ConfigError("mechanism grid must start at t=0")
        for a, b in zip(grid, grid[1:]):
            if not b > a:
                raise ConfigError("mechanism grid must be strictly increasing")
        if len(levels) != len(grid):
            raise ConfigError("need one flow level per grid cell")
        if reward is not None and len(reward) != len(grid):
            raise ConfigError("explicit reward path needs one level per grid cell")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "reward", reward)

    @property
    def derived_reward(self) -> bool:
        return self.reward is None

    def cell_index(self, t: float) -> int:
        if t < 0:
            raise ConfigError(f"negative time {t}")
        return max(_bisect.bisect_right(self.grid, t) - 1, 0)

    def flow_at(self, t: float) -> float:
        return self.levels[self.cell_index(t)]


def continuation_profile(m: Mechanism, r: float) -> Tuple[float, ...]:
    """Continuation values of the flow path at the grid points.

    Backward closed-form recursion per cell: with delta the cell length,
    ``X_a = (1 - exp(-r delta)) * level + exp(-r delta) * X_b``; the terminal
    cell is constant so its continuation value is its level.
    """
    n = len(m.grid)
    out = [0.0] * n
    out[-1] = m.levels[-1]
    for i in range(n - 2, -1, -1):
        d = math.exp(-r * (m.grid[i + 1] - m.grid[i]))
        out[i] = (1.0 - d) * m.levels[i] + d * out[i + 1]
    return tuple(out)


def continuation_at(m: Mechanism, prof: Sequence[float], r: float, t: float,
                    i: Optional[int] = None) -> float:
    """Continuation value at time ``t`` from a precomputed
    :func:`continuation_profile` ``prof``; ``i`` is the cell of ``t`` when the
    caller already has it.  Every continuation value in the package is
    evaluated here, so a caller that reads many times builds the profile once
    and pays O(log cells) per time."""
    if i is None:
        i = m.cell_index(t)
    if i == len(m.grid) - 1:
        return m.levels[-1]
    d = math.exp(-r * (m.grid[i + 1] - t))
    return (1.0 - d) * m.levels[i] + d * prof[i + 1]


def continuation_value(m: Mechanism, r: float, t: float) -> float:
    """Continuation value of the flow path at an arbitrary time ``t``."""
    return continuation_at(m, continuation_profile(m, r), r, t)


def reward_from_profile(m: Mechanism, prof: Sequence[float], r: float, t: float,
                        i: int) -> float:
    """Disclosure reward at time ``t`` in cell ``i``: the continuation value
    read from ``prof`` if DERIVED, else the explicit per-cell constant."""
    if m.derived_reward:
        return continuation_at(m, prof, r, t, i)
    return m.reward[i]


def reward_value(m: Mechanism, r: float, t: float) -> float:
    """Disclosure reward at an arbitrary time ``t``."""
    return reward_from_profile(m, continuation_profile(m, r), r, t, m.cell_index(t))


@dataclass(frozen=True)
class IcReport:
    ok: bool
    time: Optional[float] = None
    clause: Optional[str] = None   # "non_disclosure" or "delay"


def ic_check(m: Mechanism, r: float) -> IcReport:
    """Incentive compatibility of the mechanism.

    The agent discloses immediately iff the discounted reward premium
    ``h(t) = exp(-r t) * (reward_t - continuation_t)`` is non-negative (the
    non-disclosure clause) and non-increasing (the delay clause).  Within a
    cell both paths move smoothly, so h is monotone there and sampling each
    cell ``IC_REFINE`` times plus both sides of every jump decides the check;
    the constant tail needs only ``reward >= level``.

    The first failing sample time and clause are reported.
    """
    if m.derived_reward:
        return IcReport(ok=True)

    prof = continuation_profile(m, r)
    n = len(m.grid)
    samples = []  # (t, h) in time order; boundaries appear once per side
    for i in range(n):
        a = m.grid[i]
        b = m.grid[i + 1] if i + 1 < n else a + max(1.0 / r, 1.0)
        rew = m.reward[i]
        for j in range(IC_REFINE + 1):
            t = a + (b - a) * j / IC_REFINE
            cont = continuation_at(m, prof, r, t, i)
            samples.append((t, math.exp(-r * t) * (rew - cont)))

    prev_h = None
    for t, h in samples:
        if h < -IC_TOL:
            return IcReport(ok=False, time=t, clause="non_disclosure")
        if prev_h is not None and h > prev_h + IC_TOL:
            return IcReport(ok=False, time=t, clause="delay")
        prev_h = h
    # constant tail: h(t) = exp(-r t) (reward - level) -> 0, monotone
    if m.reward[-1] < m.levels[-1] - IC_TOL:
        return IcReport(ok=False, time=m.grid[-1], clause="non_disclosure")
    return IcReport(ok=True)


@dataclass(frozen=True)
class AtomPayoff:
    t: float
    p: float
    pre: Optional[float]    # None when an off-domain value was hit
    post: Optional[float]


@dataclass(frozen=True)
class PayoffBreakdown:
    """Expected principal value split into pre/post disclosure parts.

    ``total`` is the NEG_INF sentinel (never a float -inf) whenever some atom
    hit a frontier value outside its effective domain; the offending atom
    times are listed in ``off_domain`` so callers can report rather than
    crash."""

    total: object
    pre_disclosure: float
    post_disclosure: float
    atoms: Tuple[AtomPayoff, ...]
    off_domain: Tuple[float, ...] = ()


def payoff(m: Mechanism, pair: TechnologyPair, dist) -> PayoffBreakdown:
    """Exact expected payoff under a finite breakthrough distribution.

    Pre-disclosure flow value is integrated cell by cell in closed form
    (each cell contributes ``f0(level) * (exp(-r a) - exp(-r b))``), and each
    atom adds ``exp(-r t) * f1(reward_t)``.  The continuation profile is
    built once, so the cost is O(cells + atoms * log cells).
    """
    r = pair.r
    n = len(m.grid)

    flow_vals = []           # f0 at each cell level; None marks off-domain
    for x in m.levels:
        v = pair.f0.value(x)
        flow_vals.append(None if is_neg_inf(v) else float(v))

    # discounted flow integral from 0 to grid[i] (cells fully before i);
    # first_bad[i] = True when some cell strictly before grid[i] is off-domain
    prefix = [0.0] * n
    first_bad = [False] * n
    for i in range(1, n):
        w = math.exp(-r * m.grid[i - 1]) - math.exp(-r * m.grid[i])
        contrib = 0.0 if flow_vals[i - 1] is None else flow_vals[i - 1] * w
        prefix[i] = prefix[i - 1] + contrib
        first_bad[i] = first_bad[i - 1] or flow_vals[i - 1] is None

    prof = continuation_profile(m, r)
    rows = []
    bad_times = []
    for t, p in zip(dist.times, dist.probs):
        i = m.cell_index(t)
        bad = first_bad[i] or (t > m.grid[i] and flow_vals[i] is None)
        pre = None
        if not bad:
            pre = prefix[i] + (flow_vals[i] or 0.0) * (math.exp(-r * m.grid[i]) - math.exp(-r * t))
        v1 = pair.f1.value(reward_from_profile(m, prof, r, t, i))
        post = None if is_neg_inf(v1) else math.exp(-r * t) * float(v1)
        if post is None or bad:
            bad_times.append(t)
        rows.append(AtomPayoff(t=t, p=p, pre=pre, post=post))

    clean = [(row.p, row.pre, row.post) for row in rows
             if row.pre is not None and row.post is not None]
    pre_total = math.fsum(p * pre for p, pre, _ in clean)
    post_total = math.fsum(p * post for p, _, post in clean)
    if bad_times:
        return PayoffBreakdown(total=NEG_INF, pre_disclosure=pre_total,
                               post_disclosure=post_total, atoms=tuple(rows),
                               off_domain=tuple(bad_times))
    total = math.fsum(p * (pre + post) for p, pre, post in clean)
    return PayoffBreakdown(total=total, pre_disclosure=pre_total,
                           post_disclosure=post_total, atoms=tuple(rows))


def deadline_mechanism(pair: TechnologyPair, T: float) -> Mechanism:
    """The deadline profile: flow at the ``f0`` peak until ``T``, at the
    shared-slope level afterwards, with the DERIVED reward."""
    u0 = float(pair.u0)
    ustar = float(pair.u_star)
    if T == math.inf:
        return Mechanism(grid=(0.0,), levels=(u0,))
    if T < 0:
        raise ConfigError(f"deadline must be non-negative, got {T}")
    if T == 0.0:
        return Mechanism(grid=(0.0,), levels=(ustar,))
    return Mechanism(grid=(0.0, float(T)), levels=(u0, ustar))


@dataclass(frozen=True)
class FrontLoadResult:
    T: float
    mechanism: Mechanism


def front_load(m: Mechanism, pair: TechnologyPair) -> FrontLoadResult:
    """The deadline mechanism whose time-0 continuation value matches
    ``max(X_0, u_star)`` of ``m``.

    Solving ``(1 - exp(-rT)) u0 + exp(-rT) u_star = X0`` for T is exact; a
    mechanism whose X0 exceeds the ``f0`` peak is refused (cap its flows at
    the peak first — that is always weakly improving)."""
    u0 = float(pair.u0)
    ustar = float(pair.u_star)
    x0 = continuation_value(m, pair.r, 0.0)
    if x0 > u0 + 1e-9:
        raise ModelAssumptionError(
            f"initial continuation value {x0} exceeds the f0 peak {u0}; "
            "cap the flow levels first")
    target = max(x0, ustar)
    if target >= u0:
        return FrontLoadResult(T=math.inf, mechanism=deadline_mechanism(pair, math.inf))
    if u0 <= ustar:
        raise ModelAssumptionError("degenerate pair: f0 peak at the shared-slope level")
    T = -math.log((u0 - target) / (u0 - ustar)) / pair.r
    T = max(T, 0.0)
    return FrontLoadResult(T=T, mechanism=deadline_mechanism(pair, T))


def mechanism_rows(m: Mechanism, r: float,
                   extra_times: Sequence[float] = ()) -> Tuple[Tuple[float, float, float, float], ...]:
    """Rows ``(t, flow, continuation, reward)`` at the grid points plus any
    requested sample times — the CSV export payload."""
    times = sorted(set(m.grid) | {float(t) for t in extra_times})
    prof = continuation_profile(m, r)
    out = []
    for t in times:
        i = m.cell_index(t)
        out.append((t, m.levels[i], continuation_at(m, prof, r, t, i),
                    reward_from_profile(m, prof, r, t, i)))
    return tuple(out)
