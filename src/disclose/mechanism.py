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

from .errors import ConfigError
from .frontier import NEG_INF, TechnologyPair, is_neg_inf

# slack allowed in the incentive premium, discounted to the start of its
# cell, before a test fails
IC_TOL = 1e-12


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
                    i: int) -> float:
    """Continuation value at time ``t`` in cell ``i`` (``m.cell_index(t)``)
    from a precomputed :func:`continuation_profile` ``prof``.  Every
    continuation value in the package is evaluated here, or by the same
    expression inlined in the two cell walks, the atom loop of
    :func:`payoff` and the row loop of :func:`mechanism_rows`, so a caller
    that reads many times builds the profile once and pays O(log cells)
    per time."""
    if i == len(m.grid) - 1:
        return m.levels[-1]
    d = math.exp(-r * (m.grid[i + 1] - t))
    return (1.0 - d) * m.levels[i] + d * prof[i + 1]


def continuation_value(m: Mechanism, r: float, t: float) -> float:
    """Continuation value of the flow path at an arbitrary time ``t``."""
    return continuation_at(m, continuation_profile(m, r), r, t, m.cell_index(t))


@dataclass(frozen=True)
class IcReport:
    ok: bool
    time: Optional[float] = None
    clause: Optional[str] = None   # "non_disclosure" or "delay"


def ic_check(m: Mechanism, r: float) -> IcReport:
    """Incentive compatibility of the mechanism, decided at the grid points.

    The agent discloses immediately iff the discounted reward premium
    ``h(t) = exp(-r t) * (reward_t - continuation_t)`` is non-negative (the
    non-disclosure clause) and non-increasing (the delay clause).  In a cell
    ``[a, b)`` with flow ``l`` and reward ``R``,
    ``h(t) = exp(-r t) (R - l) + exp(-r b) (l - X_b)`` is monotone, so exact
    tests decide both: the sign of ``h`` at each cell end, ``R >= l`` in each
    cell, and ``R >= R_next`` at each grid point, where ``h`` jumps by
    ``exp(-r b) (R_next - R)``.  On the constant last cell ``R >= l`` alone
    decides both clauses.  Each cell's tests read ``h / exp(-r a)``, so the
    slack ``IC_TOL`` is relative to the discounting at the cell start and a
    late violation fails like an early one.

    A failure is reported at the grid point where it first shows: the cell
    start when ``h`` is negative there or ``R < l``, the grid point of a
    reward increase, and otherwise the cell end.
    """
    if m.derived_reward:
        return IcReport(ok=True)

    prof = continuation_profile(m, r)
    grid, levels, reward = m.grid, m.levels, m.reward
    for i, a in enumerate(grid):
        rew = reward[i]
        if rew - prof[i] < -IC_TOL:
            return IcReport(ok=False, time=a, clause="non_disclosure")
        if i and rew - reward[i - 1] > IC_TOL:
            return IcReport(ok=False, time=a, clause="delay")
        if i == len(grid) - 1:
            break
        b = grid[i + 1]
        if (levels[i] - rew) * -math.expm1(-r * (b - a)) > IC_TOL:
            return IcReport(ok=False, time=a, clause="delay")
        if math.exp(-r * (b - a)) * (rew - prof[i + 1]) < -IC_TOL:
            return IcReport(ok=False, time=b, clause="non_disclosure")
    return IcReport(ok=True)


def payoff(m: Mechanism, pair: TechnologyPair, dist):
    """Exact expected payoff under a finite breakthrough distribution: a
    float, or the NEG_INF sentinel (never a float -inf) when some atom hits a
    frontier value outside its effective domain.

    Pre-disclosure flow value is integrated cell by cell in closed form
    (each cell contributes ``f0(level) * (exp(-r a) - exp(-r b))``), and each
    atom adds ``exp(-r t) * f1(reward_t)``.  The continuation profile and
    ``exp(-r a)`` at each grid point are computed once.  The atoms, being
    sorted, are taken cell by cell from where the previous cell's ended:
    a cell that holds none, or only one on its grid point, is told by a
    comparison or two, and any other finds its end by one ``bisect``; a
    loop over a cell's atoms reads the cell's constants once, and each
    atom computes ``exp(-r t)`` once and its continuation value as
    :func:`continuation_at` does.  The cost is O(cells + atoms), plus
    O(log atoms) per cell that holds an atom off its grid point.  An atom
    on grid point ``i`` before the last, as every atom of a reward path
    but the last is, reuses ``exp(-r grid[i])`` and the profile's
    ``X_i``, the very values those expressions give there.  Every atom of
    the last cell has the same reward, so ``f1`` is read once for all of
    them.
    """
    r = pair.r
    grid, levels, reward = m.grid, m.levels, m.reward
    times, probs = dist.times, dist.probs
    n = len(grid)

    flow_vals = []           # f0 at each cell level
    for a, x in zip(grid, levels):
        v = pair.f0.value(x)
        if is_neg_inf(v):
            # an off-domain cell counts once an atom lies after its start;
            # the atoms are sorted, so the last one decides
            if times[-1] > a:
                return NEG_INF
            v = 0.0          # no atom reaches into this cell
        flow_vals.append(float(v))

    # discounted flow integral from 0 to grid[i] (cells fully before i)
    disc = [math.exp(-r * g) for g in grid]
    prefix = [0.0] * n
    for i in range(1, n):
        prefix[i] = prefix[i - 1] + flow_vals[i - 1] * (disc[i - 1] - disc[i])

    prof = continuation_profile(m, r)
    f1_value = pair.f1.value
    terms = []
    lo, end = 0, len(times)  # the atoms not yet read: times[lo:]
    for i in range(n - 1):
        g1 = grid[i + 1]
        if lo == end or times[lo] >= g1:
            continue         # no atom in cell i
        fv, pre0, dsc = flow_vals[i], prefix[i], disc[i]
        if times[lo] == grid[i]:  # on grid point i
            e = dsc
            v1 = f1_value(prof[i] if reward is None else reward[i])
            if is_neg_inf(v1):
                return NEG_INF
            terms.append(probs[lo] * (pre0 + fv * (dsc - e) + e * float(v1)))
            lo += 1
            if lo == end or times[lo] >= g1:
                continue     # that atom was the cell's only one
        hi = _bisect.bisect_left(times, g1, lo)
        lv, x1 = levels[i], prof[i + 1]
        for t, p in zip(times[lo:hi], probs[lo:hi]):
            e = math.exp(-r * t)
            if reward is None:
                d = math.exp(-r * (g1 - t))
                v1 = f1_value((1.0 - d) * lv + d * x1)
            else:
                v1 = f1_value(reward[i])
            if is_neg_inf(v1):
                return NEG_INF
            terms.append(p * (pre0 + fv * (dsc - e) + e * float(v1)))
        lo = hi
    if lo < end:             # atoms in the last cell
        v1 = f1_value(levels[-1] if reward is None else reward[-1])
        if is_neg_inf(v1):
            return NEG_INF
        fv, pre0, dsc, v1 = flow_vals[-1], prefix[-1], disc[-1], float(v1)
        for t, p in zip(times[lo:], probs[lo:]):
            e = math.exp(-r * t)
            terms.append(p * (pre0 + fv * (dsc - e) + e * v1))
    return math.fsum(terms)


def mechanism_rows(m: Mechanism, r: float, extra_times: Sequence[float]
                   ) -> Tuple[Tuple[float, float, float, float], ...]:
    """Rows ``(t, flow, continuation, reward)`` at the grid points and the
    sample times ``extra_times`` (not NaN) — the CSV export payload.  A
    DERIVED reward is the continuation value itself, the same object.

    The sorted times walk the cells forward: the times of each cell are
    found by one ``bisect`` from the end of the previous cell's, and each
    computes its continuation value as :func:`continuation_at` does, with
    the cell's constants read once."""
    times = sorted(set(m.grid) | {float(t) for t in extra_times})
    if times[0] < 0:
        raise ConfigError(f"negative time {times[0]}")
    grid, levels, reward = m.grid, m.levels, m.reward
    prof = continuation_profile(m, r)
    out = []
    lo = 0                   # the first time of cell i
    for i in range(len(grid) - 1):
        g1, lv, x1 = grid[i + 1], levels[i], prof[i + 1]
        hi = _bisect.bisect_left(times, g1, lo)
        for t in times[lo:hi]:
            d = math.exp(-r * (g1 - t))
            x = (1.0 - d) * lv + d * x1
            out.append((t, lv, x, x if reward is None else reward[i]))
        lo = hi
    lv = levels[-1]          # the last cell's continuation value is its level
    rw = lv if reward is None else reward[-1]
    out.extend((t, lv, lv, rw) for t in times[lo:])
    return tuple(out)
