"""Discrete-time oracle: exact incentive checks and dominance scans.

Everything here works period by period with plain arithmetic, so feeding
``fractions.Fraction`` inputs makes every comparison exact — this module is
the ground truth the continuous-time solvers are tested against.

A discrete mechanism is a per-period flow path ``x`` and a per-period
disclosure reward path ``x1`` (both stationary after the last entry) under
a per-period discount factor ``beta``.  The delay incentive constraint at
period s is

    x1[s] >= (1 - beta) x[s] + beta x1[s+1]

(with ``x1[H] = x1[H-1]``), and the non-disclosure constraint is
``x1[s] >= X0[s]`` where ``X0`` is the continuation value of the flow path.
The delay constraints plus the stationary tail imply non-disclosure, which
is why strictly positive delay slack is always exploitable: the scan in
:func:`improve_slack` tightens it while strictly improving the principal
under some breakthrough belief.
"""

from __future__ import annotations

import itertools
import math
import operator
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .errors import ConfigError, NothingToImprove
from .frontier import NEG_INF, is_neg_inf

# most mechanism-periods undominated_scan will enumerate: grid mechanisms
# times the horizon, since each mechanism is checked and scored period by
# period; the horizon is charged even when the grids hold one level each
SCAN_BUDGET = 1e7


@dataclass(frozen=True)
class DiscreteMechanism:
    """Per-period flow levels ``x`` and disclosure rewards ``x1``; both
    repeat their last entry forever.  Values are stored exactly as given
    (ints, floats, or Fractions)."""

    beta: object
    x: Tuple[object, ...]
    x1: Tuple[object, ...]

    def __post_init__(self):
        if not (0 < self.beta < 1):
            raise ConfigError(f"discount factor must be in (0, 1), got {self.beta}")
        x = tuple(self.x)
        x1 = tuple(self.x1)
        if not x or len(x) != len(x1):
            raise ConfigError("flow and reward paths need the same positive length")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "x1", x1)

    @property
    def horizon(self) -> int:
        return len(self.x)


def continuation(m: DiscreteMechanism) -> Tuple[object, ...]:
    """Continuation values of the flow path: ``X0[s] = (1-beta) x[s] +
    beta X0[s+1]`` with the stationary tail ``X0[H-1] = x[H-1]``."""
    h = m.horizon
    out = [None] * h
    out[-1] = m.x[-1]
    for s in range(h - 2, -1, -1):
        out[s] = (1 - m.beta) * m.x[s] + m.beta * out[s + 1]
    return tuple(out)


def delay_slacks(m: DiscreteMechanism) -> Tuple[object, ...]:
    """Slack of each delay constraint; the last entry is the stationary-tail
    slack ``(1-beta)(x1[H-1] - x[H-1])``.  All non-negative iff the agent
    never gains by sitting on a breakthrough."""
    h = m.horizon
    out = []
    for s in range(h):
        nxt = m.x1[s + 1] if s + 1 < h else m.x1[-1]
        out.append(m.x1[s] - ((1 - m.beta) * m.x[s] + m.beta * nxt))
    return tuple(out)


@dataclass(frozen=True)
class DiscreteIcReport:
    ok: bool
    period: Optional[int] = None
    clause: Optional[str] = None   # "non_disclosure" or "delay"


def ic_discrete(m: DiscreteMechanism) -> DiscreteIcReport:
    """Exact incentive check; reports the first failing period and clause
    (non-disclosure before delay, matching the continuous-time checker).
    A delay bound is compared with ``x1[s]``, not a :func:`delay_slacks`
    entry with 0: a ``Fraction`` minus a float rounds to a float first."""
    x, x1, beta, h = m.x, m.x1, m.beta, m.horizon
    x0 = continuation(m)
    for s in range(h):
        if x1[s] < x0[s]:
            return DiscreteIcReport(ok=False, period=s, clause="non_disclosure")
        if x1[s] < (1 - beta) * x[s] + beta * x1[min(s + 1, h - 1)]:
            return DiscreteIcReport(ok=False, period=s, clause="delay")
    return DiscreteIcReport(ok=True)


def payoff_vector(m: DiscreteMechanism, f0, f1) -> Tuple[object, ...]:
    """Payoffs under every point-mass breakthrough belief plus "never";
    the coordinates a dominance comparison ranges over.  Coordinate p is the
    discounted flow up to p plus the reward frontier at ``x1[p]``; "never"
    folds the stationary tail in closed form.  A coordinate that reads a
    value off its frontier's domain is NEG_INF."""
    h = m.horizon
    out = []
    total = 0
    for p in range(h):
        w = f1.value(m.x1[p])
        out.append(NEG_INF if is_neg_inf(w) else total + m.beta ** p * w)
        v = f0.value(m.x[p])
        if is_neg_inf(v):
            return tuple(out) + (NEG_INF,) * (h - p)
        if p < h - 1:
            total += (1 - m.beta) * m.beta ** p * v
    return tuple(out) + (total + m.beta ** (h - 1) * v,)


@dataclass(frozen=True)
class ImproveStep:
    """One exact improvement: ``mechanism`` differs from the input in a
    single entry, weakly tightens every incentive constraint, and strictly
    improves the principal under the point-mass belief ``improves_at``."""

    mechanism: DiscreteMechanism
    period: int
    case: str            # "lower_reward" | "raise_flow" | "raise_next_reward"
    delta: object
    improves_at: int     # payoff_vector coordinate: period index, or horizon
                         # for the trailing "never discloses" coordinate


def improve_slack(m: DiscreteMechanism, u1) -> ImproveStep:
    """Exploit the first strictly positive delay slack.

    At the first slack period t, apply the first case that fits:

    * reward above the post-disclosure peak -> lower ``x1[t]`` toward ``u1``;
    * flow below the peak -> raise ``x[t]`` toward ``u1``;
    * next reward below the peak -> raise ``x1[t+1]`` toward ``u1``.

    Each move is capped by the slack it consumes, so the result stays
    incentive compatible (exactly, under exact inputs).  If no case fits,
    all three quantities straddle ``u1`` in the order that forces
    ``x1[t] > u1``, so the first case in fact always fits at a slack period.
    """
    slacks = delay_slacks(m)
    t = next((s for s, v in enumerate(slacks) if v > 0), None)
    if t is None:
        raise NothingToImprove("every delay constraint is tight")

    x = list(m.x)
    x1 = list(m.x1)
    if x1[t] > u1:
        delta = min(slacks[t], x1[t] - u1)
        x1[t] = x1[t] - delta
        return ImproveStep(
            mechanism=DiscreteMechanism(m.beta, tuple(x), tuple(x1)),
            period=t, case="lower_reward", delta=delta, improves_at=t)
    if x[t] < u1:
        delta = min(slacks[t] / (1 - m.beta), u1 - x[t])
        x[t] = x[t] + delta
        return ImproveStep(
            mechanism=DiscreteMechanism(m.beta, tuple(x), tuple(x1)),
            period=t, case="raise_flow", delta=delta,
            improves_at=t + 1)
    nxt = t + 1 if t + 1 < m.horizon else t
    if x1[nxt] < u1:
        delta = min(slacks[t] / m.beta, u1 - x1[nxt])
        x1[nxt] = x1[nxt] + delta
        return ImproveStep(
            mechanism=DiscreteMechanism(m.beta, tuple(x), tuple(x1)),
            period=t, case="raise_next_reward", delta=delta, improves_at=nxt)
    raise NothingToImprove(
        f"slack at period {t} but no admissible move; inputs violate the "
        "maintained frontier ordering")


@dataclass(frozen=True)
class ScanEntry:
    x: Tuple[object, ...]
    x1: Tuple[object, ...]
    payoffs: Tuple[object, ...]


def undominated_scan(f0, f1, beta, horizon: int,
                     x_grid: Sequence, reward_grid: Sequence) -> Tuple[ScanEntry, ...]:
    """Enumerate every incentive-compatible grid mechanism and prune those
    weakly dominated across all point-mass beliefs plus "never".  Exact
    under exact inputs; refuses combinatorially hopeless calls: more than
    ``SCAN_BUDGET`` mechanisms times the horizon is a ConfigError, checked
    before anything is enumerated.

    The result equals, in value, type and order, checking each mechanism
    with :func:`ic_discrete` and scoring it with :func:`payoff_vector` in
    ``itertools.product`` order (flow path outer, reward path inner), then
    stable-sorting by decreasing payoff sum.  Each frontier is read once per
    grid level, and a level off its frontier's domain is dropped there,
    since every mechanism holding it has a NEG_INF coordinate.

    *Integers.*  When ``beta = p/q``, every grid level and every frontier
    value read are ints or Fractions, the levels are scaled by their common
    denominator times ``q**horizon`` and the values by theirs times
    ``q**horizon``.  Every delay term, continuation, ``beta x1[s+1]``,
    payoff term and payoff sum is then an exact int, and the incentive
    filter, the sums, the sort and the dominance prune run on ints; the
    kept payoffs become Fractions at the end, each with the power of ``q``
    it is known to carry divided out of both its sides first.  A positive
    scale keeps every comparison and every tie, so the output is unchanged.
    Any other input (a float anywhere) takes the float path: the same code
    on the numbers as given, every operation grouped as in the
    per-mechanism functions, so floats give the same bits too.

    *Backward enumeration.*  For one flow path the delay constraint at
    period ``s`` ties only ``x1[s]`` to ``x1[s+1]``, so the reward levels
    are sorted once and each reward path is chosen from the last period
    back.  Before the last period, the admissible ``x1[s]`` are the sorted
    levels at or above both ``X0[s]`` and ``(1 - beta) x[s] + beta
    x1[s+1]``, a suffix found by bisection; infeasible mechanisms are never
    touched.  The last period's levels at or above ``x[H-1]`` also need the
    stationary tail clause ``x1 >= (1 - beta) x[H-1] + beta x1``, which is
    tested per level: it holds exactly when ``x1 >= x[H-1]``, but in floats
    the rounded right-hand side need not be monotone in the level.  Paths
    grow one period at a time, with no recursion, so a long horizon is no
    deeper than a short one."""
    if not (0 < beta < 1):
        raise ConfigError(f"discount factor must be in (0, 1), got {beta}")
    if horizon < 1:
        raise ConfigError(f"horizon must be at least 1, got {horizon}")
    # with two or more level pairs the count at least doubles each period, so
    # an exponent clipped at log2(SCAN_BUDGET) is over budget already there,
    # and a huge horizon never builds a huge integer
    n_combo = (len(x_grid) * len(reward_grid)) ** min(
        horizon, int(SCAN_BUDGET).bit_length())
    if n_combo * horizon > SCAN_BUDGET:
        raise ConfigError(
            f"scan over budget: {len(x_grid)} flow and {len(reward_grid)} reward "
            f"levels at horizon {horizon:.3g} exceed {SCAN_BUDGET:.3g} mechanism-periods")
    if not n_combo:
        return ()

    # (level, value) of the levels on their frontier's domain, in grid order
    flow = [(u, v) for u, v in zip(x_grid, map(f0.value, x_grid)) if not is_neg_inf(v)]
    reward = [(u, w) for u, w in zip(reward_grid, map(f1.value, reward_grid))
              if not is_neg_inf(w)]
    numbers = [beta] + [e for pair in flow + reward for e in pair]
    exact = all(isinstance(e, (int, Fraction)) for e in numbers)
    if exact:
        p, q = beta.numerator, beta.denominator
        qh = q ** horizon
        lscale = math.lcm(*(u.denominator for u, _ in flow + reward)) * qh
        vscale = math.lcm(*(v.denominator for _, v in flow + reward))
        xs = [int(u * lscale) for u, _ in flow]
        v0 = [int(v * vscale) for _, v in flow]
        rs = [int(u * lscale) for u, _ in reward]
        w1 = [int(w * vscale) for _, w in reward]
        # dividing by q first is exact: a scaled level carries the factor
        # q**horizon, the continuation at period s q**(s + 1), and beta**k
        # (scaled) q**(horizon - k), all with k < horizon and s < horizon
        times_beta = lambda e: e // q * p
        times_1_minus_beta = lambda e: e // q * (q - p)
        powers = [qh]                       # beta**k, times q**horizon
        for _ in range(horizon - 1):
            powers.append(times_beta(powers[-1]))
    else:
        xs, v0 = [u for u, _ in flow], [v for _, v in flow]
        rs, w1 = [u for u, _ in reward], [w for _, w in reward]
        times_beta = lambda e: beta * e
        times_1_minus_beta = lambda e: (1 - beta) * e
        powers = [beta ** k for k in range(horizon)]
    flow_weights = [times_1_minus_beta(b) for b in powers]

    # per level: the delay term (1 - beta) x, beta x1, and each period's
    # discounted frontier term
    delays = [times_1_minus_beta(e) for e in xs]
    nexts = [times_beta(e) for e in rs]
    flow_terms = [[b * v for v in v0] for b in flow_weights[:-1]]
    never_terms = [powers[-1] * v for v in v0]
    reward_terms = [[b * w for w in w1] for b in powers]
    order = sorted(range(len(rs)), key=rs.__getitem__)
    ranked = [rs[j] for j in order]

    periods = range(horizon - 2, -1, -1)
    feasible = []
    for idx in itertools.product(range(len(xs)), repeat=horizon):
        delay = [delays[i] for i in idx]
        x0 = [xs[i] for i in idx]
        for s in periods:
            x0[s] = delay[s] + times_beta(x0[s + 1])
        totals = [0]
        for s in range(horizon - 1):
            totals.append(totals[s] + flow_terms[s][idx[s]])
        never = totals[-1] + never_terms[idx[-1]]
        # reward index paths, grown from the last period back
        tails = [(j,) for j in order[bisect_left(ranked, x0[-1]):]
                 if not rs[j] < delay[-1] + nexts[j]]
        for s in periods:
            lo = bisect_left(ranked, x0[s])
            tails = [(j,) + t for t in tails
                     for j in order[max(lo, bisect_left(ranked, delay[s] + nexts[t[0]])):]]
        for r in tails:
            payoffs = [t + col[j] for t, col, j in zip(totals, reward_terms, r)]
            payoffs.append(never)
            feasible.append((-sum(payoffs), idx, r, payoffs))

    def dominates(a, b) -> bool:
        # weakly above everywhere, hence NaN-free, and strictly somewhere
        return all(map(operator.ge, a, b)) and a != b

    # decreasing payoff sum, ties in product order; (idx, r) is unique, so
    # the payoffs themselves are never compared.  Any dominator has a
    # strictly larger sum, so the kept front stands in for the whole set
    feasible.sort()
    keep = []
    for e in feasible:
        if not any(dominates(o[3], e[3]) for o in keep):
            keep.append(e)
    if exact:
        # payoff k is a multiple of q**(horizon - k) and "never" one of q:
        # dividing that out of both sides first leaves Fraction a smaller
        # gcd to take, and the same value
        factors, denoms = [qh], [vscale]  # their products are all vscale * qh
        for _ in range(horizon - 1):
            factors.append(factors[-1] // q)
            denoms.append(denoms[-1] * q)
        factors.append(q)
        denoms.append(denoms[-1])
    return tuple(
        ScanEntry(x=tuple(flow[i][0] for i in idx),
                  x1=tuple(reward[j][0] for j in r),
                  payoffs=tuple(Fraction(n // f, d)
                                for n, f, d in zip(payoffs, factors, denoms))
                  if exact else tuple(payoffs))
        for _, idx, r, payoffs in keep)
