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
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .errors import ConfigError, NothingToImprove
from .frontier import NEG_INF, is_neg_inf

# most grid mechanisms undominated_scan will enumerate
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
    (non-disclosure before delay, matching the continuous-time checker)."""
    x0 = continuation(m)
    slacks = delay_slacks(m)
    for s in range(m.horizon):
        if m.x1[s] < x0[s]:
            return DiscreteIcReport(ok=False, period=s, clause="non_disclosure")
        if slacks[s] < 0:
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
    """Enumerate every grid mechanism, keep the incentive-compatible ones,
    and prune those weakly dominated across all point-mass beliefs plus
    "never".  Exact under exact inputs; refuses combinatorially hopeless
    calls: more than ``SCAN_BUDGET`` mechanisms is a ConfigError."""
    if horizon < 1:
        raise ConfigError(f"horizon must be at least 1, got {horizon}")
    n_combo = (len(x_grid) * len(reward_grid)) ** horizon
    if n_combo > SCAN_BUDGET:
        raise ConfigError(
            f"scan would enumerate {n_combo:.3g} mechanisms (budget {SCAN_BUDGET:.3g})")

    feasible = []
    for x in itertools.product(x_grid, repeat=horizon):
        for x1 in itertools.product(reward_grid, repeat=horizon):
            m = DiscreteMechanism(beta, x, x1)
            if not ic_discrete(m).ok:
                continue
            pv = payoff_vector(m, f0, f1)
            if any(is_neg_inf(v) for v in pv):
                continue
            feasible.append(ScanEntry(x=m.x, x1=m.x1, payoffs=pv))

    def dominates(a: ScanEntry, b: ScanEntry) -> bool:
        ge = all(pa >= pb for pa, pb in zip(a.payoffs, b.payoffs))
        return ge and any(pa > pb for pa, pb in zip(a.payoffs, b.payoffs))

    # any dominator has a strictly larger payoff sum, so scanning in
    # decreasing-sum order lets the kept front stand in for the whole set
    feasible.sort(key=lambda e: sum(e.payoffs), reverse=True)
    keep = []
    for e in feasible:
        if not any(dominates(o, e) for o in keep):
            keep.append(e)
    return tuple(keep)
