"""Unemployment-insurance application: primitives to frontiers to schedules.

The agent's flow utility is ``phi(C) = C**a`` from consumption (0 < a < 1)
minus, once employable, a search cost ``kappa(L) = L**b`` (b > 1) for labor
``L`` paid wage ``w``.  The planner prices spending at a shadow value
``shadow`` per unit.  This yields closed-form frontiers:

* pre-breakthrough (no work possible): delivering flow utility ``u`` costs
  consumption ``u**(1/a)``, so ``f0(u) = u - shadow * u**(1/a)``;
* post-breakthrough: ``f1(u) = u + shadow * max_L [ w L - (u + L**b)**(1/a) ]``
  — the planner collects output net of the consumption that compensates the
  promised utility plus the search cost.

``f0`` peaks at ``u0 = (a/shadow)**(a/(1-a))`` with value ``(1-a) * u0``.
Its slope starts at ``f0'(0) = 1``, while ``f1'(0) < 1`` whenever the
agent works, and the two slopes need not meet anywhere on ``[0, u0]`` (at
``a = 0.5, b = 2, w = 1, shadow = 0.5`` they stay at least 0.056 apart).
``u_star = 0`` is then only the fallback of :func:`frontier.u_star`, the
bottom of the domain, not a level where the frontiers share a slope.  At a
high wage ``f1`` already falls at zero (``f1'(0) = -0.353`` at ``a = 0.2588,
b = 2.3211, w = 4.0924, shadow = 0.6737``), and the reward-path solve
fails its bracket.  Solved mechanisms translate into benefit/consumption/
labor schedules via the same closed forms.

``f1`` and its slope both need the inner maximization over labor.  Each
pair built by :func:`build_frontiers` memoizes it per utility level; the
memo is freed with the frontiers, so no state outlives them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence, Tuple

from .deadline import optimize_deadline
from .distribution import BreakthroughDist
from .errors import ConfigError
from .euler import solve as solve_path
from .frontier import ParametricFrontier, TechnologyPair, affine_gap
from .mechanism import Mechanism, mechanism_rows
from .numerics import brent_down

# frontier domain [0, DOMAIN_FACTOR * u0]
DOMAIN_FACTOR = 2.0


@dataclass(frozen=True)
class UiPrimitives:
    """Utility curvature ``a``, search-cost convexity ``b``, wage ``w``,
    and the planner's shadow price of spending."""

    a: float
    b: float
    w: float
    shadow: float

    def __post_init__(self):
        if not 0.0 < self.a < 1.0:
            raise ConfigError(f"need 0 < a < 1, got a={self.a}")
        if not self.b > 1.0:
            raise ConfigError(f"need b > 1, got b={self.b}")
        if not self.w > 0.0:
            raise ConfigError(f"need a positive wage, got w={self.w}")
        if not self.shadow > 0.0:
            raise ConfigError(f"need a positive shadow price, got {self.shadow}")
        try:  # f0 and its slope overflow first at the domain top, where
            # u**(1/a) is 2**(1/a) times the f0 peak consumption c0
            f0, f0_slope = _f0_fns(self.a, self.shadow)
            top = DOMAIN_FACTOR * ui_constants(self).u0
            finite = math.isfinite(f0(top)) and math.isfinite(f0_slope(top))
        except OverflowError:
            finite = False
        if not finite:
            raise ConfigError("the f0 peak utility or its consumption overflows a "
                              "float, or f0 does at the domain top "
                              f"(a={self.a}, shadow={self.shadow})")


def _f0_fns(a: float, lam: float):
    """``f0`` and its slope at shadow price ``lam``."""
    return (lambda u: u - lam * u ** (1.0 / a),
            lambda u: 1.0 - (lam / a) * u ** ((1.0 - a) / a))


def _inner_max(a: float, b: float, w: float, u: float) -> Tuple[float, float]:
    """``argmax_L`` and ``max_L`` of ``w L - (u + L**b)**(1/a)`` for L >= 0.

    The objective is strictly concave with slope ``w`` at L = 0, so the
    maximizer is the unique root of the smooth slope, bracketed by geometric
    growth and located by Brent's method.  A slope that overflows a float
    during that growth, or stays below the wage up to L = 2**200, is a
    :class:`ConfigError`.  Nothing is cached here: ``build_frontiers`` keeps
    a memo per pair.
    """

    def gp(L: float) -> float:
        return w - (b / a) * L ** (b - 1.0) * (u + L ** b) ** ((1.0 - a) / a)

    hi = 1.0
    for _ in range(200):
        try:
            g_hi = gp(hi)
        except OverflowError:
            raise ConfigError(
                f"search-cost slope overflows a float at labor L={hi:g} "
                f"(a={a}, b={b}, w={w}, u={u:g})") from None
        if g_hi < 0.0:
            break
        hi *= 2.0
    else:  # a wage beyond the slope at L = 2**200
        raise ConfigError("search-cost slope never exceeds the wage")
    l_star = brent_down(gp, 0.0, hi, f_lo=w, f_hi=g_hi, tol_x=1e-13 * hi)
    return l_star, w * l_star - (u + l_star ** b) ** (1.0 / a)


@dataclass(frozen=True)
class UiConstants:
    u0: float           # f0 peak utility
    c0: float           # consumption delivering it
    v0: float           # f0 peak value, equals (1 - a) * u0
    eps_linear: float   # curvature budget: bound on f0's deviation from its chord


def ui_constants(p: UiPrimitives) -> UiConstants:
    u0 = (p.a / p.shadow) ** (p.a / (1.0 - p.a))
    c0 = u0 ** (1.0 / p.a)
    v0 = (1.0 - p.a) * u0
    return UiConstants(u0=u0, c0=c0, v0=v0, eps_linear=v0)


def build_frontiers(p: UiPrimitives, r: float) -> TechnologyPair:
    """Technology pair for the primitives, on the domain ``[0, 2 u0]``.

    Both frontiers carry analytic derivatives (the post-breakthrough one by
    the envelope theorem: ``f1'(u) = 1 - (shadow/a) C(u)**(1-a)`` with
    ``C(u)`` the compensating consumption at the optimal labor choice).
    ``f1`` and its derivative read one inner maximization per level from a
    memo that lives as long as the frontiers.
    """
    a, b, w, lam = p.a, p.b, p.w, p.shadow
    u0 = ui_constants(p).u0
    hi = DOMAIN_FACTOR * u0
    memo = {}

    def inner(u: float) -> Tuple[float, float]:
        u = float(u)
        out = memo.get(u)
        if out is None:
            out = memo[u] = _inner_max(a, b, w, u)
        return out

    def f1_fn(u: float) -> float:
        return u + lam * inner(u)[1]

    def f1_dfn(u: float) -> float:
        l_star = inner(u)[0]
        return 1.0 - (lam / a) * (u + l_star ** b) ** ((1.0 - a) / a)

    f0_fn, f0_dfn = _f0_fns(a, lam)
    f0 = ParametricFrontier(fn=f0_fn, u_lo=0.0, u_hi=hi, dfn=f0_dfn)
    f1 = ParametricFrontier(fn=f1_fn, u_lo=0.0, u_hi=hi, dfn=f1_dfn)
    return TechnologyPair.build(f0, f1, r)


@dataclass(frozen=True)
class UiScheduleRow:
    """One sample time of the implemented contract: flow utility and its
    benefit payment, promised post-breakthrough utility and the package
    (consumption, labor, net output) delivering it."""

    t: float
    flow_u: float
    promise_u: float
    benefit: float
    consumption: float
    labor: float
    net_output: float
    identity_err: float


def schedule(p: UiPrimitives, pair: TechnologyPair, m: Mechanism,
             times: Sequence[float]) -> Tuple[UiScheduleRow, ...]:
    """Translate a mechanism into the benefit/consumption/labor schedule at
    the grid points and ``times`` (the rows of :func:`mechanism_rows`).

    The benefit pays the flow utility (``benefit = flow**(1/a)``); on
    disclosure at t the promised utility is the reward value, delivered by
    the optimal post-breakthrough labor and the consumption that compensates
    utility plus search cost.  ``identity_err`` reports how far the package
    is from delivering the promise exactly (should be numerically zero)."""
    rows = []
    for t, x, _, promise in mechanism_rows(m, pair.r, times):
        benefit = x ** (1.0 / p.a)
        labor = _inner_max(p.a, p.b, p.w, promise)[0]
        cons = (promise + labor ** p.b) ** (1.0 / p.a)
        err = cons ** p.a - labor ** p.b - promise
        rows.append(UiScheduleRow(
            t=t, flow_u=x, promise_u=promise, benefit=benefit,
            consumption=cons, labor=labor,
            net_output=p.w * labor - cons, identity_err=err))
    return tuple(rows)


@dataclass(frozen=True)
class SweepRow:
    """Deadline-vs-reward-path comparison at one shadow price.  ``ratio`` is
    the deadline's share of the unrestricted optimum (at most one, approaching
    one as the pre-breakthrough frontier flattens)."""

    shadow: float
    u0: float
    t_deadline: float
    pi_deadline: float
    pi_path: float
    gain: float
    ratio: float
    gap_bound: float
    eps_linear: float


def welfare_sweep(template: UiPrimitives, shadows: Sequence[float],
                  dist: BreakthroughDist, r: float) -> Tuple[SweepRow, ...]:
    """Compare the best deadline against the solved reward path across
    shadow prices.

    Each row carries the payoff gain, the ratio, and the curvature bound
    ``gap_bound`` that must dominate the gain."""
    rows = []
    for shadow in shadows:
        p = replace(template, shadow=float(shadow))
        pair = build_frontiers(p, r)
        consts = ui_constants(p)
        best = optimize_deadline(pair, dist)
        sol = solve_path(pair, dist)
        gain = sol.payoff - best.payoff
        bound = affine_gap(pair.f0, pair.u_star, pair.u0)
        rows.append(SweepRow(
            shadow=float(shadow), u0=consts.u0, t_deadline=best.T,
            pi_deadline=best.payoff, pi_path=sol.payoff, gain=gain,
            ratio=best.payoff / sol.payoff if sol.payoff != 0 else math.inf,
            gap_bound=bound, eps_linear=consts.eps_linear))
    return tuple(rows)
