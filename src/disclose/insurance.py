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
The two slopes never meet.  By the envelope theorem

    f0'(u) - f1'(u) = (shadow/a) [(u + L*^b)**((1-a)/a) - u**((1-a)/a)] > 0

for every ``u >= 0``, because the optimal labor ``L*(u)`` is positive (the
labor objective has slope ``w > 0`` at L = 0).  So ``u_star`` is the bottom
of the domain, 0: a corner, not a level where the frontiers share a slope.
:func:`build_frontiers` sets that corner itself rather than have
:func:`frontier.u_star` read 513 ``f1`` slopes to find no crossing.  At a
high wage ``f1`` already falls at zero (``f1'(0) = -0.353`` at
``a = 0.2588, b = 2.3211, w = 4.0924, shadow = 0.6737``), and the
reward-path solve fails its bracket.  Both slopes invert in closed form,
and each frontier carries its inverse as ``inv_dfn``.  The ``f0`` slope is
``y`` at ``u = (a (1 - y) / shadow)**(a/(1-a))``, so the reward path finds
its levels with no root search.  The ``f1`` slope is ``y`` where, by the
envelope theorem, ``(u + L*^b)**((1-a)/a) = a (1 - y) / shadow``, that is
``u + L*^b`` is the ``f0`` inverse at ``y``; the labor first-order
condition ``w = (1/a) (u + L^b)**((1-a)/a) b L^(b-1)`` then gives
``L*^(b-1) = shadow w / (b (1 - y))``.  So

    u = (a (1 - y) / shadow)**(a/(1-a)) - (shadow w / (b (1 - y)))**(b/(b-1)),

and at ``y = 0`` the two inverses give the peaks ``u0`` and ``u1`` (the
latter clamped to the domain bottom when ``f1`` already falls at 0).
Solved mechanisms translate into benefit/consumption/labor schedules via
the same closed forms.

``f1`` and its slope both need the inner maximization over labor: one
Newton search in log labor on a first-order condition that is increasing
and convex, from a closed-form start at or above the root, so the
iterates fall to it without overshooting it, typically in two to five
reads, each one exp and one log.  :func:`_labor_search` sets up the
search's constants once for the primitives and returns the search over
utility levels; :func:`build_frontiers` makes one per pair and memoizes
``(L*, value, C = u + L*^b)`` per level, so the slope
``1 - (shadow/a) C**((1-a)/a)`` takes no second power of ``L*``.  The
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
from .numerics import EPS2, MAX_ITER

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
        if not 1.0 < self.b < math.inf:
            raise ConfigError(f"need a finite b > 1, got b={self.b}")
        if not 0.0 < self.w < math.inf:
            raise ConfigError(f"need a finite positive wage, got w={self.w}")
        if not self.shadow > 0.0:
            raise ConfigError(f"need a positive shadow price, got {self.shadow}")
        try:  # f0 and its slope overflow first at the domain top, where
            # u**(1/a) is 2**(1/a) times the f0 peak consumption c0
            f0, f0_slope, _ = _f0_fns(self.a, self.shadow)
            top = DOMAIN_FACTOR * ui_constants(self).u0
            finite = math.isfinite(f0(top)) and math.isfinite(f0_slope(top))
        except OverflowError:
            finite = False
        if not finite:
            raise ConfigError("the f0 peak utility or its consumption overflows a "
                              "float, or f0 does at the domain top "
                              f"(a={self.a}, shadow={self.shadow})")
        if top == 0.0:  # the domain [0, 2 u0] would be empty
            raise ConfigError("the f0 peak utility (a/shadow)**(a/(1-a)) underflows "
                              f"to 0 (a={self.a}, shadow={self.shadow})")


def _f0_fns(a: float, lam: float):
    """``f0``, its slope and the slope's inverse at shadow price ``lam``."""
    return (lambda u: u - lam * u ** (1.0 / a),
            lambda u: 1.0 - (lam / a) * u ** ((1.0 - a) / a),
            lambda y: (a / lam * (1.0 - y)) ** (a / (1.0 - a)))


def _labor_search(a: float, b: float, w: float):
    """The labor maximization of the primitives ``a``, ``b``, ``w``, as a
    function of the utility level ``u``: ``u -> (L*, value, C)``, with
    ``L* = argmax_L`` and ``value = max_L`` of ``w L - (u + L**b)**(1/a)``
    for L >= 0, and ``C = u + L*^b``, the utility that consumption
    ``C**(1/a)`` must deliver.

    The objective is strictly concave with slope ``w`` at L = 0, so the
    maximizer is the root of its slope.  With ``k = (1-a)/a``, the slope at
    ``L = e^s`` is negative exactly where

        h(s) = (b-1) s + k log(u + e^(b s)) - c,  c = log a + log w - log b,

    is positive; ``c`` is a sum of logs because ``a w / b`` can underflow.
    ``h`` is increasing and convex, so Newton's method falls monotonically
    to its root from any start where ``h >= 0``.  Without ``u``, or for
    ``u > 0`` without ``e^(b s)``, ``h`` is smaller and linear, with root
    ``c / (b-1+b k)`` or ``(c - k log u) / (b-1)``; the smaller of the two
    is the start, and at ``u = 0`` it is the root.  The search stops at a
    read with ``h <= 0``, at a step that makes no progress, or after a step
    whose size or error bound is at roundoff.  The bound: a step from
    distance ``e`` above the root leaves at most ``(b/2) e**2``, as
    ``h'' = k b**2 q (1 - q)``, ``q = L**b / (u + L**b)``, is at most
    ``b h'``; and ``e <= h/(b-1)``, as ``h' >= b-1``.  An overflow, of
    ``u + e^(b s)`` or of the value at the maximizer, is a
    :class:`ConfigError`.

    The constants that do not depend on ``u`` (``k``, ``b - 1``, ``k b``,
    ``c``, the ``u = 0`` root and ``1/a``) are set up here, once; the
    returned search holds the Newton loop.  Nothing is cached:
    ``build_frontiers`` keeps a memo per pair.
    """
    k = (1.0 - a) / a
    b1, kb = b - 1.0, k * b
    c = math.log(a) + math.log(w) - math.log(b)
    s0 = c / (b1 + kb)
    inv_a = 1.0 / a

    def search(u: float) -> Tuple[float, float, float]:
        s = s0
        try:
            if u > 0.0:
                s = min(s, (c - k * math.log(u)) / b1)
                for _ in range(MAX_ITER):
                    e = math.exp(b * s)
                    v = u + e
                    if v == math.inf:  # neither term overflows, their sum does
                        raise OverflowError
                    h = b1 * s + k * math.log(v) - c
                    if h <= 0.0:  # at the root, or past it by roundoff
                        break
                    step = h / (b1 + kb * e / v)
                    if s - step >= s:
                        break
                    s -= step
                    tol = EPS2 * (-s if s < -1.0 else s if s > 1.0 else 1.0)  # max(1, |s|)
                    dist = h / b1  # bounds the distance the step started from
                    if step <= tol or 0.5 * b * dist * dist <= tol:
                        break
            l_star = math.exp(s)
            owed = u + l_star ** b
            value = w * l_star - owed ** inv_a
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            l_star = math.exp(s) if s <= 709.78 else math.inf  # e**709.79 overflows
            raise ConfigError(
                f"compensating consumption overflows a float at labor L={l_star:g} "
                f"(a={a}, b={b}, w={w}, u={u:g})")
        return l_star, value, owed

    return search


def _inner_max(a: float, b: float, w: float, u: float) -> Tuple[float, float]:
    """``(L*, value)`` of the labor maximization at ``u``, by a
    :func:`_labor_search` built for this one call."""
    return _labor_search(a, b, w)(u)[:2]


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
    ``C(u)`` the compensating consumption at the optimal labor choice) and
    the closed-form inverses of those derivatives, so the peaks ``u0`` and
    ``u1`` need no search.  ``f1`` and its derivative read one labor
    maximization per level, by the pair's one :func:`_labor_search`, from a
    memo of ``(L*, value, u + L*^b)`` that lives as long as the frontiers.
    ``u_star`` is the domain bottom, by proof, not by a scan.
    """
    a, b, w, lam = p.a, p.b, p.w, p.shadow
    u0 = ui_constants(p).u0
    hi = DOMAIN_FACTOR * u0
    search = _labor_search(a, b, w)
    memo = {}

    def inner(u: float) -> Tuple[float, float, float]:
        u = float(u)
        out = memo.get(u)
        if out is None:
            out = memo[u] = search(u)
        return out

    def f1_fn(u: float) -> float:
        return u + lam * inner(u)[1]

    lam_a, k = lam / a, (1.0 - a) / a

    def f1_dfn(u: float) -> float:
        return 1.0 - lam_a * inner(u)[2] ** k

    f0_fn, f0_dfn, f0_inv_dfn = _f0_fns(a, lam)

    def f1_inv_dfn(y: float) -> float:
        # u + L*^b = f0_inv_dfn(y) and L*^(b-1) = shadow w / (b (1-y))
        return f0_inv_dfn(y) - (lam * w / (b * (1.0 - y))) ** (b / (b - 1.0))

    f0 = ParametricFrontier(fn=f0_fn, u_lo=0.0, u_hi=hi, dfn=f0_dfn,
                            inv_dfn=f0_inv_dfn)
    f1 = ParametricFrontier(fn=f1_fn, u_lo=0.0, u_hi=hi, dfn=f1_dfn,
                            inv_dfn=f1_inv_dfn)
    # u_star = 0 without frontier.u_star's scan.  By the envelope theorem
    #   f0'(u) - f1'(u) = (shadow/a) [(u + L*^b)^((1-a)/a) - u^((1-a)/a)],
    # which is > 0 at every u >= 0 since L*(u) > 0 (the labor objective has
    # slope w > 0 at L = 0).  The slopes never meet, so the gap f1 - f0
    # falls from the domain bottom, and its rightmost local maximiser on
    # [0, u0] is the corner u = 0.
    return TechnologyPair(f0=f0, f1=f1, r=r, u0=float(f0.peak[0]),
                          u1=float(f1.peak[0]), u_star=0.0)


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
