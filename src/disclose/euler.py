"""Optimal reward paths in the strictly concave ("simple") case.

With a smooth, strictly concave pair the optimal mechanism is no longer a
deadline: the flow path holds the ``f0`` peak until the first breakthrough
atom and then steps down cell by cell.  The levels satisfy a backward
recursion tying each cell's marginal flow value to the expected marginal
reward value over later breakthrough times, pinned down by the terminal
level ``lam``:

    x_{t_K} = X_{t_K} = lam
    x_{t_k} = invd0( E[ d1(X_tau) | tau > t_k ] )
    X_{t_k} = (1 - exp(-r D)) x_{t_k} + exp(-r D) X_{t_{k+1}},  D = t_{k+1}-t_k

where ``d0``/``d1`` are the frontier derivatives and ``invd0`` inverts
``d0`` on ``[u_star, u0]``.  The scalar residual

    psi(lam) = E[ d1(X_tau^lam) ]

is decreasing with psi(u_star) = d0(u_star) >= 0 >= d1(u0) = psi(u0), so a
bracketed root in ``lam`` closes the system: :func:`solve` runs one root
search on ``[u_star, u0]``, by Brent's method when both frontiers are
parametric (``psi`` is smooth) and by bisection when either is piecewise
(``psi`` is then a step function).

Each ``psi`` evaluation is one backward pass.  The pass is kept lean: one
:func:`inv_deriv_f0` call per atom, which asks ``f0`` for the level of
that slope on the band with one ``level_at_slope`` call, whatever its kind
(the band-end clamps included; a closed form for the insurance ``f0``,
Brent's method for another parametric one, the breakpoints of a piecewise
one with no root finder); slopes read straight from ``dfn`` for a
parametric frontier; and the discount factors ``exp(-r D)`` computed once
per solve.  :func:`solve` keeps the passes of its search, so the path at
the chosen root costs no further pass.  Its first pass, at
``lam = u_star``, clamps: ``frontier.u_star`` lies where ``f1' >= f0'``,
and every continuation value of that pass is ``u_star`` up to roundoff, so
each target slope is at or above the ``f0`` slope at ``u_star`` and every
level is ``u_star``, with no inversion inside the band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Optional, Tuple

from .distribution import BreakthroughDist, order_checks, OrderReport
from .errors import AtomAtZero, BracketFailure, NotSimple
from .frontier import (ParametricFrontier, TechnologyPair, is_neg_inf, slope,
                       slope_reader)
from .mechanism import Mechanism, mechanism_rows, payoff
from .numerics import bisect_down, brent_down

# |psi| at which the bisection of a piecewise pair's psi stops early
PSI_TOL = 1e-10
LAM_TOL = 1e-12
# points of the second-difference concavity grid on [u_star, u0]
SIMPLE_GRID = 201
# pointwise tolerance of the comparative-statics check
STATICS_TOL = 1e-9


def simple_reasons(pair: TechnologyPair) -> Tuple[str, ...]:
    """Why the pair falls outside the strictly-concave class (empty = simple).

    Checks, on the band ``[u_star, u0]``: strictly negative second
    differences of both frontiers (kinks and flat pieces fail this) and
    finite one-sided slopes at the band endpoints.  No check depends on
    where the utility axis starts, so a pair translated in ``u`` classifies
    the same.
    """
    ustar, u0 = pair.u_star, pair.u0
    if not u0 > ustar:
        return (f"empty band: u0={u0} <= u_star={ustar}",)

    reasons = []
    h = (u0 - ustar) / (SIMPLE_GRID - 1)
    for name, f in (("f0", pair.f0), ("f1", pair.f1)):
        vals = []
        for i in range(SIMPLE_GRID):
            v = f.value(ustar + h * i)
            if is_neg_inf(v):
                reasons.append(f"{name} undefined inside [u_star, u0] at u={ustar + h * i}")
                break
            vals.append(float(v))
        if len(vals) < SIMPLE_GRID:
            continue
        worst = max(vals[i + 1] - 2.0 * vals[i] + vals[i - 1]
                    for i in range(1, SIMPLE_GRID - 1))
        if not worst < -1e-9:
            reasons.append(
                f"{name} is not strictly concave on [u_star, u0] "
                f"(max second difference {worst:.3e})")
        for u in (ustar, u0):
            try:
                slope(f, u)
            except NotSimple:
                reasons.append(f"{name} has no finite slope at u={u}")
    return tuple(reasons)


def inv_deriv_f0(pair: TechnologyPair, y: float) -> float:
    """Invert the ``f0`` slope on ``[u_star, u0]``, clamping outside.

    The slope is strictly decreasing there.  The bound ``level_at_slope``,
    the band and its two end slopes are read once per pair, as the one
    tuple ``pair.f0_band``; the inversion applies the clamps (targets at
    or above the slope at ``u_star`` give ``u_star``, targets at or below
    the slope at the peak give ``u0``) and inverts inside: for a parametric
    ``f0`` off its closed-form inverse when it carries one, else by Brent's
    method to ``1e-13`` of the band; for a piecewise ``f0`` the breakpoint
    where the target falls between two segment slopes, with no root finder
    (a target equal to a segment slope goes to that segment's right end).
    """
    at_slope, lo, hi, top, bottom = pair.f0_band
    return float(at_slope(y, lo, hi, top, bottom))


def _discounts(pair: TechnologyPair, dist: BreakthroughDist) -> Tuple[float, ...]:
    """``exp(-r (t_{k+1} - t_k))`` between consecutive atoms, the factors
    every backward pass of one solve shares."""
    times, r = dist.times, pair.r
    return tuple(math.exp(-r * (t1 - t0)) for t0, t1 in zip(times, times[1:]))


def backward_pass(pair: TechnologyPair, dist: BreakthroughDist, lam: float,
                  disc: Tuple[float, ...]
                  ) -> Tuple[Tuple[float, ...], Tuple[float, ...], Tuple[float, ...]]:
    """Flow levels, continuation values and ``f1`` slope terms at the
    breakthrough atoms for a trial terminal level ``lam``.  Returns
    ``(levels, conts, terms)``, one entry per atom, with
    ``terms[k] = p_k * f1'(conts[k])``; ``levels[-1] == conts[-1] == lam``.

    ``disc`` is the pair's :func:`_discounts` table for ``dist``.  Each
    level is one :func:`inv_deriv_f0` call, and each ``f1`` slope is read
    through :func:`slope`, for a parametric ``f1`` straight from ``dfn``
    (where :func:`slope` returns exactly ``dfn(u)``).  For ``lam`` in
    ``[u_star, u0]`` that read needs no finiteness check: every
    continuation value is then a convex combination of levels in the band,
    :func:`simple_reasons` has checked a finite slope at both band ends,
    and concavity keeps every slope inside the band between those two."""
    times, probs = dist.times, dist.probs
    if times[0] <= 0.0:
        raise AtomAtZero(
            "breakthrough mass at t=0 leaves no pre-atom cell to optimize")
    f1 = pair.f1
    d1 = f1.dfn if isinstance(f1, ParametricFrontier) else partial(slope, f1)
    k_n = len(times)
    x = [0.0] * k_n
    cx = [0.0] * k_n
    terms = [0.0] * k_n
    x[-1] = cx[-1] = c = float(lam)
    tail_sum = terms[-1] = probs[-1] * d1(c)
    tail_mass = probs[-1]
    for k in range(k_n - 2, -1, -1):
        x[k] = level = inv_deriv_f0(pair, tail_sum / tail_mass)
        d = disc[k]
        cx[k] = c = (1.0 - d) * level + d * c
        terms[k] = term = probs[k] * d1(c)
        tail_sum += term
        tail_mass += probs[k]
    return tuple(x), tuple(cx), tuple(terms)


def psi(pair: TechnologyPair, dist: BreakthroughDist, lam: float) -> float:
    """Expected ``f1`` slope at the atom continuation values — the scalar
    whose root in ``lam`` closes the backward recursion; the slope terms
    come from :func:`backward_pass`."""
    return math.fsum(backward_pass(pair, dist, lam, _discounts(pair, dist))[2])


@dataclass(frozen=True)
class EulerSolution:
    """Solved reward path: atom times, flow levels and continuation values
    per atom cell, the terminal level and its residual, the assembled step
    mechanism (peak flow before the first atom), and its expected payoff.
    ``extra_roots`` lists the other candidate roots: band ends where the
    residual is already <= 0 (bottom) or >= 0 (top) that lost the payoff
    argmax (normally empty)."""

    times: Tuple[float, ...]
    levels: Tuple[float, ...]
    conts: Tuple[float, ...]
    lam: float
    psi: float
    mechanism: Mechanism
    payoff: float
    extra_roots: Tuple[float, ...]


def solve(pair: TechnologyPair, dist: BreakthroughDist) -> EulerSolution:
    """Solve for the optimal reward path of a simple pair; any other pair
    raises ``NotSimple`` carrying its :func:`simple_reasons`.

    ``psi`` decreases on ``[u_star, u0]``, so one bracketed search there
    finds its root; ``u_star`` is a root too if ``psi`` is already <= 0
    there, and ``u0`` if it is still >= 0 there, and the best payoff wins.
    A ``psi`` that is negative at ``u_star`` or positive at ``u0`` beyond
    1e-9 means the theoretical bracket failed, which is reported rather
    than papered over.

    When both frontiers are parametric, ``psi`` is smooth and Brent's method
    finds the root to ``LAM_TOL``.  Otherwise ``psi`` is a step function and
    bisection finds it, stopping early at ``|psi| <= PSI_TOL``.

    Every backward pass shares one :func:`_discounts` table, and each pass
    the search makes is kept: a root the search evaluated reuses its pass
    (a bisection's final midpoint, which it never evaluates, costs one).
    """
    reasons = simple_reasons(pair)
    if reasons:
        raise NotSimple(reasons)
    ustar, u0 = pair.u_star, pair.u0
    disc = _discounts(pair, dist)
    passes = {}

    def f(lam: float) -> float:
        passes[lam] = p = backward_pass(pair, dist, lam, disc)
        return math.fsum(p[2])

    psi_lo, psi_hi = f(ustar), f(u0)
    if psi_lo < -1e-9:
        raise BracketFailure(
            f"psi(u_star)={psi_lo:.3e} < 0; expected >= 0 at the bottom level")
    if psi_hi > 1e-9:
        raise BracketFailure(
            f"psi(u0)={psi_hi:.3e} > 0; expected <= 0 at the peak level")

    roots = [ustar] if psi_lo <= 0.0 else []
    if psi_lo >= 0.0 > psi_hi:
        if (isinstance(pair.f0, ParametricFrontier)
                and isinstance(pair.f1, ParametricFrontier)):
            roots.append(brent_down(f, ustar, u0, f_lo=psi_lo, f_hi=psi_hi,
                                    tol_x=LAM_TOL))
        else:
            roots.append(bisect_down(f, ustar, u0, f_lo=psi_lo, f_hi=psi_hi,
                                     tol_x=LAM_TOL, tol_f=PSI_TOL))
    if psi_hi >= 0.0:
        roots.append(u0)
    if not roots:
        raise BracketFailure("no psi root located on [u_star, u0]")

    best = None
    for lam in roots:
        levels, conts, terms = passes.get(lam) or backward_pass(pair, dist, lam, disc)
        mech = Mechanism(grid=(0.0,) + dist.times,
                         levels=(pair.u0,) + levels)
        val = payoff(mech, pair, dist)
        if not isinstance(val, float):
            continue
        if best is None or val > best[0]:
            best = (val, lam, levels, conts, terms, mech)
    if best is None:
        raise BracketFailure("every psi root produced an off-domain payoff")

    val, lam, levels, conts, terms, mech = best
    return EulerSolution(times=dist.times, levels=levels, conts=conts,
                         lam=lam, psi=math.fsum(terms), mechanism=mech, payoff=val,
                         extra_roots=tuple(r for r in roots if r != lam))


def euler_residuals(pair: TechnologyPair, dist: BreakthroughDist,
                    levels, conts) -> Tuple[float, ...]:
    """Per-atom stationarity residuals of a candidate path.

    Cell k is stationary when the survival-weighted flow slope balances the
    cumulated reward slopes:

        R_k = [1 - G(t_k)] d0(x_k) + sum_{j <= k} p_j d1(X_j)

    Levels and continuation values enter independently (no recomputation of
    one from the other), so the residuals detect inconsistent inputs; at the
    solved path ``max |R_k|`` is at numerical zero and ``R_K`` equals the
    terminal residual ``psi``.

    Slopes are read through :func:`frontier.slope_reader` (``dfn`` directly
    at an in-domain level of a parametric frontier, the value :func:`slope`
    returns there; an off-domain level raises :class:`NotSimple`), and
    ``G(t_k)`` is atom ``k``'s exact prefix sum ``dist.mass(0, k + 1)``,
    the value ``dist.cdf(t_k)`` returns, with no search over the times.
    """
    d0, d1 = slope_reader(pair.f0), slope_reader(pair.f1)
    mass = dist.mass
    out = []
    running = 0.0
    for k, (p_k, x_k, c_k) in enumerate(zip(dist.probs, levels, conts)):
        running += p_k * d1(c_k)
        out.append((1.0 - mass(0, k + 1)) * d0(x_k) + running)
    return tuple(out)


@dataclass(frozen=True)
class ComparativeStatics:
    """Pointwise comparison of two solved reward paths.

    ``ok`` means the path under the first (stochastically later) law stays
    weakly above the path under the second at every time."""

    order: OrderReport
    ok: bool
    max_violation: float
    witness: Optional[float]


def comparative_statics_check(pair: TechnologyPair, dist: BreakthroughDist,
                              dist_dag: BreakthroughDist) -> ComparativeStatics:
    """Solve under both laws and check the continuation profile under
    ``dist`` dominates the one under ``dist_dag`` pointwise (the predicted
    direction when ``dist`` likelihood-ratio dominates ``dist_dag``).

    Between consecutive points of the two grids each continuation value is
    ``l + exp(r (t - b)) (X_b - l)``, so the gap of the two paths is
    ``alpha + beta exp(r t)``, monotone, and after the last point it is
    constant: its supremum lies on the union of the grids, where both
    paths are read.  ``witness`` is the earliest time of the largest gap."""
    order = order_checks(dist, dist_dag)
    m, m_dag = solve(pair, dist).mechanism, solve(pair, dist_dag).mechanism
    rows = mechanism_rows(m, pair.r, m_dag.grid)
    rows_dag = mechanism_rows(m_dag, pair.r, m.grid)
    worst, neg_t = max((x_dag - x, -t) for (t, _, x, _), (_, _, x_dag, _)
                       in zip(rows, rows_dag))
    ok = worst <= STATICS_TOL
    return ComparativeStatics(order=order, ok=ok, max_violation=worst,
                              witness=None if ok else -neg_t)
