"""Deadline mechanisms: reward path, first-order conditions, optimal T.

A deadline mechanism pays the ``f0``-peak flow until time T and the
shared-slope level ``u_star`` afterwards, with the derived reward path

    X_t(T) = (1 - exp(-r (T-t))) u0 + exp(-r (T-t)) u_star    for t <= T,
    X_t(T) = u_star                                           for t >  T.

The deadline payoff is one-sided differentiable in T; the two one-sided
derivatives are ``exp(-rT) (u0 - u_star)`` times simple brackets mixing the
survival weight of the breakthrough time against the ``f1`` slopes at the
atom rewards.  Between two breakthrough atoms ``G(T)`` is flat and every
atom reward ``X_{t_k}(T)`` rises with T, so, ``f1`` being concave, the
right bracket is non-increasing there; it can jump up only at an atom.
When ``f0`` is affine on ``[u_star, u0]`` the right bracket is
non-increasing in T outright (after scaling by ``exp(rT)``), so its sign
changes once and a sign bisection finds the optimum.  The optimizer below
binary-searches a grid for that one change in the affine case.  Otherwise
it binary-searches the grid between each pair of atoms, which locates every
sign change of the bracket atom by atom, bisects each, and keeps the payoff
argmax (with a warning).  Both cases rely on ``f1`` being concave.

Cost: a bracket evaluation reads only the atoms at or before T (O(log m)
to find them, then O(atoms <= T)) and computes no payoff.  The affine case
makes O(log N_SCAN) grid evaluations; any other case two per grid cell
holding an atom plus O(log N_SCAN) per atom-free run of cells whose ends
straddle zero, never more than N_SCAN + 1.  Payoffs are computed for the
candidate deadlines and the never-stop profile only, each O(atoms) on the
two-cell deadline mechanism.
"""

from __future__ import annotations

import bisect as _bisect
import math
from dataclasses import dataclass, field
from typing import Tuple

from .distribution import BreakthroughDist
from .errors import ModelAssumptionError, SolverError
from .frontier import TechnologyPair, affine_gap
from .mechanism import Mechanism, deadline_mechanism, payoff
from .numerics import bisect_bracket, crossing_cells

FOC_TOL = 1e-9
# equal steps of the right-bracket grid on [t_underline, T_hi], searched
# between the atoms where the bracket may jump up (none in the affine case)
N_SCAN = 256
# largest deviation of f0 from its chord on [u_star, u0] that still counts
# as affine
AFFINE_TOL = 1e-9


def t_underline(pair: TechnologyPair) -> float:
    """Shortest deadline whose time-0 reward reaches the ``f1`` peak:
    ``T = -(1/r) log((u0 - u1) / (u0 - u_star))``."""
    u0, u1, ustar = pair.u0, pair.u1, pair.u_star
    if u1 >= u0:
        raise ModelAssumptionError("no conflict of interest: u1 >= u0")
    if u0 <= ustar:
        raise ModelAssumptionError("degenerate pair: f0 peak at the shared-slope level")
    if u1 < ustar:
        raise ModelAssumptionError("u1 below the shared-slope level u_star")
    ratio = (u0 - u1) / (u0 - ustar)
    return -math.log(ratio) / pair.r


def deadline_payoff(pair: TechnologyPair, dist: BreakthroughDist, T: float) -> float:
    """Expected payoff of the deadline-T mechanism (NEG_INF sentinel if some
    reward leaves the ``f1`` domain)."""
    return payoff(deadline_mechanism(pair, T), pair, dist)


@dataclass(frozen=True)
class PiDerivs:
    """One-sided derivatives of the deadline payoff at T, and the raw
    brackets they scale (``pi_side = exp(-rT) (u0 - u_star) * bracket``)."""

    pi: float
    pi_plus: float
    pi_minus: float
    bracket_plus: float
    bracket_minus: float


def _alpha(pair: TechnologyPair) -> float:
    """Chord slope of ``f0`` between ``u_star`` and the peak."""
    u0, ustar = pair.u0, pair.u_star
    v0 = float(pair.f0.value(u0))
    vs = float(pair.f0.value(ustar))
    return (v0 - vs) / (u0 - ustar)


def _brackets(pair: TechnologyPair, dist: BreakthroughDist, T: float,
              alpha: float) -> Tuple[float, float]:
    """``(bracket_plus, bracket_minus)`` at T, without the payoff.

    Only atoms with ``t_k <= T`` enter either sum, so the loop stops at
    ``bisect_right(times, T)``; ``alpha`` is :func:`_alpha` of the pair.
    The rewards lie in ``[u_star, u0]``, where ``f1`` must be defined.
    """
    if not T >= 0:
        raise ModelAssumptionError(f"deadline must be non-negative, got {T}")
    u0, ustar, r = pair.u0, pair.u_star, pair.r
    if pair.f1.u_hi < u0:
        raise ModelAssumptionError(
            f"f1 domain ends at {pair.f1.u_hi}, below the f0 peak u0={u0}")
    f1_derivs = pair.f1.derivs
    times, probs = dist.times, dist.probs

    sum_plus = 0.0
    sum_minus = 0.0
    for k in range(_bisect.bisect_right(times, T)):
        t_k = times[k]
        if t_k < T:  # the reward X_{t_k}(T) inlined: a call per atom costs ~12 % of a solve
            d = math.exp(-r * (T - t_k))
            d_plus, d_minus = f1_derivs((1.0 - d) * u0 + d * ustar)
            sum_plus += probs[k] * d_plus
            sum_minus += probs[k] * d_minus
        else:  # the atom at T is rewarded u_star and enters the right sum only
            d_plus, _ = f1_derivs(ustar)
            sum_plus += probs[k] * d_plus

    return ((1.0 - dist.cdf(T)) * alpha + sum_plus,
            (1.0 - dist.cdf_left(T)) * alpha + sum_minus)


def pi_and_derivs(pair: TechnologyPair, dist: BreakthroughDist, T: float) -> PiDerivs:
    """Deadline payoff and its one-sided T-derivatives.

    Right derivative:  ``[1 - G(T)] alpha + sum_{t_k <= T} p_k f1'(X_{t_k}+)``
    Left derivative:   ``[1 - G(T-)] alpha + sum_{t_k < T} p_k f1'(X_{t_k}-)``
    each multiplied by ``exp(-rT) (u0 - u_star)``.
    """
    bracket_plus, bracket_minus = _brackets(pair, dist, T, _alpha(pair))
    scale = math.exp(-pair.r * T) * (pair.u0 - pair.u_star)
    return PiDerivs(pi=deadline_payoff(pair, dist, T),
                    pi_plus=scale * bracket_plus, pi_minus=scale * bracket_minus,
                    bracket_plus=bracket_plus, bracket_minus=bracket_minus)


@dataclass(frozen=True)
class FocReport:
    alpha: float
    pi_plus: float
    pi_minus: float
    satisfied: bool
    tol: float = FOC_TOL


def foc_check(pair: TechnologyPair, dist: BreakthroughDist, T: float,
              *, tol: float = FOC_TOL) -> FocReport:
    """First-order optimality at T: right derivative <= tol and left
    derivative >= -tol (the left clause is vacuous at T = 0).  The
    derivatives are those of :func:`pi_and_derivs`, without its payoff."""
    alpha = _alpha(pair)
    bracket_plus, bracket_minus = _brackets(pair, dist, T, alpha)
    scale = math.exp(-pair.r * T) * (pair.u0 - pair.u_star)
    pi_plus, pi_minus = scale * bracket_plus, scale * bracket_minus
    ok_minus = True if T == 0.0 else pi_minus >= -tol
    return FocReport(alpha=alpha, pi_plus=pi_plus, pi_minus=pi_minus,
                     satisfied=pi_plus <= tol and ok_minus, tol=tol)


@dataclass(frozen=True)
class OptimalDeadline:
    T: float
    payoff: float
    mechanism: Mechanism
    foc: FocReport
    t_underline: float
    warnings: Tuple[str, ...] = field(default=())


def optimize_deadline(pair: TechnologyPair, dist: BreakthroughDist,
                      *, tol: float = FOC_TOL) -> OptimalDeadline:
    """Best deadline at or above the participation threshold.

    :func:`numerics.crossing_cells` finds where the right bracket crosses
    from >= 0 to < 0 on an ``N_SCAN``-step grid over ``[t_underline, T_hi]``
    (T_hi doubled until the bracket is negative); each such cell is
    bisected, and the payoff argmax over the crossing roots plus the
    threshold itself is returned.  In the affine case the bracket crosses
    once, so the grid is binary-searched: the textbook bisection.  Otherwise
    the bracket is non-increasing between atoms, so the cells holding an
    atom are tested directly and each atom-free run of cells is
    binary-searched; this isolates every stationary point the full grid
    would, and a warning is attached.  Both searches rely on ``f1`` being
    concave.  Only the candidates and the
    never-stop profile cost a payoff; the final :func:`foc_check` reads
    brackets.
    """
    t_lo = t_underline(pair)  # first: it rejects the pairs _alpha cannot divide by
    alpha = _alpha(pair)
    warnings = []
    u0, ustar = pair.u0, pair.u_star
    curved = affine_gap(pair.f0, ustar, u0, step=(u0 - ustar) / 257) > AFFINE_TOL
    if curved:
        warnings.append("f0 is not affine between u_star and its peak; "
                        "using stationary-point scan with payoff argmax")

    def bracket_plus(T: float) -> float:
        return _brackets(pair, dist, T, alpha)[0]

    t_hi = max(2.0 * t_lo, t_lo + max(1.0 / pair.r, 1.0))
    for _ in range(80):
        if bracket_plus(t_hi) < 0.0:
            break
        t_hi = t_lo + 2.0 * (t_hi - t_lo)
    else:
        raise SolverError("right payoff derivative never turns negative")

    _, _, cells = crossing_cells(bracket_plus, t_lo, t_hi, N_SCAN,
                                 rises=dist.times if curved else ())
    candidates = [t_lo]
    for ta, ba, tb, bb in cells:
        lo, b_lo, hi, _ = bisect_bracket(bracket_plus, ta, tb, f_lo=ba,
                                         f_hi=bb, tol_x=1e-13)
        # pick the endpoint where the first-order sandwich holds: at a
        # smooth crossing the left endpoint's bracket is a hair above
        # zero (within tol), so keep it; a bracket that jumps across a
        # kink stays far from zero on the left, and only the right
        # endpoint sees both one-sided slopes of the kink
        candidates.append(lo if b_lo <= tol else hi)

    best_t, best_pi = None, -math.inf
    for t in candidates:
        p = deadline_payoff(pair, dist, t)
        if isinstance(p, float) and p > best_pi:
            best_t, best_pi = t, p
    if best_t is None:
        raise SolverError("no feasible deadline candidate")

    # an unbounded deadline is never optimal under the maintained assumptions;
    # flag the anomaly rather than returning it if the numbers disagree
    pi_inf = payoff(deadline_mechanism(pair, math.inf), pair, dist)
    if isinstance(pi_inf, float) and pi_inf > best_pi + tol:
        warnings.append("payoff of the never-stop profile exceeds every finite "
                        "candidate; model assumptions are suspect")

    return OptimalDeadline(T=best_t, payoff=best_pi,
                           mechanism=deadline_mechanism(pair, best_t),
                           foc=foc_check(pair, dist, best_t, tol=tol),
                           t_underline=t_lo, warnings=tuple(warnings))
