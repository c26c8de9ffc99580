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
right bracket is non-increasing there.  At atom k it jumps by exactly
``J_k = p_k (f1'(u_star+) - alpha)``: the atom's survival weight ``alpha``
gives way to the slope at its reward ``u_star``.  The optimizer runs a
branch and bound over the atoms on this structure.  On an interval
between two points already read, the bracket can rise above its value at
the left end, or fall below its left limit at the right end, by at most
the sum of the positive jumps at the atoms inside.  An interval where
these bounds keep it on one side of zero holds no stationary point and is
dropped; the others are split at their middle atom, and an atom-free
piece whose ends straddle zero is solved for its root.  With a parametric
``f1`` the bracket is smooth on such a piece ``(t_i, t_j)``, and Brent's
method finds the root in the discount factor ``z = exp(-r (T - t_i))``,
in which every atom reward is affine.  A piecewise ``f1`` makes it a
step function there, which changes only at the kink events
``t_k + _deadline_for(pair, b)``, where the reward ``X_{t_k}(T)`` of an
atom ``t_k`` before the piece reaches an ``f1`` breakpoint ``b`` in
``(u_star, u0)``; a binary search over the events of the piece, reading
the bracket between them, returns the event where it turns negative.
This finds every stationary point, at an atom, a kink event or between
two atoms, and the payoff argmax over them is the best deadline.  When
``f0`` is affine on ``[u_star, u0]`` no jump is positive, and the search
is one binary search over the atoms.

Cost: a bracket evaluation reads only the atoms at or before T, returns
both one-sided brackets and computes no payoff.  With a parametric ``f1``
it reads one slope per such atom, O(atoms <= T).  With a piecewise one the
atoms before T fall into runs whose rewards share an ``f1`` segment or
kink, found by ``bisect``, each adding its mass times its slope: O(band
breakpoints * log m), whatever the number of atoms.  The affine case makes
O(log m) of them at atoms; a curved ``f0`` one per split atom, as many as
the pruning leaves.  A crossing piece adds O(log(events in the piece))
with a piecewise ``f1`` (finding the events costs two ``bisect`` calls per
``f1`` breakpoint and no bracket), and a few by Brent's method, to 1e-13
in T, with a parametric one.  In the discount factor that takes 6.6
evaluations per crossing on seeded ui-sweep pairs with 32 atoms, where a
search in T, on a bracket flattening like ``exp(-r T)``, took 9.6; an
insurance pair with 32 atoms makes 11 evaluations in all.  The affinity
test reads ``f0`` at its breakpoints, or solves one smooth root, and no
bracket.  Payoffs are computed for the candidate deadlines and the
never-stop profile only, each O(atoms) on the two-cell deadline
mechanism.
"""

from __future__ import annotations

import bisect as _bisect
import math
from dataclasses import dataclass
from typing import Tuple

from .distribution import BreakthroughDist
from .errors import ConfigError, ModelAssumptionError, SolverError
from .frontier import (ParametricFrontier, PiecewiseFrontier, TechnologyPair,
                       affine_gap)
from .mechanism import Mechanism, continuation_value, payoff
from .numerics import brent_down

FOC_TOL = 1e-9
# largest deviation of f0 from its chord on [u_star, u0] that still counts
# as affine
AFFINE_TOL = 1e-9


def deadline_mechanism(pair: TechnologyPair, T: float) -> Mechanism:
    """The deadline profile: flow at the ``f0`` peak until ``T``, at the
    shared-slope level afterwards, with the DERIVED reward."""
    u0, ustar = pair.u0, pair.u_star
    if T == math.inf:
        return Mechanism(grid=(0.0,), levels=(u0,))
    if T < 0:
        raise ConfigError(f"deadline must be non-negative, got {T}")
    if T == 0.0:
        return Mechanism(grid=(0.0,), levels=(ustar,))
    return Mechanism(grid=(0.0, float(T)), levels=(u0, ustar))


def _deadline_for(pair: TechnologyPair, x: float) -> float:
    """The deadline whose time-0 reward ``X_0(T)`` is ``x``, for ``x`` in
    ``[u_star, u0)``: ``T = -(1/r) log((u0 - x) / (u0 - u_star))``, never
    -0.0 (adding 0.0 turns it into 0.0 and keeps every other float)."""
    return -math.log((pair.u0 - x) / (pair.u0 - pair.u_star)) / pair.r + 0.0


def t_underline(pair: TechnologyPair) -> float:
    """Shortest deadline whose time-0 reward reaches the ``f1`` peak ``u1``,
    by the inverse :func:`front_load` shares."""
    u0, u1, ustar = pair.u0, pair.u1, pair.u_star
    if u1 >= u0:
        raise ModelAssumptionError("no conflict of interest: u1 >= u0")
    if u0 <= ustar:
        raise ModelAssumptionError("degenerate pair: f0 peak at the shared-slope level")
    if u1 < ustar:
        raise ModelAssumptionError("u1 below the shared-slope level u_star")
    return _deadline_for(pair, u1)


@dataclass(frozen=True)
class FrontLoadResult:
    T: float
    mechanism: Mechanism


def front_load(m: Mechanism, pair: TechnologyPair) -> FrontLoadResult:
    """The deadline mechanism whose time-0 continuation value matches
    ``max(X_0, u_star)`` of ``m``.

    Solving ``(1 - exp(-rT)) u0 + exp(-rT) u_star = X0`` for T is exact, by
    the inverse :func:`t_underline` shares; a mechanism whose X0 exceeds the
    ``f0`` peak is refused (cap its flows at the peak first — that is always
    weakly improving)."""
    u0 = pair.u0
    x0 = continuation_value(m, pair.r, 0.0)
    if x0 > u0 + 1e-9:
        raise ModelAssumptionError(
            f"initial continuation value {x0} exceeds the f0 peak {u0}; "
            "cap the flow levels first")
    target = max(x0, pair.u_star)
    T = math.inf if target >= u0 else _deadline_for(pair, target)
    return FrontLoadResult(T=T, mechanism=deadline_mechanism(pair, T))


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

    Only atoms with ``t_k <= T`` enter either sum; ``alpha`` is
    :func:`_alpha` of the pair.  The rewards lie in ``[u_star, u0]``, where
    ``f1`` must be defined.  A parametric ``f1`` is read at each atom, up
    to ``bisect_right(times, T)``.  A piecewise one has one slope per
    segment, so :func:`_run_sums` adds each sum up run by run of atoms, in
    O(band breakpoints * log m).
    """
    if not T >= 0:
        raise ModelAssumptionError(f"deadline must be non-negative, got {T}")
    u0, ustar, r = pair.u0, pair.u_star, pair.r
    f1 = pair.f1
    if f1.u_hi < u0:
        raise ModelAssumptionError(
            f"f1 domain ends at {f1.u_hi}, below the f0 peak u0={u0}")

    if isinstance(f1, PiecewiseFrontier):
        sum_plus, sum_minus = _run_sums(pair, dist, T)
    else:
        f1_derivs = f1.derivs
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


def _run_sums(pair: TechnologyPair, dist: BreakthroughDist,
              T: float) -> Tuple[float, float]:
    """``(sum_plus, sum_minus)`` of the brackets at T for a piecewise ``f1``,
    ``sum_{t_k <= T} p_k f1'(X_{t_k}+)`` and ``sum_{t_k < T} p_k f1'(X_{t_k}-)``.

    The reward ``X_k = (1 - d) u0 + d u_star``, ``d = exp(-r (T - t_k))``,
    does not rise with k on the atoms before T, so :meth:`PiecewiseFrontier.rank`
    of it does not either, and the atoms of one rank, which share their
    one-sided slopes, are a run of consecutive indices.  Each run's end is
    found by ``bisect`` on the rank of the reward, by the expression that
    :func:`_brackets` evaluates per atom for a parametric ``f1``, and adds
    its mass (:meth:`BreakthroughDist.mass`, correctly rounded) times its
    slopes to the sums: on a breakpoint, within ``KINK_SNAP``, the right
    segment's slope in the right sum and the left segment's in the left
    one, with ``-inf`` right of ``f1``'s last breakpoint and ``+inf`` left
    of its first, as :meth:`PiecewiseFrontier.derivs` gives them.
    The atom at T, if any, is rewarded ``u_star`` and enters the right sum
    only.  Roundoff can lift ``X_k`` an ulp above ``X_{k-1}``; that moves
    an atom across a run end only when the two rewards straddle a
    breakpoint's snap edge within an ulp.
    """
    rank, sides = pair.f1.rank, pair.f1.rank_sides
    u0, ustar, r = pair.u0, pair.u_star, pair.r
    times, exp = dist.times, math.exp

    def x_rank(k: int) -> int:  # negated, so that it rises with k
        d = exp(-r * (T - times[k]))
        return -rank((1.0 - d) * u0 + d * ustar)

    n_before = _bisect.bisect_left(times, T)
    sum_plus = sum_minus = 0.0
    i = 0
    while i < n_before:
        key = x_rank(i)
        j = _bisect.bisect_right(range(n_before), key, lo=i + 1, key=x_rank)
        mass = dist.mass(i, j)
        d_plus, d_minus = sides[1 - key]
        sum_plus += mass * d_plus
        sum_minus += mass * d_minus
        i = j
    if n_before < len(times) and times[n_before] == T:
        sum_plus += dist.probs[n_before] * sides[rank(ustar) + 1][0]
    return sum_plus, sum_minus


def _derivs(pair: TechnologyPair, dist: BreakthroughDist, T: float,
            alpha: float) -> Tuple[float, float, float, float]:
    """``(pi_plus, pi_minus, bracket_plus, bracket_minus)`` at T: each
    one-sided derivative is ``exp(-rT) (u0 - u_star)`` times its bracket."""
    brackets = _brackets(pair, dist, T, alpha)
    scale = math.exp(-pair.r * T) * (pair.u0 - pair.u_star)
    return (scale * brackets[0], scale * brackets[1], *brackets)


def pi_and_derivs(pair: TechnologyPair, dist: BreakthroughDist, T: float) -> PiDerivs:
    """Deadline payoff and its one-sided T-derivatives.

    Right derivative:  ``[1 - G(T)] alpha + sum_{t_k <= T} p_k f1'(X_{t_k}+)``
    Left derivative:   ``[1 - G(T-)] alpha + sum_{t_k < T} p_k f1'(X_{t_k}-)``
    each multiplied by ``exp(-rT) (u0 - u_star)``.
    """
    derivs = _derivs(pair, dist, T, _alpha(pair))
    return PiDerivs(deadline_payoff(pair, dist, T), *derivs)


@dataclass(frozen=True)
class FocReport:
    alpha: float
    pi_plus: float
    pi_minus: float
    satisfied: bool
    tol: float


def foc_check(pair: TechnologyPair, dist: BreakthroughDist, T: float,
              *, tol: float) -> FocReport:
    """First-order optimality at T: right derivative <= tol and left
    derivative >= -tol (the left clause is vacuous at T = 0).  The
    derivatives are those of :func:`pi_and_derivs`, without its payoff."""
    alpha = _alpha(pair)
    pi_plus, pi_minus = _derivs(pair, dist, T, alpha)[:2]
    ok_minus = True if T == 0.0 else pi_minus >= -tol
    return FocReport(alpha=alpha, pi_plus=pi_plus, pi_minus=pi_minus,
                     satisfied=pi_plus <= tol and ok_minus, tol=tol)


def _kink_crossing(right, times, lags, lo: float, hi: float) -> float:
    """The kink event where the right bracket ``right`` of a piecewise
    ``f1`` turns negative on the atom-free piece ``(lo, hi)``.

    The events are ``t_k + lag`` strictly inside the piece, for the atoms
    ``t_k`` (all at or before ``lo``) and the ``lags``, the deadlines at
    which an atom's reward reaches an ``f1`` breakpoint.  The bracket is
    constant between two events and, ``f1`` being concave, does not rise
    at one; it is >= 0 just after ``lo`` and its left limit at ``hi`` is
    < 0.  A binary search over the intervals between events reads it at
    their midpoints and returns the first event after which it is
    negative.  At the event itself ``KINK_SNAP`` gives the bracket both
    slopes of the kink.  A piece with no event inside can only straddle
    zero by roundoff; it returns ``hi``.  A NaN bracket raises
    :class:`SolverError`.
    """
    events = sorted({t + lag for lag in lags
                     for t in times[max(0, _bisect.bisect_left(times, lo - lag) - 1):
                                    _bisect.bisect_right(times, hi - lag) + 1]
                     if lo < t + lag < hi})
    ends = [lo, *events, hi]
    a, b = 0, len(events)  # the bracket is >= 0 after ends[a], < 0 after ends[b]
    while b - a > 1:
        k = (a + b + 1) // 2
        mid = 0.5 * (ends[k] + ends[k + 1])
        f_mid = right(mid)
        if f_mid >= 0.0:
            a = k
        elif f_mid < 0.0:
            b = k
        else:
            raise SolverError(f"deadline bracket at T={mid} is NaN")
    return ends[b] if events else hi


def _smooth_crossing(right, r: float, lo: float, hi: float,
                     f_lo: float, f_hi: float) -> float:
    """The deadline where the right bracket ``right`` of a parametric
    ``f1`` crosses zero on the atom-free piece ``(lo, hi)``: ``f_lo`` is
    the bracket at ``lo``, >= 0, and ``f_hi`` its left limit at ``hi``, < 0.

    Brent's method searches the discount factor ``z = exp(-r (T - lo))`` on
    ``[exp(-r (hi - lo)), 1]``, not T.  In z every atom reward
    ``X_k = u0 - (u0 - u_star) z exp(-r (lo - t_k))`` is affine, so its
    interpolation steps take hold at once, where in T the bracket flattens
    like ``exp(-r T)``.  The bracket rises in z, so the search runs on its
    negation, from the end values read already.  Its z tolerance,
    ``1e-13 r exp(-r (hi - lo))``, keeps T within 1e-13 of the root; its
    relative one, ``2 EPS z``, adds at most ``4 EPS / r``.  The deadline
    is ``T = lo - log(z) / r``, clamped into ``[lo, hi]``.
    """
    z_lo = math.exp(-r * (hi - lo))

    def deadline_at(z: float) -> float:  # a z that underflowed to 0 reads hi
        return min(hi, lo - math.log(z) / r) if z > 0.0 else hi

    z = brent_down(lambda z: -right(deadline_at(z)), z_lo, 1.0,
                   f_lo=-f_hi, f_hi=-f_lo, tol_x=1e-13 * r * z_lo)
    return deadline_at(z)


@dataclass(frozen=True)
class OptimalDeadline:
    T: float
    payoff: float
    mechanism: Mechanism
    foc: FocReport
    t_underline: float
    warnings: Tuple[str, ...]


def optimize_deadline(pair: TechnologyPair, dist: BreakthroughDist,
                      *, tol: float = FOC_TOL) -> OptimalDeadline:
    """Best deadline at or above the participation threshold.

    ``T_hi`` is put past the last atom and doubled until the right bracket
    is negative there; beyond it the bracket only falls.  The atoms in
    ``(t_underline, T_hi)`` split that span into atom-free pieces, which a
    branch and bound searches for the stationary points of the payoff
    (the module docstring gives the bound).  An atom is one when its left
    bracket is >= 0 and its right bracket < 0.  Each piece whose bracket
    goes from >= 0 to < 0 is closed by Brent's method in the discount
    factor from the piece's left end, to 1e-13 in T, when ``f1`` is
    parametric, so that the bracket is smooth on the piece
    (:func:`_smooth_crossing`), and at the kink event where the bracket
    turns negative when it is piecewise (:func:`_kink_crossing`).  The payoff argmax over these
    candidates and the threshold itself is returned, with a warning when
    :func:`affine_gap` of ``f0`` on ``[u_star, u0]`` exceeds
    ``AFFINE_TOL``.  The search relies on ``f1`` being concave.  Only the
    candidates and the never-stop profile cost a payoff; the final
    :func:`foc_check` reads brackets.

    A discount rate that does not resolve the breakthrough times is a
    ModelAssumptionError, decided from the first and last atom before any
    bracket is read: when ``exp(-r t)`` underflows to 0 at the first atom,
    no breakthrough carries weight and any deadline scores the same; when
    it rounds to 1 at the last (positive) atom, ``r t`` is below float
    resolution and ``T`` only scales as ``1/r`` (``r = 1e-300`` gave
    ``T = 1.25e300``, ``r = 5e-324`` an infinite one).
    """
    times = dist.times
    for t, limit in ((times[0], 0.0), (times[-1], 1.0)):
        if t > 0.0 and math.exp(-pair.r * t) == limit:
            raise ModelAssumptionError(
                f"discount rate r={pair.r:.6g} does not resolve the breakthrough "
                f"times: exp(-r t) is {limit:g} at the atom t={t:.6g}")
    t_lo = t_underline(pair)  # first: it rejects the pairs _alpha cannot divide by
    alpha = _alpha(pair)
    warnings = []
    u0, ustar = pair.u0, pair.u_star
    if affine_gap(pair.f0, ustar, u0) > AFFINE_TOL:
        warnings.append("f0 is not affine between u_star and its peak; "
                        "using stationary-point scan with payoff argmax")

    def brackets(T: float) -> Tuple[float, float]:
        return _brackets(pair, dist, T, alpha)

    def right(T: float) -> float:
        return _brackets(pair, dist, T, alpha)[0]

    # a parametric f1 has no kink, so neither has the bracket inside an
    # atom-free piece; a piecewise f1's bracket is a step function there,
    # which steps where an atom's reward reaches a breakpoint: these lags
    # after the atom
    smooth = isinstance(pair.f1, ParametricFrontier)
    lags = () if smooth else [_deadline_for(pair, float(u))
                              for u, _ in pair.f1.points if ustar < u < u0]

    t_hi = max(2.0 * t_lo, t_lo + max(1.0 / pair.r, 1.0),
               t_lo + 2.0 * (times[-1] - t_lo))
    for _ in range(80):
        b_hi = brackets(t_hi)
        if b_hi[0] < 0.0:
            break
        t_hi = t_lo + 2.0 * (t_hi - t_lo)
    else:
        raise SolverError("right payoff derivative never turns negative")

    # every atom jump J_k is p_k times this slope gap; only positive ones
    # let the bracket rise
    rise = max(0.0, pair.f1.derivs(ustar)[0] - alpha)
    ts = [t_lo, *times[_bisect.bisect_right(times, t_lo):], t_hi]
    vals = {0: brackets(t_lo), len(ts) - 1: b_hi}  # (right, left) bracket at ts[i]
    candidates = [t_lo]
    stack = [(0, len(ts) - 1)]
    while stack:
        i, j = stack.pop()
        up = rise * (dist.cdf_left(ts[j]) - dist.cdf(ts[i]))
        if vals[i][0] + up < 0.0 or vals[j][1] - up >= 0.0:
            continue  # the bracket keeps one sign on [ts[i], ts[j])
        if j > i + 1:
            k = (i + j) // 2
            vals[k] = b_plus, b_minus = brackets(ts[k])
            if b_minus >= 0.0 > b_plus:
                candidates.append(ts[k])
            stack += [(k, j), (i, k)]
            continue
        if smooth:
            candidates.append(_smooth_crossing(right, pair.r, ts[i], ts[j],
                                               vals[i][0], vals[j][1]))
        else:
            candidates.append(_kink_crossing(right, times, lags, ts[i], ts[j]))

    best_t, best_pi = None, -math.inf
    for t in sorted(candidates):
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
