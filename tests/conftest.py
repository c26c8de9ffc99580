"""Shared fixtures: the two reference technologies and standard distributions.

Instance A is piecewise linear with an affine pre-breakthrough frontier on
the working band, so the optimal mechanism is a deadline; instance B is
smooth and strictly concave, so the optimal mechanism is a declining reward
path.  Both have hand-computable constants that the tests anchor against.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import settings

from disclose import (
    ParametricFrontier,
    PiecewiseFrontier,
    TechnologyPair,
    UiPrimitives,
    build_frontiers,
    discretize,
    from_atoms,
)
from disclose.deadline import (FOC_TOL, _alpha, _brackets, _deadline_for, deadline_payoff,
                               t_underline)
from disclose.discrete import DiscreteMechanism, ScanEntry, ic_discrete, payoff_vector
from disclose.frontier import is_neg_inf

# property tests draw the same examples on every run and keep no example
# database, so the suite stays deterministic
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def bisected_crossing(f, lo, hi, f_lo) -> float:
    """A down-crossing of ``f`` on ``[lo, hi]`` (``f_lo = f(lo) >= 0``) as
    deadline searches closed it before kink events: bisected to 1e-13 (or
    200 halvings), then ``lo`` when ``f`` there is within ``FOC_TOL`` of
    zero and ``hi`` otherwise."""
    for _ in range(200):
        if hi - lo <= 1e-13:
            break
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid >= 0.0:
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return lo if f_lo <= FOC_TOL else hi


def exhaustive_deadline(pair: TechnologyPair, dist, *, bisect: bool = False) -> tuple:
    """``(T, payoff)`` of the best deadline found with no pruning.

    ``T_hi`` starts past the last atom and doubles until the right bracket
    is negative there.  Every atom in ``(t_underline, T_hi)`` is read, and
    is a candidate when its left bracket is >= 0 and its right bracket < 0.
    Every atom-free piece between them whose right bracket goes from >= 0
    to < 0 is closed by :func:`bisected_crossing` when ``f1`` is parametric.
    When it is piecewise, the kink events ``t_k + _deadline_for(pair, b)``
    inside the piece (every atom ``t_k`` and every ``f1`` breakpoint ``b``
    in ``(u_star, u0)``) are sorted, the bracket is read at the midpoint of
    every two consecutive ones, the last with the piece's right end, and
    the first event after which it is negative is a candidate (the right
    end when there is none).  With ``bisect`` every crossing piece is
    closed by :func:`bisected_crossing`, as before kink events.  The payoff
    argmax over these and ``t_underline`` is returned, the earliest on a
    tie."""
    t_lo = t_underline(pair)
    alpha = _alpha(pair)

    def brackets(T):
        return _brackets(pair, dist, T, alpha)

    def right(T):
        return brackets(T)[0]

    t_hi = t_lo + max(t_lo, 1.0 / pair.r, 1.0, 2.0 * (dist.times[-1] - t_lo))
    while brackets(t_hi)[0] >= 0.0:
        t_hi = t_lo + 2.0 * (t_hi - t_lo)
    ts = [t_lo] + [t for t in dist.times if t_lo < t < t_hi] + [t_hi]
    vals = [brackets(t) for t in ts]
    candidates = [t_lo] + [t for t, (b_plus, b_minus) in zip(ts[1:-1], vals[1:-1])
                           if b_minus >= 0.0 > b_plus]
    smooth = isinstance(pair.f1, ParametricFrontier)
    lags = [] if smooth else [_deadline_for(pair, float(u)) for u, _ in pair.f1.points
                              if pair.u_star < u < pair.u0]
    for a, (f_a, _), b, (_, f_b) in zip(ts, vals, ts[1:], vals[1:]):
        if not f_a >= 0.0 > f_b:
            continue
        if smooth or bisect:
            candidates.append(bisected_crossing(right, a, b, f_a))
            continue
        events = sorted({t_k + lag for t_k in dist.times for lag in lags
                         if a < t_k + lag < b})
        after = [e for e, e_next in zip(events, events[1:] + [b])
                 if right(0.5 * (e + e_next)) < 0.0]
        candidates.append(after[0] if after else b)
    scored = [(deadline_payoff(pair, dist, t), -t) for t in candidates]
    value, neg_t = max(c for c in scored if isinstance(c[0], float))
    return -neg_t, value


def reference_scan(f0, f1, beta, horizon: int, x_grid, reward_grid) -> tuple:
    """``undominated_scan`` one mechanism at a time.

    Every ``(x, x1)`` in ``itertools.product`` order is built as a
    ``DiscreteMechanism``, checked with ``ic_discrete`` and scored with
    ``payoff_vector``; one with a NEG_INF coordinate is dropped.  The rest
    are sorted by decreasing payoff sum (stable) and kept unless another of
    them weakly dominates it."""
    feasible = []
    for x in itertools.product(x_grid, repeat=horizon):
        for x1 in itertools.product(reward_grid, repeat=horizon):
            m = DiscreteMechanism(beta, x, x1)
            if not ic_discrete(m).ok:
                continue
            pv = payoff_vector(m, f0, f1)
            if not any(is_neg_inf(v) for v in pv):
                feasible.append(ScanEntry(x=m.x, x1=m.x1, payoffs=pv))

    def dominates(a, b):
        ge = all(pa >= pb for pa, pb in zip(a.payoffs, b.payoffs))
        return ge and any(pa > pb for pa, pb in zip(a.payoffs, b.payoffs))

    feasible.sort(key=lambda e: sum(e.payoffs), reverse=True)
    return tuple(e for e in feasible if not any(dominates(o, e) for o in feasible))


def translated(pair: TechnologyPair, k: float) -> TechnologyPair:
    """``pair`` with the agent-utility axis moved by ``k``: each frontier
    becomes ``u -> f(u - k)`` on its domain moved by ``k``.  The model is
    invariant under this move: classes, payoffs and deadlines stay, and
    every level moves by ``k``."""
    def move(f):
        if isinstance(f, PiecewiseFrontier):
            return PiecewiseFrontier(tuple((u + k, v) for u, v in f.points))
        return ParametricFrontier(fn=lambda u: f.fn(u - k), u_lo=f.u_lo + k,
                                  u_hi=f.u_hi + k, dfn=lambda u: f.dfn(u - k))
    return TechnologyPair.build(move(pair.f0), move(pair.f1), pair.r)


def scaled(pair: TechnologyPair, s: float) -> TechnologyPair:
    """``pair`` with both axes scaled by ``s > 0``: each frontier becomes
    ``u -> s f(u / s)`` on its domain scaled by ``s``, with the same slopes.
    The model is invariant under this move: deadlines stay, and every level
    and payoff scales by ``s`` (exactly in floats for a power of two)."""
    def move(f):
        if isinstance(f, PiecewiseFrontier):
            return PiecewiseFrontier(tuple((u * s, v * s) for u, v in f.points))
        return ParametricFrontier(fn=lambda u: s * f.fn(u / s), u_lo=f.u_lo * s,
                                  u_hi=f.u_hi * s, dfn=lambda u: f.dfn(u / s))
    return TechnologyPair.build(move(pair.f0), move(pair.f1), pair.r)


# instance A: f0 affine (slope 1) up to its peak at u=1, f1 peaking at 0.8;
# shared-slope level 0.3, so the threshold deadline is ln 3.5
A_F0_POINTS = ((0.0, 0.0), (1.0, 1.0), (2.0, 0.0))
A_F1_POINTS = ((0.0, 0.6), (0.3, 1.2), (0.8, 1.4), (1.8, 0.6))

# the same breakpoints as exact rationals, for the discrete-oracle tests
A_F0_EXACT = (
    (Fraction(0), Fraction(0)),
    (Fraction(1), Fraction(1)),
    (Fraction(2), Fraction(0)),
)
A_F1_EXACT = (
    (Fraction(0), Fraction(3, 5)),
    (Fraction(3, 10), Fraction(6, 5)),
    (Fraction(4, 5), Fraction(7, 5)),
    (Fraction(9, 5), Fraction(3, 5)),
)


def b_f0(u):
    return 2.0 * u - u * u


def b_f0_d(u):
    return 2.0 - 2.0 * u


def b_f1(u):
    return 1.45 - 1.5 * (u - 0.7) ** 2


def b_f1_d(u):
    return -3.0 * (u - 0.7)


@pytest.fixture(scope="session")
def pair_a() -> TechnologyPair:
    return TechnologyPair.build(
        PiecewiseFrontier(A_F0_POINTS), PiecewiseFrontier(A_F1_POINTS), 1.0)


@pytest.fixture(scope="session")
def f0_exact() -> PiecewiseFrontier:
    return PiecewiseFrontier(A_F0_EXACT)


@pytest.fixture(scope="session")
def f1_exact() -> PiecewiseFrontier:
    return PiecewiseFrontier(A_F1_EXACT)


@pytest.fixture(scope="session")
def pair_b() -> TechnologyPair:
    f0 = ParametricFrontier(fn=b_f0, u_lo=0.0, u_hi=1.2, dfn=b_f0_d)
    f1 = ParametricFrontier(fn=b_f1, u_lo=0.0, u_hi=1.2, dfn=b_f1_d)
    return TechnologyPair.build(f0, f1, 1.0)


@pytest.fixture(scope="session")
def pair_b_affine() -> TechnologyPair:
    """Instance B with its pre-breakthrough frontier replaced by the chord
    between the shared-slope level and the peak — the deadline solver's
    home turf with a smooth post-breakthrough frontier."""
    f0 = PiecewiseFrontier(((0.1, 0.19), (1.0, 1.0)))
    f1 = ParametricFrontier(fn=b_f1, u_lo=0.0, u_hi=1.2, dfn=b_f1_d)
    return TechnologyPair.build(f0, f1, 1.0)


@pytest.fixture(scope="session")
def ui_prims() -> UiPrimitives:
    return UiPrimitives(a=0.5, b=2.0, w=1.0, shadow=0.5)


@pytest.fixture(scope="session")
def pair_ui(ui_prims) -> TechnologyPair:
    return build_frontiers(ui_prims, 1.0)


@pytest.fixture(scope="session")
def dist_point1():
    return from_atoms([(1.0, 1.0)])


@pytest.fixture(scope="session")
def dist_k2():
    return from_atoms([(0.5, 0.5), (1.5, 0.5)])


@pytest.fixture(scope="session")
def dist_k3():
    return from_atoms([(0.5, 0.25), (1.0, 0.5), (2.0, 0.25)])


@pytest.fixture(scope="session")
def dist_exp8():
    return discretize("exponential", 8, rate=1.0)


@pytest.fixture(scope="session")
def dist_exp16():
    return discretize("exponential", 16, rate=1.0)
