"""Reward-path solver for strictly concave pairs.

The terminal level of the two-atom instance has a closed form: with the
quadratic frontiers the backward recursion gives x_1 = 1.5*lam - 0.05 and
the stationarity condition collapses to X_1(lam) + lam = 1.4, whose root
is bisected independently here and compared against the solver.
"""

from __future__ import annotations

import math
import random
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from disclose import (
    AtomAtZero,
    BracketFailure,
    Mechanism,
    NotSimple,
    comparative_statics_check,
    continuation_value,
    euler_residuals,
    from_atoms,
    payoff,
    solve,
)
from disclose import euler
from disclose.distribution import discretize
from disclose.errors import DiscloseError
from disclose.euler import (_discounts, backward_pass, inv_deriv_f0, psi,
                            simple_reasons)
from disclose.frontier import (KINK_SNAP, ParametricFrontier, PiecewiseFrontier,
                               TechnologyPair)
from disclose.insurance import UiPrimitives, build_frontiers
from disclose.numerics import bisect_down, brent_down

from test_golden import DENSE_B_TECH


RESIDUAL_TOL = 1e-8


# ------------------------------------------------------------ class checks ---

def test_simple_reasons(pair_a, pair_b, pair_ui):
    assert simple_reasons(pair_b) == ()
    reasons_a = simple_reasons(pair_a)
    assert reasons_a and any("concave" in r for r in reasons_a)
    # smooth and strictly concave on [u_star, u0], with u_star at the bottom
    # of the domain
    assert simple_reasons(pair_ui) == ()


def test_solve_rejects_non_simple_pair(pair_a, dist_point1):
    with pytest.raises(NotSimple) as exc:
        solve(pair_a, dist_point1)
    assert exc.value.reasons == simple_reasons(pair_a)


# -------------------------------------------------------------- inversion ---

def test_inv_deriv_f0(pair_b):
    # f0' = 2 - 2u on [0.1, 1]
    assert inv_deriv_f0(pair_b, 1.0) == pytest.approx(0.5, abs=1e-12)
    assert inv_deriv_f0(pair_b, 0.3) == pytest.approx(0.85, abs=1e-12)
    assert inv_deriv_f0(pair_b, 10.0) == pair_b.u_star   # slope never that big
    assert inv_deriv_f0(pair_b, -5.0) == pair_b.u0       # slope never negative


# ---------------------------------------------------------- backward pass ---

def test_backward_pass_two_atoms(pair_b, dist_k2):
    levels, conts, terms = backward_pass(pair_b, dist_k2, 0.6,
                                         _discounts(pair_b, dist_k2))
    assert levels[-1] == conts[-1] == 0.6
    # f1'(0.6) = 0.3, so x_0 solves 2 - 2u = 0.3
    assert levels[0] == pytest.approx(0.85, abs=1e-12)
    d = math.exp(-1.0)
    assert conts[0] == pytest.approx((1 - d) * 0.85 + d * 0.6, abs=1e-12)
    assert conts[0] == pytest.approx(0.7580301397071496, abs=1e-12)
    # p_k * f1'(X_k) with f1'(u) = -3 (u - 0.7)
    assert terms == (0.5 * -3.0 * (conts[0] - 0.7), 0.5 * -3.0 * (0.6 - 0.7))


def test_backward_pass_rejects_atom_at_zero(pair_b):
    bad = from_atoms([(0.0, 0.5), (1.0, 0.5)])
    with pytest.raises(AtomAtZero):
        backward_pass(pair_b, bad, 0.6, _discounts(pair_b, bad))


def test_psi_decreasing(pair_b, dist_k3):
    vals = [psi(pair_b, dist_k3, 0.1 + 0.09 * i) for i in range(11)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


# ------------------------------------------------------------------ solve ---

def test_solve_single_atom_closed_form(pair_b, dist_point1):
    # one atom: psi(lam) = f1'(lam) = -3(lam - 0.7), root exactly 0.7
    sol = solve(pair_b, dist_point1)
    assert sol.lam == pytest.approx(0.7, abs=1e-10)
    assert abs(sol.psi) <= 1e-10
    assert sol.mechanism.grid == (0.0, 1.0)
    assert sol.mechanism.levels[0] == pair_b.u0
    assert sol.extra_roots == ()
    x0 = continuation_value(sol.mechanism, pair_b.r, 0.0)
    assert x0 == pytest.approx(1.0 - 0.3 * math.exp(-1.0), abs=1e-9)
    assert x0 > pair_b.u1


def test_solve_two_atoms_independent_bisection(pair_b, dist_k2):
    sol = solve(pair_b, dist_k2)

    # independent closed-form reduction of the same stationarity system
    def cont_first(lam):
        x1 = 1.5 * lam - 0.05
        d = math.exp(-1.0)
        return (1 - d) * x1 + d * lam

    lo, hi = 0.4, 0.9
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if cont_first(mid) + mid - 1.4 > 0.0:
            hi = mid
        else:
            lo = mid
    assert sol.lam == pytest.approx(0.5 * (lo + hi), abs=1e-9)
    assert sol.lam == pytest.approx(0.618121229691, abs=1e-6)
    assert abs(sol.psi) <= 1e-9


def test_solve_levels_decrease_and_residuals_vanish(pair_b, dist_k2, dist_k3):
    for dist in (dist_k2, dist_k3):
        sol = solve(pair_b, dist)
        assert all(a > b for a, b in zip(sol.levels, sol.levels[1:]))
        res = euler_residuals(pair_b, dist, sol.levels, sol.conts)
        assert max(abs(v) for v in res) <= RESIDUAL_TOL
        assert res[-1] == pytest.approx(sol.psi, abs=1e-12)


def test_residuals_detect_perturbation(pair_b, dist_k2):
    # bumping the first flow level moves R_0 by survival * f0'' * delta
    # = 0.5 * (-2) * 0.01 exactly, and leaves the later residuals alone
    sol = solve(pair_b, dist_k2)
    base = euler_residuals(pair_b, dist_k2, sol.levels, sol.conts)
    bumped = (sol.levels[0] + 0.01,) + sol.levels[1:]
    res = euler_residuals(pair_b, dist_k2, bumped, sol.conts)
    assert res[0] - base[0] == pytest.approx(-0.01, abs=1e-9)
    assert res[1] == pytest.approx(base[1], abs=1e-14)


def test_path_beats_deadline(pair_b, dist_k2):
    from disclose import optimize_deadline
    sol = solve(pair_b, dist_k2)
    best_deadline = optimize_deadline(pair_b, dist_k2).payoff
    assert sol.payoff >= best_deadline - 1e-12


def test_dense_b_m128_payoff_pins_the_kink_snap_roundoff():
    # The levels sit on f0 breakpoints, and atom 124's continuation value
    # lands 1.43e-10 below the f1 breakpoint 0.42, inside KINK_SNAP, so
    # derivs reads the slope right of the kink.  A value 1e-9 lower, just
    # outside the window, would read the left slope and pay 1.2109319.  The
    # f1 slope read still goes through that window, so this pins the side
    # the value lands on until the read is exact ("piecewise pairs solved
    # exactly at their kinks" in ROADMAP.md).
    f0, f1 = (PiecewiseFrontier(DENSE_B_TECH[k]) for k in ("f0", "f1"))
    sol = solve(TechnologyPair.build(f0, f1, 1.0),
                discretize("exponential", 128, rate=1.0))
    assert sol.payoff == pytest.approx(1.2111062614439514, abs=1e-12)
    assert sol.conts[124] - 0.42 == pytest.approx(-1.43e-10, abs=1e-12)
    assert -KINK_SNAP <= sol.conts[124] - 0.42 < 0.0


# ------------------------------------------ band search against a grid scan ---

def random_simple_pair(rng):
    """Fixture B rescaled, with a random ``f1`` curvature and peak, or (one
    in four: building one costs a ``u_star`` scan) an insurance pair."""
    r = rng.uniform(0.2, 3.0)
    if rng.random() < 0.75:
        su, sv = rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0)
        c, k, u1 = rng.uniform(1.2, 2.0), rng.uniform(1.1, 4.0), rng.uniform(0.3, 0.95)
        f0 = ParametricFrontier(fn=lambda u: sv * (2.0 * u / su - (u / su) ** 2),
                                u_lo=0.0, u_hi=1.2 * su,
                                dfn=lambda u: sv * (2.0 - 2.0 * u / su) / su)
        f1 = ParametricFrontier(fn=lambda u: sv * (c - k * (u / su - u1) ** 2),
                                u_lo=0.0, u_hi=1.2 * su,
                                dfn=lambda u: -2.0 * sv * k * (u / su - u1) / su)
        return TechnologyPair.build(f0, f1, r)
    p = UiPrimitives(a=rng.uniform(0.3, 0.8), b=rng.uniform(1.5, 3.0),
                     w=rng.uniform(0.5, 2.0), shadow=rng.uniform(0.2, 1.0))
    return build_frontiers(p, r)


def random_law(rng, r):
    # mostly few atoms, which keeps the full scans cheap; 1 in 20 has many
    m = rng.choice((16, 32, 64) if rng.random() < 0.05 else (1, 2, 3, 4, 6, 8))
    scale = rng.uniform(0.3, 3.0) / r
    if rng.random() < 0.5:
        return discretize("exponential", m, rate=1.0 / scale)
    return discretize("weibull", m, shape=rng.uniform(0.5, 4.0), scale=scale)


GRID_STEPS = 32


def grid_scan_solve(pair, dist):
    """The terminal level, levels and payoff of the reward path as found by
    scanning a ``GRID_STEPS``-step ``psi`` grid on ``[u_star, u0]`` in full,
    closing each crossing cell with the root finder :func:`solve` uses
    (Brent's method, or bisection to ``|psi| <= PSI_TOL`` for a piecewise
    pair), and keeping the payoff argmax over those roots and the grid ends
    where ``psi`` is already <= 0 (bottom) or still >= 0 (top)."""
    def f(lam):
        return psi(pair, dist, lam)

    ustar, u0 = pair.u_star, pair.u0
    lams = [ustar + (u0 - ustar) * i / GRID_STEPS for i in range(GRID_STEPS + 1)]
    psis = [f(lam) for lam in lams]
    psi_lo, psi_hi = psis[0], psis[-1]
    cells = [(a, fa, b, fb) for a, fa, b, fb in zip(lams, psis, lams[1:], psis[1:])
             if fa >= 0.0 > fb]
    if psi_lo < -1e-9:
        raise BracketFailure(
            f"psi(u_star)={psi_lo:.3e} < 0; expected >= 0 at the bottom level")
    if psi_hi > 1e-9:
        raise BracketFailure(
            f"psi(u0)={psi_hi:.3e} > 0; expected <= 0 at the peak level")
    smooth = (isinstance(pair.f0, ParametricFrontier)
              and isinstance(pair.f1, ParametricFrontier))
    roots = [ustar] if psi_lo <= 0.0 else []
    for a, fa, b, fb in cells:
        if smooth:
            roots.append(brent_down(f, a, b, f_lo=fa, f_hi=fb, tol_x=euler.LAM_TOL))
        else:
            roots.append(bisect_down(f, a, b, f_lo=fa, f_hi=fb, tol_x=euler.LAM_TOL,
                                     tol_f=euler.PSI_TOL))
    if psi_hi >= 0.0:
        roots.append(lams[-1])

    def candidate(lam):
        levels = backward_pass(pair, dist, lam, _discounts(pair, dist))[0]
        mech = Mechanism(grid=(0.0,) + dist.times, levels=(u0,) + levels)
        return payoff(mech, pair, dist), lam, levels

    return max((c for c in map(candidate, roots) if isinstance(c[0], float)),
               key=lambda c: c[0])


def test_band_search_matches_grid_scan():
    rng = random.Random(20208)
    cases = []
    while len(cases) < 200:
        try:
            pair = random_simple_pair(rng)
        except DiscloseError:
            continue
        if not simple_reasons(pair):
            cases.append((pair, random_law(rng, pair.r)))

    solved = many = 0
    for pair, dist in cases:
        try:
            value, lam, levels = grid_scan_solve(pair, dist)
        except BracketFailure as exc:
            # insurance pairs with a high wage and shadow price fail the psi
            # bracket at the bottom level under either search
            with pytest.raises(BracketFailure) as info:
                solve(pair, dist)
            assert str(info.value) == str(exc)
            continue
        sol = solve(pair, dist)
        tol = 1e-12 * max(1.0, pair.u0)
        assert abs(sol.lam - lam) <= tol
        assert len(sol.levels) == len(levels)
        assert max(abs(x - y) for x, y in zip(sol.levels, levels)) <= tol
        assert abs(sol.payoff - value) <= 1e-12 * abs(value)
        solved += 1
        many += len(levels) >= 16
    # most cases must solve, a few of them on many atoms
    assert solved >= 170
    assert many >= 5


# ----------------------------------------------------- comparative statics ---

def test_comparative_statics_direction(pair_b):
    late = from_atoms([(1.0, 0.3), (2.0, 0.7)])
    early = from_atoms([(1.0, 0.7), (2.0, 0.3)])
    cs = comparative_statics_check(pair_b, late, early)
    assert cs.order.mlr and cs.order.fosd
    assert cs.ok
    assert cs.max_violation <= 0.0
    rev = comparative_statics_check(pair_b, early, late)
    assert not rev.ok
    assert rev.max_violation > 0.0
    assert rev.witness is not None


@st.composite
def step_paths(draw):
    """A step flow path (DERIVED reward) with levels and grid points on
    eighths, the grid in [0, 4]."""
    n = draw(st.integers(1, 5))
    ticks = draw(st.lists(st.integers(1, 32), min_size=n - 1, max_size=n - 1,
                          unique=True))
    levels = draw(st.lists(st.integers(0, 16), min_size=n, max_size=n))
    return Mechanism(grid=(0.0,) + tuple(t / 8 for t in sorted(ticks)),
                     levels=tuple(k / 8 for k in levels))


@given(step_paths(), step_paths())
def test_statics_grid_union_max_covers_dense_probes(pair_b, dist_k2, dist_k3, m, m_dag):
    # any two step paths stand in for the solved ones, so the grid-union
    # claim is tested beyond the shapes that solved paths take
    paths = {id(dist_k3): m, id(dist_k2): m_dag}
    with mock.patch.object(euler, "solve",
                           lambda pair, dist: SimpleNamespace(mechanism=paths[id(dist)])):
        cs = comparative_statics_check(pair_b, dist_k3, dist_k2)
    t_hi = 1.5 * max(m.grid[-1], m_dag.grid[-1], 1.0)
    dense = max(continuation_value(m_dag, pair_b.r, t) - continuation_value(m, pair_b.r, t)
                for t in (t_hi * i / 1000 for i in range(1001)))
    assert cs.max_violation >= dense - 1e-15
