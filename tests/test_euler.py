"""Reward-path solver for strictly concave pairs.

The terminal level of the two-atom instance has a closed form: with the
quadratic frontiers the backward recursion gives x_1 = 1.5*lam - 0.05 and
the stationarity condition collapses to X_1(lam) + lam = 1.4, whose root
is bisected independently here and compared against the solver.
"""

from __future__ import annotations

import math
import random

import pytest

from disclose import (
    AtomAtZero,
    BracketFailure,
    NotSimple,
    comparative_statics_check,
    continuation_value,
    euler_residuals,
    from_atoms,
    solve,
)
from disclose import euler, numerics
from disclose.distribution import discretize
from disclose.errors import DiscloseError
from disclose.euler import backward_pass, inv_deriv_f0, psi, simple_reasons
from disclose.frontier import ParametricFrontier, TechnologyPair
from disclose.insurance import SHIFT_FRAC, UiPrimitives, build_frontiers, ui_constants

RESIDUAL_TOL = 1e-8


# ------------------------------------------------------------ class checks ---

def test_simple_reasons(pair_a, pair_b, pair_ui):
    assert simple_reasons(pair_b) == ()
    reasons_a = simple_reasons(pair_a)
    assert reasons_a and any("concave" in r for r in reasons_a)
    reasons_ui = simple_reasons(pair_ui)
    assert reasons_ui and any("strictly positive" in r for r in reasons_ui)
    # a small upward shift moves the band interior, where the pair is smooth
    assert simple_reasons(pair_ui.shifted(0.05)) == ()


def test_solve_rejects_non_simple_pair(pair_a, pair_ui, dist_point1):
    for pair in (pair_a, pair_ui):
        with pytest.raises(NotSimple) as exc:
            solve(pair, dist_point1)
        assert exc.value.reasons == simple_reasons(pair)


# -------------------------------------------------------------- inversion ---

def test_inv_deriv_f0(pair_b):
    # f0' = 2 - 2u on [0.1, 1]
    assert inv_deriv_f0(pair_b, 1.0) == pytest.approx(0.5, abs=1e-12)
    assert inv_deriv_f0(pair_b, 0.3) == pytest.approx(0.85, abs=1e-12)
    assert inv_deriv_f0(pair_b, 10.0) == pair_b.u_star   # slope never that big
    assert inv_deriv_f0(pair_b, -5.0) == pair_b.u0       # slope never negative


# ---------------------------------------------------------- backward pass ---

def test_backward_pass_two_atoms(pair_b, dist_k2):
    levels, conts, terms = backward_pass(pair_b, dist_k2, 0.6)
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
        backward_pass(pair_b, bad, 0.6)


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


# --------------------------------------------- grid search against full scan ---

def random_simple_pair(rng):
    """Fixture B rescaled, with a random ``f1`` curvature and peak, or (one
    in four: building one costs two ``u_star`` scans) an insurance pair
    shifted as ``welfare_sweep`` shifts it."""
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
    return build_frontiers(p, r).shifted(SHIFT_FRAC * ui_constants(p).u0)


def random_law(rng, r):
    # mostly few atoms, which keeps the full scans cheap; 1 in 20 has many
    m = rng.choice((16, 32, 64) if rng.random() < 0.05 else (1, 2, 3, 4, 6, 8))
    scale = rng.uniform(0.3, 3.0) / r
    if rng.random() < 0.5:
        return discretize("exponential", m, rate=1.0 / scale)
    return discretize("weibull", m, shape=rng.uniform(0.5, 4.0), scale=scale)


def solve_outcome(pair, dist):
    """Every float of the solution by ``.hex()``, and ``extra_roots``; or
    the message of the ``BracketFailure`` it raised."""
    try:
        sol = solve(pair, dist)
    except BracketFailure as exc:
        return str(exc)
    return (sol.lam.hex(), sol.psi.hex(), sol.payoff.hex(),
            [v.hex() for v in sol.levels], [v.hex() for v in sol.conts],
            sol.extra_roots)


def test_grid_search_matches_full_scan(monkeypatch):
    rng = random.Random(20208)
    cases = []
    while len(cases) < 200:
        try:
            pair = random_simple_pair(rng)
        except DiscloseError:
            continue
        if not simple_reasons(pair):
            cases.append((pair, random_law(rng, pair.r)))

    searched = [solve_outcome(pair, dist) for pair, dist in cases]
    full_scan = numerics.crossing_cells
    monkeypatch.setattr(euler, "crossing_cells",
                        lambda f, lo, hi, n, *, once: full_scan(f, lo, hi, n, once=False))
    scanned = [solve_outcome(pair, dist) for pair, dist in cases]

    assert searched == scanned
    # insurance pairs with a high wage and shadow price fail the psi bracket
    # at the bottom level under either search; most cases must solve
    solved = [o for o in searched if not isinstance(o, str)]
    assert len(solved) >= 170
    assert sum(len(o[3]) >= 16 for o in solved) >= 5


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
