"""Reward-path solver for strictly concave pairs.

The terminal level of the two-atom instance has a closed form: with the
quadratic frontiers the backward recursion gives x_1 = 1.5*lam - 0.05 and
the stationarity condition collapses to X_1(lam) + lam = 1.4, whose root
is bisected independently here and compared against the solver.
"""

from __future__ import annotations

import math

import pytest

from disclose import (
    AtomAtZero,
    NotSimple,
    comparative_statics_check,
    continuation_value,
    euler_residuals,
    from_atoms,
    solve,
)
from disclose.euler import backward_pass, inv_deriv_f0, psi, simple_reasons

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
