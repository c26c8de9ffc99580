"""Deadline mechanisms: threshold time, payoff derivatives, optimizer.

The first-order bracket for a point mass at t=1 on the piecewise instance
steps through three regimes (chord slope before the atom, then the two
one-sided slopes of the post-breakthrough frontier around its kink), which
pins the optimizer's stopping rule independently of the scan logic.
"""

from __future__ import annotations

import math

import pytest

from disclose import (
    ModelAssumptionError,
    continuation_value,
    deadline_payoff,
    from_atoms,
    optimize_deadline,
    payoff,
    pi_and_derivs,
    t_underline,
)
from disclose.deadline import foc_check
from disclose.frontier import PiecewiseFrontier, TechnologyPair
from disclose.mechanism import deadline_mechanism

ROOT_TOL = 1e-8


# ----------------------------------------------------------- reward path ---

def test_reward_at_endpoints(pair_a):
    T = 2.0
    m = deadline_mechanism(pair_a, T)

    def reward(t):
        return continuation_value(m, pair_a.r, t)

    assert reward(0.0) == pytest.approx(0.9052653017343711, abs=1e-12)
    assert reward(T) == pair_a.u_star
    assert reward(T + 5.0) == pair_a.u_star
    # exponential decay of the promise toward the threshold
    x1 = reward(1.0)
    assert x1 == pytest.approx(1.0 - 0.7 * math.exp(-1.0), abs=1e-12)


# ------------------------------------------------------------ t_underline ---

def test_t_underline_closed_forms(pair_a, pair_b, pair_b_affine):
    assert t_underline(pair_a) == pytest.approx(math.log(3.5), abs=1e-12)
    assert t_underline(pair_b) == pytest.approx(math.log(3.0), abs=1e-9)
    assert t_underline(pair_b_affine) == pytest.approx(math.log(2.0), abs=1e-9)


def test_t_underline_requires_room_to_reward():
    f0 = PiecewiseFrontier(((0.0, 0.0), (1.0, 1.0), (2.0, 0.0)))
    f1 = PiecewiseFrontier(((0.0, 0.6), (1.2, 1.4), (1.8, 0.6)))
    pair = TechnologyPair(f0=f0, f1=f1, r=1.0, u0=1.0, u1=1.2, u_star=0.3)
    with pytest.raises(ModelAssumptionError):
        t_underline(pair)


# ------------------------------------------------------- payoff derivative ---

def test_deadline_payoff_matches_mechanism(pair_a, dist_k2):
    for T in (0.5, math.log(3.5), 2.0, 6.0):
        direct = deadline_payoff(pair_a, dist_k2, T)
        via_mech = payoff(deadline_mechanism(pair_a, T), pair_a, dist_k2)
        assert direct == pytest.approx(via_mech, abs=1e-14)


def test_bracket_regimes_point_mass(pair_a, dist_point1):
    # before the atom the chord slope of f0 rules; after it the one-sided
    # slopes of f1 at the decayed promise take over
    d = pi_and_derivs(pair_a, dist_point1, 0.5)
    assert d.bracket_plus == pytest.approx(1.0, abs=1e-12)
    d = pi_and_derivs(pair_a, dist_point1, 1.2)
    assert d.bracket_plus == pytest.approx(0.4, abs=1e-12)
    d = pi_and_derivs(pair_a, dist_point1, 3.0)
    assert d.bracket_plus == pytest.approx(-0.8, abs=1e-12)
    # exactly at the optimum the promise sits on the kink
    T_star = 1.0 + math.log(3.5)
    d = pi_and_derivs(pair_a, dist_point1, T_star)
    assert d.bracket_plus == pytest.approx(-0.8, abs=1e-9)
    assert d.bracket_minus == pytest.approx(0.4, abs=1e-9)


def test_pi_derivs_scale(pair_a, dist_point1):
    # pi_plus is the bracket times the decaying promise speed
    T = 1.2
    d = pi_and_derivs(pair_a, dist_point1, T)
    scale = math.exp(-T) * (pair_a.u0 - pair_a.u_star)
    assert d.pi_plus == pytest.approx(scale * d.bracket_plus, abs=1e-12)
    assert d.pi_minus == pytest.approx(scale * d.bracket_minus, abs=1e-12)
    with pytest.raises(ModelAssumptionError):
        pi_and_derivs(pair_a, dist_point1, -0.1)


def test_discounted_bracket_monotone(pair_a, dist_k2):
    # e^{rT} * pi_plus must be non-increasing in T (concavity of the
    # reparametrised problem); sample densely past the support
    prev = math.inf
    for i in range(100):
        T = 0.05 + i * 0.05
        d = pi_and_derivs(pair_a, dist_k2, T)
        cur = math.exp(T) * d.pi_plus
        assert cur <= prev + 1e-9
        prev = cur


# ---------------------------------------------------------------- foc_check ---

def test_foc_check_at_optimum(pair_a, dist_point1):
    T_star = 1.0 + math.log(3.5)
    assert foc_check(pair_a, dist_point1, T_star).satisfied
    assert not foc_check(pair_a, dist_point1, T_star - 0.05).satisfied
    assert not foc_check(pair_a, dist_point1, T_star + 0.05).satisfied


# ---------------------------------------------------------------- optimizer ---

def test_optimize_point_mass_kink(pair_a, dist_point1):
    res = optimize_deadline(pair_a, dist_point1)
    assert res.T == pytest.approx(1.0 + math.log(3.5), abs=ROOT_TOL)
    assert res.T >= res.t_underline
    assert res.payoff == pytest.approx(1.147151776468577, abs=1e-9)
    assert res.foc.satisfied
    assert res.mechanism.grid == (0.0, res.T)
    assert res.warnings == ()


def test_optimize_smooth_crossing(pair_b_affine, dist_point1):
    # affine chord + smooth curved f1: the bracket crosses zero smoothly
    res = optimize_deadline(pair_b_affine, dist_point1)
    assert res.T == pytest.approx(1.0 + math.log(2.0), abs=ROOT_TOL)
    assert res.foc.satisfied
    assert res.foc.pi_plus <= res.foc.tol
    assert res.foc.pi_minus >= -res.foc.tol


def test_optimize_spread_distributions(pair_a, dist_k2, dist_exp8):
    for dist in (dist_k2, dist_exp8):
        res = optimize_deadline(pair_a, dist)
        assert res.T >= res.t_underline - 1e-12
        assert res.foc.satisfied
        # no scanned deadline may beat the reported one
        for i in range(60):
            T = res.t_underline + i * 0.1
            assert deadline_payoff(pair_a, dist, T) <= res.payoff + 1e-9


def test_optimize_warns_on_curved_band(pair_b, dist_point1):
    res = optimize_deadline(pair_b, dist_point1)
    assert res.warnings
    assert any("affine" in w for w in res.warnings)
    assert res.T >= res.t_underline - 1e-12


def test_early_mass_shifts_deadline(pair_a):
    # all mass at t=0.25 just translates the threshold time
    res = optimize_deadline(pair_a, from_atoms([(0.25, 1.0)]))
    assert res.T == pytest.approx(0.25 + math.log(3.5), abs=ROOT_TOL)
