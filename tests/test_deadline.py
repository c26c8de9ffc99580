"""Deadline mechanisms: threshold time, payoff derivatives, optimizer.

The first-order bracket for a point mass at t=1 on the piecewise instance
steps through three regimes (chord slope before the atom, then the two
one-sided slopes of the post-breakthrough frontier around its kink), which
pins the optimizer's stopping rule independently of the scan logic.  On
random affine pairs the optimizer's grid binary search, and on random
curved pairs its search between the breakthrough atoms, must return
exactly what a full scan of the grid returns.
"""

from __future__ import annotations

import dataclasses
import math
import random
from collections import Counter

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
from disclose import deadline
from disclose.deadline import foc_check
from disclose.distribution import discretize
from disclose.errors import DiscloseError
from disclose.frontier import (ParametricFrontier, PiecewiseFrontier, TechnologyPair,
                               affine_gap)
from disclose.insurance import UiPrimitives, build_frontiers
from disclose.mechanism import deadline_mechanism

from conftest import A_F0_POINTS, A_F1_POINTS, b_f0, b_f0_d, b_f1, full_scan

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


# ------------------------------------------ grid search against full scan ---

def random_affine_pair(rng):
    """A pair with ``f0`` affine on ``[u_star, u0]``: rescaled fixture A, a
    random concave piecewise ``f1`` above the tent ``f0``, or a smooth
    quadratic ``f1`` over a chord ``f0``."""
    r = rng.uniform(0.2, 3.0)
    kind = rng.randrange(3)
    if kind == 0:
        su, sv = rng.uniform(0.2, 5.0), rng.uniform(0.2, 5.0)
        f0, f1 = ([(u * su, v * sv) for u, v in pts]
                  for pts in (A_F0_POINTS, A_F1_POINTS))
        return TechnologyPair.build(PiecewiseFrontier(f0),
                                    PiecewiseFrontier(f1), r)
    if kind == 1:
        # slopes falling from positive to negative, peak u1 left of u0 = 1
        u1 = rng.uniform(0.3, 0.9)
        n_up = rng.randint(1, 3)
        us = ([0.0] + sorted(rng.uniform(0.0, u1) for _ in range(n_up - 1))
              + [u1, rng.uniform(u1 + 0.05, 1.3), rng.uniform(1.4, 2.0)])
        slopes = (sorted((rng.uniform(0.05, 3.0) for _ in range(n_up)), reverse=True)
                  + [-rng.uniform(0.05, 1.0), -rng.uniform(1.0, 3.0)])
        vs = [0.0]
        for u_a, u_b, s in zip(us, us[1:], slopes):
            vs.append(vs[-1] + s * (u_b - u_a))
        f1 = PiecewiseFrontier(list(zip(us, vs)))
        # lift f1 above the tent f0(u) = min(u, 2 - u): checking the knots
        # of both suffices
        lift = max(min(u, 2.0 - u) - f1.value(u) for u in us + [1.0])
        lift += rng.uniform(0.0, 0.5)
        f1 = PiecewiseFrontier([(u, v + lift) for u, v in zip(us, vs)])
        return TechnologyPair.build(PiecewiseFrontier(A_F0_POINTS), f1, r)
    c, k, u1 = rng.uniform(1.2, 2.0), rng.uniform(0.5, 3.0), rng.uniform(0.3, 0.9)
    f1 = ParametricFrontier(fn=lambda u: c - k * (u - u1) ** 2, u_lo=0.0,
                            u_hi=2.0, dfn=lambda u: -2.0 * k * (u - u1))
    # the tent from the shared-slope level (f1 slope 1 there) to the peak
    us = u1 - 0.5 / k
    f0 = A_F0_POINTS if us <= 0.0 else ((us, us),) + A_F0_POINTS[1:]
    return TechnologyPair.build(PiecewiseFrontier(f0), f1, r)


def scan_grid(pair, dist):
    """The ``ts`` grid ``optimize_deadline`` searches for this pair and law."""
    t_lo = t_underline(pair)
    alpha = deadline._alpha(pair)
    t_hi = max(2.0 * t_lo, t_lo + max(1.0 / pair.r, 1.0))
    while deadline._brackets(pair, dist, t_hi, alpha)[0] >= 0.0:
        t_hi = t_lo + 2.0 * (t_hi - t_lo)
    n = deadline.N_SCAN
    return [t_lo + (t_hi - t_lo) * i / n for i in range(n + 1)]


def normalized(atoms):
    total = math.fsum(p for _, p in atoms)
    return from_atoms([(t, p / total) for t, p in atoms])


def random_law(rng, pair):
    kind = rng.randrange(5)
    m = rng.choice((1, 2, 3, 5, 8, 16, 32, 64, 128, 256))
    scale = rng.uniform(0.3, 3.0) / pair.r
    if kind == 0:
        return discretize("exponential", m, rate=1.0 / scale)
    if kind == 1:
        return discretize("weibull", m, shape=rng.uniform(0.5, 4.0), scale=scale)
    if kind == 2:
        return from_atoms([(rng.uniform(0.0, 3.0) * scale, 1.0)])
    if kind == 3:  # mass at t=0 pulls the bracket below zero at t_underline
        return normalized([(0.0, rng.uniform(1.0, 4.0)), (scale, 1.0)])
    return grid_law(rng, pair, m, scale)


def grid_law(rng, pair, m, scale):
    """Up to 16 atoms exactly on grid times; the grid moves with the law,
    so settle it."""
    law = from_atoms([(scale, 1.0)])
    for _ in range(5):
        ts = scan_grid(pair, law)
        picks = sorted(rng.sample(range(deadline.N_SCAN + 1), min(m, 16)))
        law = normalized([(ts[i], rng.uniform(0.1, 1.0)) for i in picks])
        if set(law.times) <= set(scan_grid(pair, law)):
            return law
    return law


def test_grid_search_matches_full_scan(monkeypatch):
    rng = random.Random(20201)
    cases, on_grid, negative_at_t_lo = [], 0, 0
    while len(cases) < 320:
        try:
            pair = random_affine_pair(rng)
            t_underline(pair)
        except ModelAssumptionError:
            continue
        dist = random_law(rng, pair)
        cases.append((pair, dist))
        on_grid += set(dist.times) <= set(scan_grid(pair, dist))
        t_lo = t_underline(pair)
        negative_at_t_lo += deadline._brackets(pair, dist, t_lo,
                                               deadline._alpha(pair))[0] < 0.0

    searched = [optimize_deadline(pair, dist) for pair, dist in cases]
    monkeypatch.setattr(deadline, "affine_gap", lambda *a, **k: math.inf)
    monkeypatch.setattr(deadline, "crossing_cells", full_scan)
    scanned = [optimize_deadline(pair, dist) for pair, dist in cases]

    for fast, full in zip(searched, scanned):
        assert not any("affine" in w for w in fast.warnings)
        assert any("affine" in w for w in full.warnings)
        assert fast.T.hex() == full.T.hex()
        assert fast.payoff.hex() == full.payoff.hex()
        assert fast.foc == full.foc
        assert fast.t_underline == full.t_underline
        assert fast.mechanism == full.mechanism
    assert on_grid >= 40
    assert negative_at_t_lo >= 20


# ------------------------------------------- curved search against full scan ---

SWEEP_SHADOWS = (0.5, 0.2, 0.1, 0.05)


def random_curved_pair(rng):
    """A pair whose ``f0`` is usually curved on ``[u_star, u0]``: an
    insurance pair at one of the sweep shadows, fixture B rescaled with a
    random ``f1`` curvature and peak, or fixture B sampled at 7-41
    breakpoints."""
    r = rng.uniform(0.2, 3.0)
    kind = rng.randrange(4)
    if kind == 0:  # one in four: the full scans of these cost the most
        p = UiPrimitives(a=rng.uniform(0.3, 0.8), b=rng.uniform(1.5, 3.0),
                         w=rng.uniform(0.5, 2.0), shadow=rng.choice(SWEEP_SHADOWS))
        return build_frontiers(p, r)
    if kind % 2:
        su, sv = rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0)
        c, k, u1 = rng.uniform(1.2, 2.0), rng.uniform(1.1, 4.0), rng.uniform(0.3, 0.95)
        f0 = ParametricFrontier(fn=lambda u: sv * b_f0(u / su), u_lo=0.0,
                                u_hi=1.2 * su, dfn=lambda u: sv * b_f0_d(u / su) / su)
        f1 = ParametricFrontier(fn=lambda u: sv * (c - k * (u / su - u1) ** 2),
                                u_lo=0.0, u_hi=1.2 * su,
                                dfn=lambda u: -2.0 * sv * k * (u / su - u1) / su)
        return TechnologyPair.build(f0, f1, r)
    n = rng.randint(7, 41)
    us = [0.0] + sorted(rng.uniform(0.0, 1.2) for _ in range(n - 2)) + [1.2]
    return TechnologyPair.build(PiecewiseFrontier([(u, b_f0(u)) for u in us]),
                                PiecewiseFrontier([(u, b_f1(u)) for u in us]), r)


def deadline_outcome(pair, dist):
    """Every float of the optimum by ``.hex()``, or the message of the
    error it raised."""
    try:
        opt = optimize_deadline(pair, dist)
    except DiscloseError as exc:
        return type(exc).__name__, str(exc)
    foc = dataclasses.astuple(opt.foc)
    return (opt.T.hex(), opt.payoff.hex(), opt.t_underline.hex(),
            tuple(v.hex() if isinstance(v, float) else v for v in foc),
            opt.warnings, [t.hex() for t in opt.mechanism.grid],
            [x.hex() for x in opt.mechanism.levels], opt.mechanism.reward)


def test_curved_search_matches_full_scan(monkeypatch):
    rng = random.Random(20210)
    cases, on_grid = [], 0
    while len(cases) < 300:
        try:
            pair = random_curved_pair(rng)
            t_underline(pair)
        except DiscloseError:
            continue
        u0, ustar = float(pair.u0), float(pair.u_star)
        if affine_gap(pair.f0, ustar, u0, step=(u0 - ustar) / 257) <= deadline.AFFINE_TOL:
            continue
        # mostly few atoms, which keeps the full scans cheap; one law in
        # five puts its atoms on grid points, the ends of the cells they rise in
        m = rng.choice((32, 64, 128) if rng.random() < 0.1 else (2, 3, 4, 6, 8, 12, 16))
        scale = rng.uniform(0.3, 3.0) / pair.r
        kind = rng.randrange(5)
        if kind == 0:
            dist = grid_law(rng, pair, m, scale)
            on_grid += set(dist.times) <= set(scan_grid(pair, dist))
        elif kind % 2:
            dist = discretize("exponential", m, rate=1.0 / scale)
        else:
            dist = discretize("weibull", m, shape=rng.uniform(0.5, 4.0), scale=scale)
        cases.append((pair, dist))

    evals = Counter()
    brackets = deadline._brackets

    def counted(*args):
        evals[deadline.crossing_cells is full_scan] += 1
        return brackets(*args)

    monkeypatch.setattr(deadline, "_brackets", counted)
    searched = [deadline_outcome(pair, dist) for pair, dist in cases]
    monkeypatch.setattr(deadline, "crossing_cells", full_scan)
    scanned = [deadline_outcome(pair, dist) for pair, dist in cases]

    assert searched == scanned
    solved = [o for o in searched if len(o) > 2]
    assert len(solved) >= 290
    assert all(any("affine" in w for w in o[4]) for o in solved)
    assert on_grid >= 30
    assert 4 * evals[False] < evals[True]
