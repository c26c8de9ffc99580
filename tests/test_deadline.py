"""Deadline mechanisms: threshold time, payoff derivatives, optimizer.

The first-order bracket for a point mass at t=1 on the piecewise instance
steps through three regimes (chord slope before the atom, then the two
one-sided slopes of the post-breakthrough frontier around its kink), which
pins the optimizer's stopping rule independently of the search logic.  On
random affine and curved pairs, on laws at the edges of the search and on
clustered laws, the optimizer must pay at least what an exhaustive
reference pays (``conftest.exhaustive_deadline``: every atom read, every
smooth crossing piece bisected, every kink event of a piecewise one
scanned), and with an affine ``f0`` land on its deadline.  A piecewise
``f1`` puts each crossing on a kink event, bit for bit, and pays at least
the bisection that closed such pieces before.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

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
from disclose.deadline import FOC_TOL, deadline_mechanism, foc_check
from disclose.distribution import discretize
from disclose.errors import DiscloseError, SolverError
from disclose.frontier import (ParametricFrontier, PiecewiseFrontier, TechnologyPair,
                               affine_gap)
from disclose.insurance import UiPrimitives, build_frontiers

import conftest
from conftest import (A_F0_POINTS, A_F1_POINTS, b_f0, b_f0_d, b_f1,
                      exhaustive_deadline)
from test_golden import WITNESS_ATOMS, WITNESS_TECH
from test_hotpaths import KINKED_F0, random_ui_primitives

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
    assert foc_check(pair_a, dist_point1, T_star, tol=FOC_TOL).satisfied
    assert not foc_check(pair_a, dist_point1, T_star - 0.05, tol=FOC_TOL).satisfied
    assert not foc_check(pair_a, dist_point1, T_star + 0.05, tol=FOC_TOL).satisfied


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


# ------------------------------------------------------ crossing piece root ---

def test_smooth_piece_root_matches_the_bisection_reference(pair_b):
    # the reference bisects every smooth crossing piece to 1e-13 and keeps
    # the endpoint whose bracket is within the FOC tolerance
    rng = random.Random(1913)
    cases = []
    while len(cases) < 24:
        try:
            pair = build_frontiers(random_ui_primitives(rng), rng.uniform(0.5, 2.0))
            t_underline(pair)
        except DiscloseError:
            continue
        cases.append((pair, discretize("exponential", rng.choice((2, 8, 16, 32)),
                                       rate=rng.uniform(0.3, 3.0))))
    for _ in range(24):
        m = rng.choice((1, 4, 16, 64))
        cases.append((pair_b, discretize("weibull", m, shape=rng.uniform(0.5, 4.0),
                                         scale=rng.uniform(0.3, 3.0))
                      if rng.random() < 0.5 else
                      discretize("exponential", m, rate=rng.uniform(0.3, 3.0))))
    for pair, dist in cases:
        res = optimize_deadline(pair, dist)
        t_ref, pi_ref = exhaustive_deadline(pair, dist)
        assert abs(res.T - t_ref) <= 1e-12
        # the payoff is flat at a stationary point: only its rounding moves
        assert res.payoff >= pi_ref - 4 * math.ulp(pi_ref)


# ---------------------------------------- affine search against full scan ---

def random_affine_pair(rng, kind=None):
    """A pair with ``f0`` affine on ``[u_star, u0]``: rescaled fixture A
    (kind 0), a random concave piecewise ``f1`` above the tent ``f0`` (1),
    or a smooth quadratic ``f1`` over a chord ``f0`` (2); a random kind
    unless one is given."""
    r = rng.uniform(0.2, 3.0)
    if kind is None:
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
    return clustered_law(rng, pair, m, scale)


def clustered_law(rng, pair, m, scale):
    """Up to 16 atoms in one to three tight clusters, and one law in three
    with an atom exactly at ``t_underline``: the bracket jumps at atoms
    close together, or at the first point of the search."""
    t_lo = t_underline(pair)
    centers = [t_lo + rng.uniform(-0.5, 3.0) * scale for _ in range(rng.randint(1, 3))]
    width = rng.choice((1e-3, 1e-2, 1e-1)) * scale
    atoms = [(max(0.0, rng.choice(centers) + rng.uniform(0.0, width)),
              rng.uniform(0.1, 1.0)) for _ in range(min(m, 16))]
    if rng.random() < 1.0 / 3.0:
        atoms.append((t_lo, rng.uniform(0.1, 1.0)))
    return normalized(atoms)


def assert_matches_reference(res, pair, dist, *, same_t):
    """The optimum pays at least the exhaustive reference (1e-12 relative)
    and, when ``same_t``, sits within 1e-13 of its deadline."""
    t_ref, pi_ref = exhaustive_deadline(pair, dist)
    assert res.payoff >= pi_ref - 1e-12 * abs(pi_ref)
    if same_t:
        assert abs(res.T - t_ref) <= 1e-13


def test_affine_search_matches_full_scan():
    rng = random.Random(20201)
    cases, at_t_lo, negative_at_t_lo = [], 0, 0
    while len(cases) < 320:
        try:
            pair = random_affine_pair(rng)
            t_underline(pair)
        except ModelAssumptionError:
            continue
        dist = random_law(rng, pair)
        cases.append((pair, dist))
        t_lo = t_underline(pair)
        at_t_lo += t_lo in dist.times
        negative_at_t_lo += deadline._brackets(pair, dist, t_lo,
                                               deadline._alpha(pair))[0] < 0.0

    for pair, dist in cases:
        res = optimize_deadline(pair, dist)
        assert not any("affine" in w for w in res.warnings)
        assert_matches_reference(res, pair, dist, same_t=True)
    assert at_t_lo >= 10
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


def test_curved_search_matches_full_scan(monkeypatch):
    rng = random.Random(20210)
    cases, clustered = [], 0
    while len(cases) < 300:
        try:
            pair = random_curved_pair(rng)
            t_underline(pair)
        except DiscloseError:
            continue
        u0, ustar = float(pair.u0), float(pair.u_star)
        if affine_gap(pair.f0, ustar, u0) <= deadline.AFFINE_TOL:
            continue
        # mostly few atoms, which keeps the reference cheap; one law in
        # five clusters its atoms
        m = rng.choice((32, 64, 128) if rng.random() < 0.1 else (2, 3, 4, 6, 8, 12, 16))
        scale = rng.uniform(0.3, 3.0) / pair.r
        kind = rng.randrange(5)
        if kind == 0:
            dist = clustered_law(rng, pair, m, scale)
            clustered += 1
        elif kind % 2:
            dist = discretize("exponential", m, rate=1.0 / scale)
        else:
            dist = discretize("weibull", m, shape=rng.uniform(0.5, 4.0), scale=scale)
        cases.append((pair, dist))

    evals = Counter()
    brackets = deadline._brackets
    searching = True

    def counted(*args):
        evals[searching] += 1
        return brackets(*args)

    monkeypatch.setattr(deadline, "_brackets", counted)
    monkeypatch.setattr(conftest, "_brackets", counted)
    solved = []
    for pair, dist in cases:
        try:
            solved.append((optimize_deadline(pair, dist), pair, dist))
        except DiscloseError:
            pass
    searching = False
    for res, pair, dist in solved:
        assert any("affine" in w for w in res.warnings)
        assert_matches_reference(res, pair, dist, same_t=False)
    assert len(solved) >= 290
    assert clustered >= 30
    # both close the same pieces; the search reads fewer atoms
    assert evals[True] < evals[False]


# ------------------------------------------------- later stationary points ---

def late_cluster_pair():
    return TechnologyPair.build(PiecewiseFrontier(WITNESS_TECH["f0"]),
                                PiecewiseFrontier(WITNESS_TECH["f1"]), 1.38)


# laws as atoms placed relative to t_underline, each at an edge of the search
EDGE_LAWS = {
    "all-before-threshold": lambda t: [(0.1 * t, 0.5), (0.5 * t, 0.5)],
    "mass-at-zero": lambda t: [(0.0, 0.6), (t + 0.5, 0.4)],
    "atom-at-threshold": lambda t: [(t, 0.5), (t + 1.0, 0.5)],
    "just-after-threshold": lambda t: [(t + 1e-12, 0.3), (t + 2.0, 0.7)],
    "far-last-atom": lambda t: [(t + 0.3, 0.9), (t + 40.0, 0.1)],
    "tight-cluster": lambda t: [(t + 0.7 + 1e-9 * i, 0.125) for i in range(8)],
}


@pytest.mark.parametrize("law", EDGE_LAWS)
@pytest.mark.parametrize("pair_name", ["pair_a", "pair_b", "late-cluster"])
def test_search_matches_reference_on_edge_laws(request, pair_name, law):
    pair = (late_cluster_pair() if pair_name == "late-cluster"
            else request.getfixturevalue(pair_name))
    dist = from_atoms(EDGE_LAWS[law](t_underline(pair)))
    res = optimize_deadline(pair, dist)
    assert res.T >= res.t_underline
    assert_matches_reference(res, pair, dist, same_t=True)


def test_weibull_witness_finds_the_later_crossing(pair_b):
    # fixture B with a flatter, earlier-peaked f1: the bracket crosses zero
    # just after an atom it jumps up at, then again inside the next piece
    f1 = ParametricFrontier(fn=lambda u: 1.45 - 1.78238 * (u - 0.45869) ** 2,
                            u_lo=0.0, u_hi=1.2,
                            dfn=lambda u: -2.0 * 1.78238 * (u - 0.45869))
    pair = TechnologyPair.build(pair_b.f0, f1, 2.21504)
    dist = discretize("weibull", 64, shape=2.75597, scale=2.15504)
    res = optimize_deadline(pair, dist)
    assert res.T == pytest.approx(2.0638977575786077, abs=1e-12)
    assert res.payoff > deadline_payoff(pair, dist, 2.0578025063298620)
    assert res.foc.satisfied
    assert_matches_reference(res, pair, dist, same_t=True)


# fixture B under 15 atoms in three clusters (a clustered_law draw, times
# rounded to 1e-4 and masses to 1e-3): the bracket falls through zero at
# T = 5.99970 and, after the jumps at the second cluster lift it, again at
# 6.94240; the jumps at the third cluster lift it once more, to the best
# stationary point at 7.29244.  A search that ignored the jumps would stop
# at 6.94240
CLUSTERED_WITNESS = [
    [2.3522, 85], [2.3575, 55], [2.3594, 109], [2.3598, 53], [2.3637, 60],
    [2.3665, 85], [2.3672, 73], [6.5887, 27], [6.591, 89], [6.5923, 21],
    [6.5991, 77], [7.1052, 18], [7.11, 84], [7.1243, 48], [7.1258, 115]]


def test_clustered_witness_finds_the_last_stationary_point(pair_b):
    dist = normalized(CLUSTERED_WITNESS)
    res = optimize_deadline(pair_b, dist)
    assert res.T == pytest.approx(7.29243638110346, abs=1e-12)
    assert res.payoff == pytest.approx(1.0159047889808812, abs=1e-12)
    for t_earlier in (5.999696534898882, 6.94239592900363):
        assert res.payoff > deadline_payoff(pair_b, dist, t_earlier) + 4e-6
    assert res.foc.satisfied
    assert_matches_reference(res, pair_b, dist, same_t=True)


@pytest.mark.parametrize("atoms, t_star", [
    # two light atoms where the bracket is negative: the search splits at
    # 2.4 with a negative bracket on both sides, and only the jumps of the
    # cluster after it lift the bracket to the better stationary point
    (WITNESS_ATOMS + [[2.3, 0.002], [2.4, 0.002]], 2.7287618787134225),
    # a lighter cluster and four light atoms after it: the search splits at
    # 2.632 with a positive bracket on both sides, and the better stationary
    # point is the one before the bracket dips below zero
    ([[0.63, 0.32], [2.55, 0.3], [2.63, 0.15], [2.632, 0.15]]
     + [[3.0 + 0.2 * i, 0.01] for i in range(4)], 2.1368416968694466),
], ids=["negative-ends", "positive-ends"])
def test_search_sees_past_the_signs_at_a_split(atoms, t_star):
    pair = late_cluster_pair()
    dist = normalized(atoms)
    res = optimize_deadline(pair, dist)
    assert res.T == pytest.approx(t_star, abs=1e-12)
    assert res.foc.satisfied
    assert_matches_reference(res, pair, dist, same_t=True)


@st.composite
def clustered_case(draw):
    """Fixture B with a random quadratic ``f1`` and rate, and a law of up
    to 12 atoms in one or two clusters of width 1e-3 to 0.1, placed from
    just before ``t_underline`` on."""
    k = draw(st.floats(1.1, 4.0))
    u1 = draw(st.floats(0.3, 0.95))
    r = draw(st.floats(0.3, 3.0))
    f0 = ParametricFrontier(fn=b_f0, u_lo=0.0, u_hi=1.2, dfn=b_f0_d)
    f1 = ParametricFrontier(fn=lambda u: 1.45 - k * (u - u1) ** 2, u_lo=0.0,
                            u_hi=1.2, dfn=lambda u: -2.0 * k * (u - u1))
    try:
        pair = TechnologyPair.build(f0, f1, r)
        t_lo = t_underline(pair)
    except DiscloseError:
        assume(False)
    width = draw(st.sampled_from((1e-3, 1e-2, 1e-1))) / r
    centers = draw(st.lists(st.floats(-0.5, 3.0), min_size=1, max_size=2))
    atoms = draw(st.lists(
        st.tuples(st.sampled_from(centers), st.floats(0.0, 1.0), st.floats(0.1, 1.0)),
        min_size=1, max_size=12))
    return pair, normalized([(max(0.0, t_lo + c / r + x * width), p)
                             for c, x, p in atoms])


@settings(max_examples=60, deadline=None)
@given(clustered_case())
def test_search_pays_the_reference_on_clustered_laws(case):
    pair, dist = case
    assert_matches_reference(optimize_deadline(pair, dist), pair, dist, same_t=False)


# ------------------------------------------------ piecewise f1: kink events ---

def kink_events(pair, dist) -> set:
    """Every ``t_k + _deadline_for(pair, b)``: an atom ``t_k`` and an ``f1``
    breakpoint ``b`` in ``(u_star, u0)``."""
    return {t + deadline._deadline_for(pair, float(u)) for t in dist.times
            for u, _ in pair.f1.points if pair.u_star < u < pair.u0}


@pytest.mark.parametrize("cut", range(5))
def test_kink_crossing_returns_the_event_where_the_bracket_turns(cut):
    # atoms 0 and 0.5, lags 1.2, 1.7 and 2.3: the events inside (0.5, 3.0)
    # are 1.2, 1.7 (twice), 2.2, 2.3 and 2.8; a step at each in turn
    events = [1.2, 1.7, 2.2, 2.3, 2.8]
    reads = []

    def right(T):
        reads.append(T)
        return 1.0 if T < events[cut] else -1.0

    lags = [1.2, 1.7, 2.3]
    assert deadline._kink_crossing(right, (0.0, 0.5), lags, 0.5, 3.0) == events[cut]
    assert len(reads) <= 3  # a binary search over six intervals
    assert all(0.5 < T < 3.0 and T not in events for T in reads)


def test_kink_crossing_without_an_event_returns_the_piece_end():
    # a piece with no event inside straddles zero only by roundoff: the
    # stated rule is its right end, and no bracket is read
    def right(T):
        raise AssertionError("no bracket read")

    assert deadline._kink_crossing(right, (0.0, 1.0), [5.0], 1.0, 2.0) == 2.0
    assert deadline._kink_crossing(right, (0.0, 1.0), [], 1.0, 2.0) == 2.0
    # a single event needs no read either
    assert deadline._kink_crossing(right, (0.0, 1.0), [0.75], 1.0, 2.0) == 1.75


def test_kink_crossing_nan_bracket_raises():
    with pytest.raises(SolverError, match="NaN"):
        deadline._kink_crossing(lambda T: math.nan, (0.0,), [1.0, 2.0, 3.0], 0.5, 4.0)


@st.composite
def piecewise_case(draw):
    """A piecewise pair, fixture A rescaled, a random concave ``f1`` over
    the tent ``f0`` (:func:`random_affine_pair` kinds 0 and 1) or the
    kinked ``f0`` under fixture A's ``f1``, rescaled, with a
    :func:`random_law`."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from((0, 1, "kinked")))
    try:
        if kind == "kinked":
            su, sv = rng.uniform(0.2, 5.0), rng.uniform(0.2, 5.0)
            f0, f1 = (PiecewiseFrontier([(u * su, v * sv) for u, v in pts])
                      for pts in (KINKED_F0, A_F1_POINTS))
            pair = TechnologyPair.build(f0, f1, rng.uniform(0.2, 3.0))
        else:
            pair = random_affine_pair(rng, kind)
        t_underline(pair)
    except ModelAssumptionError:
        assume(False)
    return pair, random_law(rng, pair)


@settings(max_examples=80, deadline=None)
@given(piecewise_case())
def test_piecewise_crossings_sit_on_kink_events(case):
    pair, dist = case
    crossings = []
    close = deadline._kink_crossing

    def spy(*args):
        crossings.append(close(*args))
        return crossings[-1]

    with mock.patch.object(deadline, "_kink_crossing", spy):
        res = optimize_deadline(pair, dist)
    events = kink_events(pair, dist)
    assert all(T in events for T in crossings)
    assert res.foc.satisfied
    _, pi_old = exhaustive_deadline(pair, dist, bisect=True)
    assert res.payoff >= pi_old - 1e-12 * abs(pi_old)
