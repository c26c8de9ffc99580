"""Metamorphic checks: answers that must not change when the input is moved.

The model is invariant under translating the agent-utility axis: moving
both frontiers by ``k`` keeps the model checks, the strictly-concave
classification, the payoffs and the optimal deadline, and moves every
level by ``k``.  The
shifts include ``k < 0``, which puts ``u_star`` below zero.

It is invariant under scaling both axes by ``s`` as well: the optimal
deadline stays, and every level and payoff scales by ``s``.  A power of two
scales exactly in floats, so the smooth fixture B, whose every search is
relative to its bracket, gives the same answers at ``s = 2^k`` as at unit
scale.  Its strictly-concave classification does not scale yet: the
second-difference bound in ``simple_reasons`` is absolute (ROADMAP item 5).
"""

from __future__ import annotations

import pytest

from disclose import PiecewiseFrontier, TechnologyPair, optimize_deadline, solve
from disclose.errors import NotSimple
from disclose.euler import simple_reasons
from disclose.frontier import validate_model

from conftest import scaled, translated
from test_golden import DENSE_B_TECH

TOL = 1e-12


@pytest.fixture(scope="module")
def pair_dense_b():
    return TechnologyPair.build(
        PiecewiseFrontier(tuple(map(tuple, DENSE_B_TECH["f0"]))),
        PiecewiseFrontier(tuple(map(tuple, DENSE_B_TECH["f1"]))), 1.0)


def shifts(pair):
    return (-0.5 * pair.u0, 0.05 * pair.u0, 1.0)


@pytest.mark.parametrize("name", ("pair_b", "pair_ui", "pair_dense_b"))
def test_path_invariant_under_translation(name, request, dist_exp8):
    pair = request.getfixturevalue(name)
    base = solve(pair, dist_exp8)
    for k in shifts(pair):
        moved = translated(pair, k)
        # the peaks and u_star are searched to 1e-10 or finer
        assert (moved.u0 - k, moved.u1 - k, moved.u_star - k) == pytest.approx(
            (pair.u0, pair.u1, pair.u_star), abs=1e-9)
        assert simple_reasons(moved) == simple_reasons(pair) == ()
        sol = solve(moved, dist_exp8)
        assert sol.payoff == pytest.approx(base.payoff, abs=TOL)
        assert sol.lam - k == pytest.approx(base.lam, abs=TOL)
        assert [v - k for v in sol.levels] == pytest.approx(base.levels, abs=TOL)
        assert [v - k for v in sol.conts] == pytest.approx(base.conts, abs=TOL)


def test_deadline_invariant_under_translation(pair_a, dist_exp8):
    base = optimize_deadline(pair_a, dist_exp8)
    for k in shifts(pair_a):
        best = optimize_deadline(translated(pair_a, k), dist_exp8)
        assert best.T == pytest.approx(base.T, abs=TOL)
        assert best.payoff == pytest.approx(base.payoff, abs=TOL)


@pytest.mark.parametrize("name", ("pair_a", "pair_b", "pair_ui"))
def test_model_checks_invariant_under_translation(name, request):
    pair = request.getfixturevalue(name)
    for k in shifts(pair):
        failed = [c for c in validate_model(translated(pair, k)) if not c.passed]
        assert failed == [], k


# powers of two that fixture B is scaled by; below 2^-13 its second
# differences miss simple_reasons' absolute -1e-9 bound
SCALES = (-50, -30, -20, -13, -7, 7, 13, 30)
NOT_SIMPLE_BELOW = -13


def rel(expected):
    return pytest.approx(expected, rel=TOL, abs=0.0)


@pytest.mark.parametrize("k", SCALES)
def test_fixture_b_invariant_under_scaling(k, pair_b, dist_exp8):
    s = 2.0 ** k
    moved = scaled(pair_b, s)
    assert (moved.u0 / s, moved.u1 / s, moved.u_star / s) == rel(
        (pair_b.u0, pair_b.u1, pair_b.u_star))
    base = optimize_deadline(pair_b, dist_exp8)
    best = optimize_deadline(moved, dist_exp8)
    assert best.T == base.T
    assert best.payoff / s == rel(base.payoff)


@pytest.mark.parametrize("k", [
    k if k >= NOT_SIMPLE_BELOW else pytest.param(k, marks=pytest.mark.xfail(
        strict=True, raises=NotSimple,
        reason="ROADMAP item 5: simple_reasons' second-difference bound "
               "-1e-9 is absolute"))
    for k in SCALES])
def test_fixture_b_path_invariant_under_scaling(k, pair_b, dist_exp8):
    s = 2.0 ** k
    base = solve(pair_b, dist_exp8)
    sol = solve(scaled(pair_b, s), dist_exp8)
    assert sol.lam / s == rel(base.lam)
    assert sol.payoff / s == rel(base.payoff)
    assert [v / s for v in sol.levels] == rel(base.levels)
