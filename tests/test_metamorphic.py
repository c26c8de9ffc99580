"""Metamorphic checks: answers that must not change when the input is moved.

The model is invariant under translating the agent-utility axis: moving
both frontiers by ``k`` keeps the model checks, the strictly-concave
classification, the payoffs and the optimal deadline, and moves every
level by ``k``.  The
shifts include ``k < 0``, which puts ``u_star`` below zero.
"""

from __future__ import annotations

import pytest

from disclose import PiecewiseFrontier, TechnologyPair, optimize_deadline, solve
from disclose.euler import simple_reasons
from disclose.frontier import validate_model

from conftest import translated
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
