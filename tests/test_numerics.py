"""Root bracketing."""

from __future__ import annotations

import math

import pytest

from disclose import SolverError
from disclose.numerics import bisect_bracket, bisect_down, bisect_up


def test_bisect_down_quadratic_root():
    root = bisect_down(lambda x: 1.0 - x * x, 0.0, 2.0)
    assert root == pytest.approx(1.0, abs=1e-11)


def test_bisect_down_accepts_precomputed_endpoints():
    calls = []

    def f(x):
        calls.append(x)
        return 0.5 - x

    root = bisect_down(f, 0.0, 1.0, f_lo=0.5, f_hi=-0.5)
    assert root == pytest.approx(0.5, abs=1e-11)
    assert all(0.0 < x < 1.0 for x in calls)  # endpoints never re-evaluated


def test_bisect_down_tol_f_early_exit():
    evals = []

    def f(x):
        evals.append(x)
        return math.cos(x)

    bisect_down(f, 1.0, 2.0, tol_f=1e-3)
    assert len(evals) < 20  # far fewer than the ~50 needed for tol_x


def test_bisect_down_requires_bracket():
    with pytest.raises(SolverError):
        bisect_down(lambda x: x + 1.0, 0.0, 1.0)  # positive at both ends


def test_bisect_up_mirror():
    root = bisect_up(lambda x: x * x - 2.0, 0.0, 2.0)
    assert root == pytest.approx(math.sqrt(2.0), abs=1e-11)


def test_bisect_bracket_keeps_the_sign_change():
    f = lambda x: 1.0 - x * x
    lo, hi = bisect_bracket(f, 0.0, 2.0, tol_x=1e-9)
    assert 0.0 < hi - lo <= 1e-9
    assert f(lo) >= 0.0 > f(hi)
    assert bisect_down(f, 0.0, 2.0, tol_x=1e-9) == 0.5 * (lo + hi)
