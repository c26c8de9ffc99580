"""Root bracketing, Brent's method and the clamped root."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from disclose import SolverError
from disclose.numerics import (EPS, bisect_bracket, bisect_down, bisect_up,
                               brent_down, clamped_root)


def test_bisect_down_quadratic_root():
    root = bisect_down(lambda x: 1.0 - x * x, 0.0, 2.0, tol_x=1e-12)
    assert root == pytest.approx(1.0, abs=1e-11)


def test_bisect_down_accepts_precomputed_endpoints():
    calls = []

    def f(x):
        calls.append(x)
        return 0.5 - x

    root = bisect_down(f, 0.0, 1.0, f_lo=0.5, f_hi=-0.5, tol_x=1e-12)
    assert root == pytest.approx(0.5, abs=1e-11)
    assert all(0.0 < x < 1.0 for x in calls)  # endpoints never re-evaluated


def test_bisect_down_tol_f_early_exit():
    evals = []

    def f(x):
        evals.append(x)
        return math.cos(x)

    bisect_down(f, 1.0, 2.0, tol_x=1e-12, tol_f=1e-3)
    assert len(evals) < 20  # far fewer than the ~50 needed for tol_x


def test_bisect_down_requires_bracket():
    with pytest.raises(SolverError):
        bisect_down(lambda x: x + 1.0, 0.0, 1.0, tol_x=1e-12)  # positive at both ends


def test_bisect_up_mirror():
    root = bisect_up(lambda x: x * x - 2.0, 0.0, 2.0, tol_x=1e-12)
    assert root == pytest.approx(math.sqrt(2.0), abs=1e-11)


def test_bisect_bracket_keeps_the_sign_change():
    f = lambda x: 1.0 - x * x
    lo, f_lo, hi, f_hi = bisect_bracket(f, 0.0, 2.0, tol_x=1e-9)
    assert 0.0 < hi - lo <= 1e-9
    # the values it returns are the ones it computed at the final ends
    assert (f_lo, f_hi) == (f(lo), f(hi))
    assert f_lo >= 0.0 > f_hi
    assert bisect_down(f, 0.0, 2.0, tol_x=1e-9) == 0.5 * (lo + hi)
    # an end that never moves keeps the value passed in for it
    assert bisect_bracket(f, 0.0, 4.0, f_lo=7.0, tol_x=2.5) == (0.0, 7.0, 2.0, -3.0)
    # the tol_f early exit returns the midpoint as both ends
    assert bisect_bracket(f, 0.0, 2.0, tol_x=1e-9, tol_f=0.5) == (1.0, 0.0, 1.0, 0.0)


# ---------------------------------------------------------------- brent_down ---

def counted(f):
    """``f`` and the list of points it was evaluated at."""
    calls = []

    def g(x):
        calls.append(x)
        return f(x)

    return g, calls


@pytest.mark.parametrize("f, lo, hi", [
    (lambda x: x + 1.0, 0.0, 1.0),    # positive at both ends
    (lambda x: -x - 1.0, 0.0, 1.0),   # negative at both ends
    (lambda x: x - 0.5, 0.0, 1.0),    # an up-crossing
    (lambda x: math.nan, 0.0, 1.0),   # NaN at the ends
])
def test_brent_down_requires_bracket(f, lo, hi):
    with pytest.raises(SolverError, match="no down-crossing bracket"):
        brent_down(f, lo, hi, tol_x=1e-12)


def test_brent_down_exact_zero_at_an_end():
    f, calls = counted(lambda x: 1.0 - x)
    assert brent_down(f, 1.0, 3.0, tol_x=1e-12) == 1.0
    assert brent_down(f, -1.0, 1.0, tol_x=1e-12) == 1.0
    assert calls == [1.0, 3.0, -1.0, 1.0]  # only the two ends, each time
    assert brent_down(f, 0.0, 1.0, f_lo=0.0, f_hi=-1.0, tol_x=1e-12) == 0.0


def test_brent_down_accepts_precomputed_endpoints():
    f, calls = counted(lambda x: math.cos(x) - x)
    brent_down(f, 0.0, 1.0, f_lo=1.0, f_hi=math.cos(1.0) - 1.0, tol_x=1e-12)
    assert calls and all(0.0 < x < 1.0 for x in calls)


@pytest.mark.parametrize("tol_x", [1e-2, 1e-6, 1e-13])
def test_brent_down_honours_tol_x(tol_x):
    root = 0.7390851332151607  # cos(x) = x
    f, calls = counted(lambda x: math.cos(x) - x)
    x = brent_down(f, 0.0, 1.0, tol_x=tol_x)
    assert abs(x - root) <= tol_x + 4.0 * EPS * abs(x)
    # superlinear: far fewer evaluations than the 47 halvings bisection needs
    assert len(calls) <= 12


def test_brent_down_tol_x_sets_the_work():
    evals = []
    for tol_x in (1e-2, 1e-13):
        f, calls = counted(lambda x: 4.0 - math.exp(x) - x)
        brent_down(f, 0.0, 3.0, tol_x=tol_x)
        evals.append(len(calls))
    assert evals[0] < evals[1]


def test_brent_down_nan_raises():
    f = lambda x: 1.0 - 2.0 * x if x in (0.0, 1.0) else math.nan
    with pytest.raises(SolverError, match="NaN"):
        brent_down(f, 0.0, 1.0, tol_x=1e-12)


def test_brent_down_step_function_stays_bracketed():
    # no interpolation step helps on a step function: the bisection steps
    # must still close the bracket on the jump at 1/3
    f, calls = counted(lambda x: 1.0 if x < 1.0 / 3.0 else -1.0)
    x = brent_down(f, 0.0, 1.0, tol_x=1e-12)
    assert abs(x - 1.0 / 3.0) <= 1e-12
    assert len(calls) <= 2 + 60


@given(st.floats(-10.0, 10.0), st.floats(1e-3, 10.0), st.floats(1e-3, 10.0),
       st.floats(0.0, 3.0), st.floats(0.0, 3.0), st.floats(0.0, 3.0),
       st.floats(0.05, 5.0), st.floats(1e-12, 1e-3))
def test_brent_down_finds_known_root(root, left, right, a, b, c, k, tol_x):
    # a sum of increasing odd functions of root - x (plus a linear term so
    # that it is never flat): strictly decreasing and smooth, with the sign
    # of root - x, so its computed sign changes exactly at root
    def f(x):
        d = root - x
        return a * math.expm1(k * d) + b * d ** 3 + (c + 0.1) * d

    lo, hi = root - left, root + right
    x = brent_down(f, lo, hi, tol_x=tol_x)
    assert lo <= x <= hi
    assert abs(x - root) <= tol_x + 4.0 * EPS * abs(x)


# -------------------------------------------------------------- clamped_root ---

def test_clamped_root_clamps_low():
    calls = []

    def f(x):
        calls.append(x)
        return -1.0 - x

    assert clamped_root(f, 0.0, 1.0, tol_x=1e-12) == 0.0
    assert calls == [0.0]  # the upper end is never needed


def test_clamped_root_clamps_high():
    assert clamped_root(lambda x: 2.0 - x, 0.0, 1.0, tol_x=1e-12) == 1.0
    assert clamped_root(lambda x: 1.0 - x, 0.0, 1.0, tol_x=1e-12) == 1.0  # f(hi) == 0


def test_clamped_root_zero_at_low_end_clamps_low():
    assert clamped_root(lambda x: -x, 0.0, 1.0, tol_x=1e-12) == 0.0


def test_clamped_root_interior_is_bisect_down():
    f = lambda x: math.cos(x) - x
    root = clamped_root(f, 0.0, 1.0, tol_x=1e-13)
    assert root == bisect_down(f, 0.0, 1.0, tol_x=1e-13)
    assert root == pytest.approx(0.7390851332151607, abs=1e-12)
