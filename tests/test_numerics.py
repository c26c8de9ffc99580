"""Root bracketing: bisection and Brent's method.

Every root finder but ``bisect_up`` takes ``f`` at both bracket ends from
its caller; :func:`ends` reads them as a caller would, through the same
``f``, so evaluation counts include the two ends."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from disclose import SolverError
from disclose import numerics
from disclose.numerics import EPS, bisect_down, bisect_up, brent_down


def ends(f, lo, hi) -> dict:
    """``f_lo`` and ``f_hi`` for a root finder, low end first."""
    return {"f_lo": f(lo), "f_hi": f(hi)}


def counted(f):
    """``f`` and the list of points it was evaluated at."""
    calls = []

    def g(x):
        calls.append(x)
        return f(x)

    return g, calls


def search(root, f, lo, hi, **kwargs):
    """``root`` on ``[lo, hi]``, given both ends unless it reads them itself."""
    if root is not bisect_up:
        kwargs.update(ends(f, lo, hi))
    return root(f, lo, hi, **kwargs)


def test_bisect_down_quadratic_root():
    f = lambda x: 1.0 - x * x
    root = bisect_down(f, 0.0, 2.0, **ends(f, 0.0, 2.0), tol_x=1e-12)
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

    bisect_down(f, 1.0, 2.0, **ends(f, 1.0, 2.0), tol_x=1e-12, tol_f=1e-3)
    assert len(evals) < 20  # far fewer than the ~50 needed for tol_x


def test_bisect_down_requires_bracket():
    with pytest.raises(SolverError):
        bisect_down(lambda x: x + 1.0, 0.0, 1.0, f_lo=1.0, f_hi=2.0,
                    tol_x=1e-12)  # positive at both ends


# each bisection with the sign that turns a down-crossing into its bracket
BISECTIONS = [(bisect_down, 1.0), (bisect_up, -1.0)]


@pytest.mark.parametrize("root, sign", BISECTIONS)
@pytest.mark.parametrize("f", [
    lambda x: math.nan,                           # NaN at both ends
    lambda x: math.nan if x == 0.0 else -1.0,     # NaN at the low end
    lambda x: 1.0 if x == 0.0 else math.nan,      # NaN at the high end
])
def test_bisection_nan_at_an_end_raises(root, sign, f):
    # a NaN end value never passes for a bracket, as in brent_down
    with pytest.raises(SolverError, match="no down-crossing bracket"):
        search(root, lambda x: sign * f(x), 0.0, 2.0, tol_x=1e-12)


@pytest.mark.parametrize("root, sign", BISECTIONS)
def test_bisection_nan_midpoint_raises(root, sign):
    # a valid bracket whose first midpoint is NaN
    f = lambda x: sign * (1.0 - 2.0 * x) if x in (0.0, 1.0) else math.nan
    with pytest.raises(SolverError, match="NaN"):
        search(root, f, 0.0, 1.0, tol_x=1e-12)


def test_bisect_up_mirror():
    # the root is the end of the final bracket where f <= 0
    root = bisect_up(lambda x: x * x - 2.0, 0.0, 2.0, tol_x=1e-12)
    assert root == pytest.approx(math.sqrt(2.0), abs=1e-11)
    assert root * root - 2.0 <= 0.0
    # a bracket already narrower than tol_x, and one where no midpoint has
    # f <= 0, both return lo
    assert bisect_up(lambda x: x - 1.0, 0.5, 2.0, tol_x=2.0) == 0.5
    assert bisect_up(lambda x: -1.0 if x == 0.0 else 1.0, 0.0, 1.0,
                     tol_x=1e-3) == 0.0


def test_bisect_up_is_one_bisect_down_call(monkeypatch):
    # the benchmark tracer counts a bisect_up as one root find by skipping
    # the single bisect_down it delegates to, and counts every evaluation
    # of the callable bisect_up was handed: f at both ends, then once per
    # midpoint of the mirrored bisection; the root is the low end of that
    # bisection's final bracket, where f <= 0, not its midpoint
    orig, delegated = numerics.bisect_down, []

    def spy(g, lo, hi, **kwargs):
        delegated.append((lo, hi))
        return orig(g, lo, hi, **kwargs)

    monkeypatch.setattr(numerics, "bisect_down", spy)
    f, calls = counted(lambda x: x * x - 2.0)
    root = bisect_up(f, 0.0, 2.0, tol_x=1e-12)
    assert delegated == [(0.0, 2.0)]
    g, mirrored = counted(lambda x: 2.0 - x * x)
    mid = orig(g, 0.0, 2.0, f_lo=2.0, f_hi=-2.0, tol_x=1e-12)
    assert calls[:2] == [0.0, 2.0] and calls[2:] == mirrored
    lo = max(x for x in mirrored if 2.0 - x * x >= 0.0)
    hi = min(x for x in mirrored if 2.0 - x * x < 0.0)
    assert root == lo and mid == 0.5 * (lo + hi)


def test_bisect_down_returns_the_midpoint_of_the_final_bracket():
    f, calls = counted(lambda x: 1.0 - x * x)
    root = bisect_down(f, 0.0, 2.0, f_lo=1.0, f_hi=-3.0, tol_x=1e-9)
    # the final bracket's ends are the last midpoints read on each side of
    # the sign change, and the root is halfway between them
    lo = max(x for x in calls if 1.0 - x * x >= 0.0)
    hi = min(x for x in calls if 1.0 - x * x < 0.0)
    assert 0.0 < hi - lo <= 1e-9 and root == 0.5 * (lo + hi)
    # the ends are never read: one halving of [0, 4] leaves [0, 2]
    f, calls = counted(lambda x: 1.0 - x * x)
    assert bisect_down(f, 0.0, 4.0, f_lo=7.0, f_hi=-15.0, tol_x=2.5) == 1.0
    assert calls == [2.0]
    # the tol_f early exit returns the midpoint
    assert bisect_down(f, 0.0, 2.0, f_lo=1.0, f_hi=-3.0, tol_x=1e-9,
                       tol_f=0.5) == 1.0


# ---------------------------------------------------------------- brent_down ---

@pytest.mark.parametrize("f, lo, hi", [
    (lambda x: x + 1.0, 0.0, 1.0),    # positive at both ends
    (lambda x: -x - 1.0, 0.0, 1.0),   # negative at both ends
    (lambda x: x - 0.5, 0.0, 1.0),    # an up-crossing
    (lambda x: math.nan, 0.0, 1.0),   # NaN at the ends
])
def test_brent_down_requires_bracket(f, lo, hi):
    with pytest.raises(SolverError, match="no down-crossing bracket"):
        brent_down(f, lo, hi, **ends(f, lo, hi), tol_x=1e-12)


def test_brent_down_exact_zero_at_an_end():
    f, calls = counted(lambda x: 1.0 - x)
    assert brent_down(f, 1.0, 3.0, **ends(f, 1.0, 3.0), tol_x=1e-12) == 1.0
    assert brent_down(f, -1.0, 1.0, **ends(f, -1.0, 1.0), tol_x=1e-12) == 1.0
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
    x = brent_down(f, 0.0, 1.0, **ends(f, 0.0, 1.0), tol_x=tol_x)
    assert abs(x - root) <= tol_x + 4.0 * EPS * abs(x)
    # superlinear: far fewer evaluations than the 47 halvings bisection needs
    assert len(calls) <= 12


def test_brent_down_tol_x_sets_the_work():
    evals = []
    for tol_x in (1e-2, 1e-13):
        f, calls = counted(lambda x: 4.0 - math.exp(x) - x)
        brent_down(f, 0.0, 3.0, **ends(f, 0.0, 3.0), tol_x=tol_x)
        evals.append(len(calls))
    assert evals[0] < evals[1]


def test_brent_down_nan_raises():
    f = lambda x: 1.0 - 2.0 * x if x in (0.0, 1.0) else math.nan
    with pytest.raises(SolverError, match="NaN"):
        brent_down(f, 0.0, 1.0, **ends(f, 0.0, 1.0), tol_x=1e-12)


def test_brent_down_step_function_stays_bracketed():
    # no interpolation step helps on a step function: the bisection steps
    # must still close the bracket on the jump at 1/3
    f, calls = counted(lambda x: 1.0 if x < 1.0 / 3.0 else -1.0)
    x = brent_down(f, 0.0, 1.0, **ends(f, 0.0, 1.0), tol_x=1e-12)
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
    x = brent_down(f, lo, hi, **ends(f, lo, hi), tol_x=tol_x)
    assert lo <= x <= hi
    assert abs(x - root) <= tol_x + 4.0 * EPS * abs(x)
