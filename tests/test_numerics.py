"""Root bracketing, Brent's method, the grid-crossing search and the
clamped root."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from disclose import SolverError
from disclose.numerics import (EPS, bisect_bracket, bisect_down, bisect_up,
                               brent_down, clamped_root, crossing_cells)

from conftest import grid_points


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


# ------------------------------------------------------------ crossing_cells ---

def on_grid(values):
    """``f`` taking ``values[i]`` at the grid point ``i`` of [0, n], plus the
    list of points it was evaluated at."""
    calls = []

    def f(x):
        calls.append(x)
        return values[round(x)]

    return f, calls


def brute_cells(values):
    """Every down-crossing cell of ``values`` on the grid 0..n, pairwise."""
    return [(float(i), values[i], float(i + 1), values[i + 1])
            for i in range(len(values) - 1) if values[i] >= 0.0 > values[i + 1]]


def hexed(result):
    """``crossing_cells`` output with every float as ``.hex()``, so that
    0.0 and -0.0 compare unequal."""
    f_first, f_last, cells = result
    return f_first.hex(), f_last.hex(), [tuple(v.hex() for v in c) for c in cells]


@pytest.mark.parametrize("one_run", [False, True])
@pytest.mark.parametrize("values, cells", [
    ([3.0, 2.0, 1.0, 0.5], []),                            # no crossing
    ([-1.0, -2.0, -3.0], []),                              # f(lo) < 0
    ([1.0, -1.0, -2.0, -3.0], [(0.0, 1.0, 1.0, -1.0)]),    # first cell
    ([3.0, 2.0, 1.0, -1.0], [(2.0, 1.0, 3.0, -1.0)]),      # last cell
    ([2.0, 0.0, -0.0, -1.0], [(2.0, -0.0, 3.0, -1.0)]),    # zeros on grid points
    ([0.0, -1.0], [(0.0, 0.0, 1.0, -1.0)]),                # n = 1
    ([1.0, 0.0], []),                                      # n = 1, ends >= 0
])
def test_crossing_cells_hand_cases(values, cells, one_run):
    """Each case with no rise (one binary-searched run) and with a rise at
    every grid point (the full scan)."""
    f, _ = on_grid(values)
    n = len(values) - 1
    rises = () if one_run else grid_points(0.0, float(n), n)
    assert hexed(crossing_cells(f, 0.0, float(n), n, rises=rises)) == hexed(
        (values[0], values[-1], cells))


def test_crossing_cells_full_scan_finds_every_cell():
    values = [1.0, -1.0, 2.0, 0.0, -3.0]
    f, calls = on_grid(values)
    assert crossing_cells(f, 0.0, 4.0, 4, rises=grid_points(0.0, 4.0, 4)) == (
        1.0, -3.0, [(0.0, 1.0, 1.0, -1.0), (3.0, 0.0, 4.0, -3.0)])
    assert calls == [0.0, 1.0, 2.0, 3.0, 4.0]


def test_crossing_cells_once_binary_searches():
    n = 256
    values = [float(n // 3 - i) for i in range(n + 1)]
    f, calls = on_grid(values)
    _, _, cells = crossing_cells(f, 0.0, float(n), n)
    assert cells == brute_cells(values)
    assert len(calls) == 2 + 8  # the two ends, then log2(n) halvings


def test_crossing_cells_searches_each_run_between_rises():
    # non-increasing, crossing zero in (50, 51], jumping up in (100, 101],
    # then crossing again in (200, 201]
    n = 256
    values = [float(50 - i) if i <= 100 else float(200 - i) for i in range(n + 1)]
    f, calls = on_grid(values)
    _, _, cells = crossing_cells(f, 0.0, float(n), n, rises=(100.5,))
    assert cells == brute_cells(values) == [(50.0, 0.0, 51.0, -1.0),
                                            (200.0, 0.0, 201.0, -1.0)]
    # the ends of the two runs [0, 100] and [101, 256], then halvings of
    # each: ceil(log2 100) = 7 and ceil(log2 155) = 8
    assert calls[:2] == [0.0, 100.0] and {101.0, 256.0} <= set(calls)
    assert len(set(calls)) == len(calls) <= 4 + 7 + 8


def test_crossing_cells_ignores_rises_off_the_grid_cells():
    # a rise at or below lo, or above hi, is in no cell (x_i, x_{i+1}]
    values = [float(3 - i) for i in range(9)]
    runs = []
    for rises in ((), (-1.0, 0.0), (8.5, 100.0)):
        f, calls = on_grid(values)
        runs.append((crossing_cells(f, 0.0, 8.0, 8, rises=rises), calls))
    assert runs[0] == runs[1] == runs[2]


def test_crossing_cells_grid_points():
    seen = []
    crossing_cells(lambda x: seen.append(x) or 1.0, 0.1, 0.7, 3,
                   rises=grid_points(0.1, 0.7, 3))
    assert seen == [0.1 + (0.7 - 0.1) * i / 3 for i in range(4)]


grid_values = st.lists(
    st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
              st.floats(-10.0, 10.0, allow_nan=False)),
    min_size=2, max_size=40)


@given(grid_values)
def test_crossing_cells_once_equals_full_scan_when_non_increasing(values):
    values = sorted(values, reverse=True)
    n = len(values) - 1
    f, _ = on_grid(values)
    full = crossing_cells(f, 0.0, float(n), n, rises=grid_points(0.0, float(n), n))
    assert hexed(crossing_cells(f, 0.0, float(n), n)) == hexed(full)


@given(grid_values)
def test_crossing_cells_full_scan_equals_brute_force(values):
    n = len(values) - 1
    f, calls = on_grid(values)
    assert hexed(crossing_cells(f, 0.0, float(n), n,
                                rises=grid_points(0.0, float(n), n))) == hexed(
        (values[0], values[-1], brute_cells(values)))
    assert calls == grid_points(0.0, float(n), n)


@st.composite
def rising_grid(draw):
    """``(values, rises)``: grid values that do not increase across any
    cell ``(i, i+1]`` holding no rise; rises fall on grid points, between
    them, and outside [0, n]."""
    n = draw(st.integers(1, 48))
    rises = draw(st.lists(st.one_of(st.integers(-1, n + 1).map(float),
                                    st.floats(-1.0, n + 1.0, allow_nan=False)),
                          max_size=8))
    value = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                      st.floats(-10.0, 10.0, allow_nan=False))
    values = [draw(value)]
    for i in range(n):
        v = draw(value)
        if not any(i < x <= i + 1 for x in rises):
            v = min(v, values[-1])
        values.append(v)
    return values, rises


@given(rising_grid())
def test_crossing_cells_between_rises_equals_brute_force(case):
    values, rises = case
    n = len(values) - 1
    f, calls = on_grid(values)
    assert hexed(crossing_cells(f, 0.0, float(n), n, rises=rises)) == hexed(
        (values[0], values[-1], brute_cells(values)))
    assert len(set(calls)) == len(calls) <= n + 1


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
