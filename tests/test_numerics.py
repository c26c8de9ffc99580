"""Root bracketing, the grid-crossing search and the clamped root."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from disclose import SolverError
from disclose.numerics import (bisect_bracket, bisect_down, bisect_up,
                               clamped_root, crossing_cells)


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


@pytest.mark.parametrize("once", [False, True])
@pytest.mark.parametrize("values, cells", [
    ([3.0, 2.0, 1.0, 0.5], []),                            # no crossing
    ([-1.0, -2.0, -3.0], []),                              # f(lo) < 0
    ([1.0, -1.0, -2.0, -3.0], [(0.0, 1.0, 1.0, -1.0)]),    # first cell
    ([3.0, 2.0, 1.0, -1.0], [(2.0, 1.0, 3.0, -1.0)]),      # last cell
    ([2.0, 0.0, -0.0, -1.0], [(2.0, -0.0, 3.0, -1.0)]),    # zeros on grid points
    ([0.0, -1.0], [(0.0, 0.0, 1.0, -1.0)]),                # n = 1
    ([1.0, 0.0], []),                                      # n = 1, ends >= 0
])
def test_crossing_cells_hand_cases(values, cells, once):
    f, _ = on_grid(values)
    n = len(values) - 1
    assert hexed(crossing_cells(f, 0.0, float(n), n, once=once)) == hexed(
        (values[0], values[-1], cells))


def test_crossing_cells_full_scan_finds_every_cell():
    values = [1.0, -1.0, 2.0, 0.0, -3.0]
    f, calls = on_grid(values)
    assert crossing_cells(f, 0.0, 4.0, 4, once=False) == (
        1.0, -3.0, [(0.0, 1.0, 1.0, -1.0), (3.0, 0.0, 4.0, -3.0)])
    assert len(calls) == 5


def test_crossing_cells_once_binary_searches():
    n = 256
    values = [float(n // 3 - i) for i in range(n + 1)]
    f, calls = on_grid(values)
    _, _, cells = crossing_cells(f, 0.0, float(n), n, once=True)
    assert cells == brute_cells(values)
    assert len(calls) == 2 + 8  # the two ends, then log2(n) halvings


def test_crossing_cells_grid_points():
    seen = []
    crossing_cells(lambda x: seen.append(x) or 1.0, 0.1, 0.7, 3, once=False)
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
    full = crossing_cells(f, 0.0, float(n), n, once=False)
    assert hexed(crossing_cells(f, 0.0, float(n), n, once=True)) == hexed(full)


@given(grid_values)
def test_crossing_cells_full_scan_equals_brute_force(values):
    n = len(values) - 1
    f, _ = on_grid(values)
    assert hexed(crossing_cells(f, 0.0, float(n), n, once=False)) == hexed(
        (values[0], values[-1], brute_cells(values)))


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
