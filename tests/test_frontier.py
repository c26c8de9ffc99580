"""Frontier representations, shared-slope level, affine gap, model checks."""

from __future__ import annotations

import math
import random
import re
from bisect import bisect_right
from fractions import Fraction
from operator import neg

import pytest
from hypothesis import assume, given, settings, strategies as st

from disclose import (
    ModelAssumptionError,
    ParametricFrontier,
    PiecewiseFrontier,
    TechnologyPair,
    affine_gap,
)
from disclose.errors import SolverError
from disclose.frontier import KINK_SNAP, NEG_INF, is_neg_inf, u_star, validate_model
from disclose.insurance import build_frontiers
from disclose.numerics import brent_down
from conftest import A_F0_EXACT, A_F1_EXACT, b_f0, b_f0_d
from test_golden import DENSE_B_TECH


# ------------------------------------------------------------- piecewise ---

def test_piecewise_value_interior_and_breakpoints(pair_a):
    f0 = pair_a.f0
    assert f0.value(0.5) == 0.5
    assert f0.value(1.0) == 1.0
    assert f0.value(1.5) == 0.5
    # off-domain values are the sentinel, not a float -inf
    v = f0.value(2.5)
    assert is_neg_inf(v)
    assert not isinstance(v, float)


@pytest.mark.parametrize("op", [
    lambda v: v + 1.0, lambda v: 1.0 - v, lambda v: 2.0 * v, lambda v: v / 2.0,
    lambda v: -v, lambda v: abs(v), lambda v: float(v),
])
def test_neg_inf_refuses_arithmetic(op):
    with pytest.raises(TypeError):
        op(NEG_INF)


@pytest.mark.parametrize("op", [
    lambda v: v < 0.0, lambda v: v <= 0.0, lambda v: v > 0.0, lambda v: v >= 0.0,
    lambda v: 0.0 > v, lambda v: v < v, lambda v: max(v, 0.0),
    lambda v: sorted([0.0, v]),
])
def test_neg_inf_refuses_ordering(op):
    # callers test is_neg_inf before ranking a value
    with pytest.raises(TypeError):
        op(NEG_INF)


def test_piecewise_value_preserves_fractions(f1_exact):
    v = f1_exact.value(Fraction(1, 2))
    # on the middle segment of slope 2/5 from (3/10, 6/5)
    assert v == Fraction(6, 5) + Fraction(2, 5) * (Fraction(1, 2) - Fraction(3, 10))
    assert isinstance(v, Fraction)


def test_piecewise_derivs_interior(pair_a):
    assert pair_a.f0.derivs(0.5) == (1.0, 1.0)


def test_piecewise_derivs_kink(pair_a):
    assert pair_a.f1.value(0.3) == pytest.approx(1.2, abs=1e-12)
    d_plus, d_minus = pair_a.f1.derivs(0.3)
    assert d_plus == pytest.approx(0.4, abs=1e-12)
    assert d_minus == pytest.approx(2.0, abs=1e-12)


def test_piecewise_derivs_snap_to_kink(pair_a):
    # a query carrying roundoff from an upstream solve still sees the kink
    for eps in (1e-12, -1e-12, 9e-10, -9e-10):
        d_plus, d_minus = pair_a.f1.derivs(0.8 + eps)
        assert d_plus == pytest.approx(-0.8, abs=1e-12)
        assert d_minus == pytest.approx(0.4, abs=1e-12)
    # outside the snap radius the segment slope applies to both sides
    d_plus, d_minus = pair_a.f1.derivs(0.8 + 1e-6)
    assert d_plus == d_minus == pytest.approx(-0.8, abs=1e-12)


def test_piecewise_derivs_domain_endpoints(pair_a):
    assert pair_a.f0.derivs(0.0) == (1.0, math.inf)
    assert pair_a.f0.derivs(2.0) == (-math.inf, -1.0)
    assert pair_a.f0.derivs(-0.1) == (None, None)
    assert is_neg_inf(pair_a.f0.value(-0.1))


def test_piecewise_rejects_non_concave():
    with pytest.raises(ModelAssumptionError):
        PiecewiseFrontier(((0.0, 0.0), (1.0, 1.0), (2.0, 2.0)))  # equal slopes
    with pytest.raises(ModelAssumptionError):
        PiecewiseFrontier(((0.0, 0.0), (1.0, 0.5), (2.0, 2.0)))  # convex kink
    with pytest.raises(ModelAssumptionError):
        PiecewiseFrontier(((0.0, 0.0), (0.0, 1.0)))  # duplicate u
    with pytest.raises(ModelAssumptionError):
        PiecewiseFrontier(((0.0, 0.0),))  # single point


@pytest.mark.parametrize("points, bad", [
    # two points have no slope pair to compare, so these used to be accepted
    (((0, math.nan), (1, 1)), "(0, nan)"),
    (((0, 0), (1, math.inf)), "(1, inf)"),
    # this one was refused as a "flat segment"
    (((0, 0), (math.inf, 1)), "(inf, 1)"),
    (((-math.inf, 0), (0, 1), (1, 0)), "(-inf, 0)"),
])
def test_piecewise_rejects_non_finite_breakpoints(points, bad):
    with pytest.raises(ModelAssumptionError, match=f"must be finite, got {re.escape(bad)}"):
        PiecewiseFrontier(points)


@pytest.mark.parametrize("points, bad", [
    # value(0.0) was NaN: inf times a zero offset
    (((0, 0.6), (5e-324, 1.2), (0.8, 1.4), (1.8, 0.6)), "inf"),
    # value(0.5) was inf
    (((0, -1e308), (1, 1e308), (2, 0)), "inf"),
    # both gaps overflow, and inf / inf is NaN
    (((-1e308, -1e308), (1e308, 1e308)), "nan"),
])
def test_piecewise_rejects_an_infinite_slope(points, bad):
    with pytest.raises(ModelAssumptionError, match=f"slopes must be finite, got {bad}$"):
        PiecewiseFrontier(points)


def test_piecewise_accepts_exact_breakpoints_past_the_float_range():
    big = Fraction(10) ** 400
    assert PiecewiseFrontier(((big, 0), (2 * big, 1))).peak == (2 * big, 1)
    # and an exact slope past the float range
    assert PiecewiseFrontier(((0, 0), (1, big), (2, 0))).peak == (1, big)


@pytest.mark.parametrize("u_lo, u_hi", [
    (0.0, math.nan), (math.nan, 1.0), (0.0, math.inf), (-math.inf, 1.0),
    (0.0, 0.0), (1.0, 0.0),
])
def test_parametric_rejects_a_non_finite_or_empty_domain(u_lo, u_hi):
    # u_hi = nan used to pass until peak raised SolverError "no down-crossing
    # bracket on [0.0, nan]"
    with pytest.raises(ModelAssumptionError,
                       match=re.escape(f"finite u_lo < u_hi, got [{u_lo}, {u_hi}]")):
        ParametricFrontier(fn=lambda u: u, u_lo=u_lo, u_hi=u_hi, dfn=lambda u: 1.0)


def test_piecewise_peak(pair_a):
    assert pair_a.f1.peak == (0.8, 1.4)


# ------------------------------------------------------------ parametric ---

def test_parametric_derivs_match_analytic(pair_b):
    for u in (0.1, 0.3, 0.55, 0.99):
        assert pair_b.f0.value(u) == pytest.approx(b_f0(u), abs=1e-12)
        d_plus, d_minus = pair_b.f0.derivs(u)
        assert d_plus == pytest.approx(2.0 - 2.0 * u, abs=1e-12)
        assert d_plus == d_minus
    assert pair_b.f0.derivs(0.0) == (2.0, math.inf)
    assert pair_b.f0.derivs(pair_b.f0.u_hi) == (-math.inf, b_f0_d(pair_b.f0.u_hi))
    assert pair_b.f0.derivs(-0.1) == (None, None)


def test_parametric_peak_at_boundary():
    f = ParametricFrontier(fn=lambda u: -u, u_lo=0.0, u_hi=1.0,
                           dfn=lambda u: -1.0)
    assert f.peak == (0.0, 0.0)


def test_parametric_peak_clamps_low():
    # a falling slope at u_lo puts the peak there; u_hi is never read
    calls = []

    def dfn(u):
        calls.append(u)
        return -1.0 - u

    f = ParametricFrontier(fn=lambda u: -u - 0.5 * u * u, u_lo=0.0, u_hi=1.0, dfn=dfn)
    assert f.peak == (0.0, 0.0)
    assert calls == [0.0]


def test_parametric_peak_zero_slope_at_low_end_clamps_low():
    f = ParametricFrontier(fn=lambda u: 1.0 - u * u, u_lo=0.0, u_hi=1.0,
                           dfn=lambda u: -2.0 * u)
    assert f.peak == (0.0, 1.0)


def test_parametric_peak_clamps_high():
    f = ParametricFrontier(fn=lambda u: 2.0 * u - 0.5 * u * u, u_lo=0.0, u_hi=1.0,
                           dfn=lambda u: 2.0 - u)
    assert f.peak == (1.0, 1.5)
    # a zero slope at u_hi clamps there too
    f = ParametricFrontier(fn=lambda u: u - 0.5 * u * u, u_lo=0.0, u_hi=1.0,
                           dfn=lambda u: 1.0 - u)
    assert f.peak == (1.0, 0.5)


def test_parametric_peak_interior_is_brent_down():
    dfn = lambda u: math.cos(u) - u
    f = ParametricFrontier(fn=lambda u: math.sin(u) - 0.5 * u * u, u_lo=0.0,
                           u_hi=1.0, dfn=dfn)
    u, v = f.peak
    assert u.hex() == brent_down(dfn, 0.0, 1.0, f_lo=dfn(0.0), f_hi=dfn(1.0),
                                 tol_x=1e-13).hex()
    assert u == pytest.approx(0.7390851332151607, abs=1e-12)
    assert v == math.sin(u) - 0.5 * u * u


def test_fixture_b_peak_is_brent_down_in_few_slope_reads():
    reads = []

    def dfn(u):
        reads.append(u)
        return b_f0_d(u)

    f = ParametricFrontier(fn=b_f0, u_lo=0.0, u_hi=1.2, dfn=dfn)
    u = f.peak[0]
    assert len(reads) <= 6, reads  # a bisection to 1e-13 read 47
    assert u.hex() == brent_down(b_f0_d, 0.0, 1.2, f_lo=2.0, f_hi=b_f0_d(1.2),
                                 tol_x=1e-13).hex()
    assert u == pytest.approx(1.0, abs=1e-13)


def test_level_at_slope_reads_the_inverse_and_clamps():
    # with inv_dfn the level is the inverse, clamped into [lo, hi], and dfn
    # is not read; without it, Brent's method on dfn - y.  A target at or
    # beyond an end slope gives that end and reads neither
    reads, inv_reads = [], []

    def dfn(u):
        reads.append(u)
        return b_f0_d(u)

    def inv_dfn(y):
        inv_reads.append(y)
        return 1.0 - 0.5 * y

    f = ParametricFrontier(fn=b_f0, u_lo=0.0, u_hi=1.2, dfn=dfn, inv_dfn=inv_dfn)
    assert f.level_at_slope(0.5, 0.1, 1.0, 1.8, 0.0) == 0.75
    assert f.level_at_slope(1.85, 0.1, 1.0, 1.9, 0.0) == 0.1  # inverse 0.075
    assert f.level_at_slope(-0.05, 0.1, 1.0, 1.8, -0.1) == 1.0  # inverse 1.025
    assert inv_reads == [0.5, 1.85, -0.05]
    for y, end in ((1.8, 0.1), (1.9, 0.1), (0.0, 1.0), (-0.1, 1.0)):
        assert f.level_at_slope(y, 0.1, 1.0, 1.8, 0.0) == end
    assert inv_reads == [0.5, 1.85, -0.05]
    assert reads == []
    g = ParametricFrontier(fn=b_f0, u_lo=0.0, u_hi=1.2, dfn=dfn)
    assert g.level_at_slope(0.5, 0.1, 1.0, 1.8, 0.0) == pytest.approx(
        0.75, abs=1e-13)
    del reads[:]
    for y, end in ((1.8, 0.1), (2.5, 0.1), (0.0, 1.0), (-3.0, 1.0)):
        assert g.level_at_slope(y, 0.1, 1.0, 1.8, 0.0) == end
    assert reads == []


def test_piecewise_level_at_slope_reads_the_breakpoints():
    # the breakpoint where the slope steps from >= y to < y, in the
    # breakpoints' own type (a target equal to a segment slope goes to that
    # segment's right end); a target at or beyond an end slope gives that end
    f = PiecewiseFrontier(A_F1_EXACT)  # slopes 2, 2/5, -4/5
    lo, hi = Fraction(0), Fraction(9, 5)
    for y, u in ((1.0, Fraction(3, 10)), (Fraction(2, 5), Fraction(4, 5)),
                 (-0.5, Fraction(4, 5))):
        got = f.level_at_slope(y, lo, hi, 2, Fraction(-4, 5))
        assert got == u and type(got) is Fraction, y
    for y, end in ((2, lo), (3.0, lo), (Fraction(-4, 5), hi), (-5, hi)):
        assert f.level_at_slope(y, lo, hi, 2, Fraction(-4, 5)) is end


# -------------------------------------------------------------- u_star -----

def test_u_star_instance_a_exact(pair_a):
    assert pair_a.u0 == 1.0
    assert pair_a.u1 == 0.8
    assert pair_a.u_star == 0.3


def test_u_star_rejects_nonneg_slope_mismatches(pair_a):
    # at u=0.8 the f0 slope (1) exceeds every f1 supporting slope (<= 0.4),
    # and at the f0 peak the shared interval would need a negative slope;
    # only 0.3 offers a common non-negative one
    assert u_star(pair_a.f0, pair_a.f1) == 0.3


def test_u_star_instance_b(pair_b):
    # slopes 2-2u and 2.1-3u agree at u = 0.1
    assert pair_b.u_star == pytest.approx(0.1, abs=1e-9)
    assert pair_b.u0 == pytest.approx(1.0, abs=1e-9)
    assert pair_b.u1 == pytest.approx(0.7, abs=1e-9)


def test_u_star_affinized_b(pair_b_affine):
    # chord slope 0.9 meets 2.1-3u at u = 0.4
    assert pair_b_affine.u_star == pytest.approx(0.4, abs=1e-9)


def test_u_star_at_domain_bottom(pair_ui):
    # the insurance slopes never meet: u_star is the corner u = 0 (exactly)
    assert pair_ui.u_star == 0.0


@pytest.mark.xfail(strict=True, reason=(
    "u_star returns the rightmost breakpoint where the two frontiers admit a "
    "common non-negative supporting slope (u = 0.11, i = 22), not the peak "
    "of the gap; the fix changes four golden CLI cases and waits for its own "
    "change"))
def test_u_star_dense_sampled_b_at_gap_peak():
    # fixture B sampled at 241 breakpoints: the gap f1 - f0 peaks at i = 20
    f0 = PiecewiseFrontier(tuple(map(tuple, DENSE_B_TECH["f0"])))
    f1 = PiecewiseFrontier(tuple(map(tuple, DENSE_B_TECH["f1"])))
    gaps = [v1 - v0 for (_, v0), (_, v1) in zip(f0.points, f1.points)]
    assert max(range(len(gaps)), key=gaps.__getitem__) == 20
    assert u_star(f0, f1) == f0.points[20][0]


# ----------------------------------------------------------- affine gap ----

def test_affine_gap_zero_on_affine_band(pair_a):
    assert affine_gap(pair_a.f0, 0.3, 1.0) == 0.0


def test_affine_gap_quadratic_anchor(pair_b):
    # chord of 2u-u^2 through (0.1, 0.19) and (1, 1); max deviation at 0.55
    gap = affine_gap(pair_b.f0, 0.1, 1.0)
    assert gap == pytest.approx(0.2025, abs=1e-15)
    mid = b_f0(0.55) - (0.19 + 0.9 * (0.55 - 0.1))
    assert gap == pytest.approx(mid, abs=1e-15)


def test_affine_gap_empty_interval(pair_b):
    assert affine_gap(pair_b.f0, 0.5, 0.5) == 0.0


def grid_gap(f0, lo, hi, step=1e-4):
    """The chord deviation's maximum on an evenly spaced grid of roughly
    ``step``: how ``affine_gap`` was computed before it was exact."""
    v_lo = float(f0.value(lo))
    slope = (float(f0.value(hi)) - v_lo) / (hi - lo)
    n = max(1, int(round((hi - lo) / step)))
    return max(float(f0.value(lo + (hi - lo) * i / n))
               - (v_lo + slope * (lo + (hi - lo) * i / n - lo)) for i in range(n + 1))


def affine_gap_reference(f0, lo, hi):
    """The breakpoint loop ``affine_gap`` ran on a piecewise ``f0`` before it
    read the tangency off ``level_at_slope``: the largest deviation above the
    chord at a breakpoint strictly inside ``[lo, hi]``, or 0."""
    lo, hi = float(lo), float(hi)
    if hi <= lo:
        return 0.0
    v_lo = float(f0.value(lo))
    slope = (float(f0.value(hi)) - v_lo) / (hi - lo)
    gap = 0.0
    for u, v in f0.points:
        u = float(u)
        if lo < u < hi:
            gap = max(gap, float(v) - (v_lo + slope * (u - lo)))
    return gap


@st.composite
def concave_piecewise(draw):
    """A concave piecewise ``f0`` on 3-8 breakpoints in ``[0, ~3]`` and a
    chord interval ``[lo, hi]`` inside its domain, whose ends are breakpoints
    in one draw of three.  Widths are multiples of 1/64 and slopes of 1/8, so
    the breakpoints carry the drawn slopes exactly."""
    n = draw(st.integers(3, 8))
    widths = [k / 64 for k in draw(st.lists(st.integers(1, 25), min_size=n - 1,
                                            max_size=n - 1))]
    slopes = [j / 8 for j in sorted(draw(st.lists(
        st.integers(-24, 24).filter(bool), min_size=n - 1, max_size=n - 1,
        unique=True)), reverse=True)]
    points = [(0.0, 0.0)]
    for w, s in zip(widths, slopes):
        u, v = points[-1]
        points.append((u + w, v + s * w))
    f0 = PiecewiseFrontier(tuple(points))
    if draw(st.integers(0, 2)) == 0:
        i, j = sorted(draw(st.lists(st.integers(0, len(points) - 1), min_size=2,
                                    max_size=2, unique=True)))
        return f0, points[i][0], points[j][0]
    a, b = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2)))
    top = points[-1][0]
    return f0, a * top, b * top


@settings(max_examples=60, deadline=None)
@given(concave_piecewise())
def test_affine_gap_piecewise_is_the_breakpoint_maximum(case):
    f0, lo, hi = case
    assume(hi > lo)
    gap = affine_gap(f0, lo, hi)
    assert gap == affine_gap_reference(f0, lo, hi)
    # the grid never sees more than the exact maximum, beyond the rounding
    # of its own chord arithmetic
    assert gap >= grid_gap(f0, lo, hi) - 1e-14


def test_affine_gap_parametric_root_and_flat_cases(pair_b):
    f0 = pair_b.f0
    # the chord slope equals f0' at the interval's middle, where the
    # deviation of a quadratic peaks: (hi - lo)^2 / 4
    for lo, hi in ((0.0, 1.2), (0.2, 0.3), (0.7, 1.1)):
        assert affine_gap(f0, lo, hi) == pytest.approx((hi - lo) ** 2 / 4, abs=1e-15)
    line = ParametricFrontier(fn=lambda u: 2.0 * u, u_lo=0.0, u_hi=1.0,
                              dfn=lambda u: 2.0)
    assert affine_gap(line, 0.0, 1.0) == 0.0


def test_affine_gap_nan_slope_is_a_solver_error():
    f0 = ParametricFrontier(fn=lambda u: u - u * u, u_lo=0.0, u_hi=1.0,
                            dfn=lambda u: math.nan)
    with pytest.raises(SolverError):
        affine_gap(f0, 0.0, 1.0)
    f0 = ParametricFrontier(fn=lambda u: math.nan, u_lo=0.0, u_hi=1.0,
                            dfn=lambda u: 1.0 - 2.0 * u)
    with pytest.raises(SolverError):
        affine_gap(f0, 0.0, 1.0)


def random_concave_piecewise(rng, exact):
    """A concave piecewise frontier on at most 12 breakpoints from a random
    start: slopes in [-5, 5], widths in [0.01, 2], as floats or as
    ``Fraction``s of small denominators."""
    num = (lambda x, d: Fraction(x).limit_denominator(d)) if exact else (lambda x, d: x)
    slopes = sorted({num(rng.uniform(-5.0, 5.0), 1000)
                     for _ in range(rng.randint(2, 11))} - {0}, reverse=True)
    points = [(num(rng.uniform(-3.0, 3.0), 100), num(rng.uniform(-3.0, 3.0), 100))]
    for sl in slopes:
        w = num(rng.uniform(0.01, 2.0), 100)
        points.append((points[-1][0] + w, points[-1][1] + sl * w))
    return PiecewiseFrontier(tuple(points))


@pytest.mark.parametrize("exact", [False, True], ids=["float", "fraction"])
def test_affine_gap_piecewise_matches_the_breakpoint_loop(exact):
    # one level_at_slope read gives the loop's maximum bit for bit, with lo
    # anywhere in the domain and hi at the peak or anywhere above lo
    rng = random.Random(3500 + exact)
    checked = 0
    for _ in range(1500):
        f0 = random_concave_piecewise(rng, exact)
        lo = rng.uniform(float(f0.u_lo), float(f0.u_hi))
        hi = float(f0.peak[0]) if rng.random() < 0.5 else rng.uniform(lo, float(f0.u_hi))
        if not f0.u_lo <= lo < hi <= f0.u_hi:  # empty, or rounded off a Fraction end
            continue
        checked += 1
        gap = affine_gap(f0, lo, hi)
        assert gap.hex() == affine_gap_reference(f0, lo, hi).hex(), (f0.points, lo, hi)
    assert checked >= 1000


@pytest.mark.parametrize("exact", [False, True], ids=["float", "fraction"])
def test_piecewise_level_at_slope_is_the_breakpoint_table_read(exact):
    # strictly between the end slopes the level is the very breakpoint the
    # slope table gives (a target equal to a segment slope included); at or
    # beyond an end slope it is that end
    rng = random.Random(3510 + exact)
    for _ in range(300):
        f = random_concave_piecewise(rng, exact)
        us, slopes = f._us, f._slopes
        if len(us) < 3:
            continue
        i, j = sorted(rng.sample(range(len(us)), 2))
        lo, hi, d_lo, d_hi = us[i], us[j], slopes[i], slopes[j - 1]
        targets = list(slopes) + [rng.uniform(float(slopes[-1]) - 1.0, float(slopes[0]) + 1.0)
                                  for _ in range(8)]
        for y in targets:
            got = f.level_at_slope(y, lo, hi, d_lo, d_hi)
            if y >= d_lo:
                assert got is lo
            elif y <= d_hi:
                assert got is hi
            else:
                assert got is us[bisect_right(slopes, -y, key=neg)], (f.points, y)


def test_affine_gap_without_a_sign_change_is_zero(monkeypatch):
    # f0' - chord keeps one sign on the interval, so no level is searched:
    # a convex u^2, and bands inside one segment of slope 1/10 whose chords
    # round above it, (0.1, 0.2), and below it, (0.3, 0.7)
    def no_search(*args):
        raise AssertionError("level_at_slope called")

    convex = ParametricFrontier(fn=lambda u: u * u, u_lo=0.0, u_hi=1.0,
                                dfn=lambda u: 2.0 * u)
    segment = PiecewiseFrontier(((0.0, 0.0), (1.0, 0.1), (2.0, 0.0)))
    for cls in (ParametricFrontier, PiecewiseFrontier):
        monkeypatch.setattr(cls, "level_at_slope", no_search)
    assert affine_gap(convex, 0.0, 1.0) == 0.0
    for lo, hi in ((0.1, 0.2), (0.3, 0.7)):
        chord = (segment.value(hi) - segment.value(lo)) / (hi - lo)
        assert chord != 0.1
        assert affine_gap(segment, lo, hi) == 0.0


def test_affine_gap_reads_an_end_within_kink_snap_as_the_breakpoint():
    # derivs puts a query within KINK_SNAP of a breakpoint on it, so an end
    # just short of a kink takes the far segment's slope, and a tangency at
    # that kink reads as the end: the gap is 0 where the breakpoint loop
    # finds at most the slope jump times KINK_SNAP
    f0 = PiecewiseFrontier(((0.0, 0.0), (1.0, 1.0), (2.0, 0.5)))  # slopes 1, -1/2
    for lo, hi in ((1.0 - 0.5 * KINK_SNAP, 2.0), (0.0, 1.0 + 0.5 * KINK_SNAP)):
        assert affine_gap(f0, lo, hi) == 0.0
        assert 0.0 < affine_gap_reference(f0, lo, hi) <= 1.5 * KINK_SNAP


# ------------------------------------------------------- technology pair ---

def test_pair_build_requires_positive_rate(pair_a, ui_prims):
    # build, a direct construction (as insurance.build_frontiers makes) and
    # the insurance builder refuse a bad rate with one message
    for r in (0.0, -1.0, math.nan, math.inf):
        messages = set()
        for make in (lambda: TechnologyPair.build(pair_a.f0, pair_a.f1, r),
                     lambda: TechnologyPair(f0=pair_a.f0, f1=pair_a.f1, r=r,
                                            u0=1.0, u1=0.8, u_star=0.3),
                     lambda: build_frontiers(ui_prims, r)):
            with pytest.raises(ModelAssumptionError) as exc:
                make()
            messages.add(str(exc.value))
        assert messages == {f"discount rate must be positive and finite, got {r}"}


def test_pair_peak_values(pair_a, pair_b):
    assert pair_a.f0.value(pair_a.u0) == 1.0
    assert pair_a.f1.value(pair_a.u1) == 1.4
    assert pair_b.f1.value(pair_b.u1) == pytest.approx(1.45, abs=1e-9)


# integer breakpoints: u0 = 2, u1 = 1, and the slopes meet at u_star = 1
INT_F0 = ((0, 0), (2, 2), (4, 0))
INT_F1 = ((0, 1), (1, 3), (4, 0))


@pytest.mark.parametrize("f0_points, f1_points",
                         [(INT_F0, INT_F1), (A_F0_EXACT, A_F1_EXACT)],
                         ids=["int", "fraction"])
def test_pair_constants_are_floats(f0_points, f1_points):
    # the frontiers stay exact; the pair stores their constants as floats
    f0, f1 = PiecewiseFrontier(f0_points), PiecewiseFrontier(f1_points)
    exact = (f0.peak[0], f1.peak[0], u_star(f0, f1))
    assert not any(isinstance(v, float) for v in exact)
    pair = TechnologyPair.build(f0, f1, 1)
    got = (pair.u0, pair.u1, pair.u_star)
    assert all(type(v) is float for v in got)
    assert got == tuple(float(v) for v in exact)


# ----------------------------------------------------------- validation ----

def test_validate_model_passes_reference_pairs(pair_a, pair_b, pair_ui):
    for pair in (pair_a, pair_b, pair_ui):
        checks = validate_model(pair)
        assert all(c.passed for c in checks), [c for c in checks if not c.passed]


def test_validate_model_flags_missing_conflict():
    # post-breakthrough peak sits above the pre-breakthrough one
    f0 = PiecewiseFrontier(((0.0, 0.0), (0.5, 0.5), (2.0, 0.2)))
    f1 = PiecewiseFrontier(((0.0, 0.6), (0.8, 1.4), (1.8, 0.6)))
    pair = TechnologyPair.build(f0, f1, 1.0)
    failed = [c.name for c in validate_model(pair) if not c.passed]
    assert "conflict_of_interest" in failed


def test_validate_model_flags_dominance_failure(pair_a):
    # f1 below f0 somewhere on the common domain
    f1_low = PiecewiseFrontier(((0.0, 0.0), (0.4, 0.3), (1.8, 0.1)))
    pair = TechnologyPair(f0=pair_a.f0, f1=f1_low, r=1.0,
                          u0=1.0, u1=0.4, u_star=0.3)
    assert any(c.name == "f1_dominates_f0" and not c.passed
               for c in validate_model(pair))
