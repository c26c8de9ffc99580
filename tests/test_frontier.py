"""Frontier representations, shared-slope level, affine gap, model checks."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from disclose import (
    ModelAssumptionError,
    ParametricFrontier,
    PiecewiseFrontier,
    TechnologyPair,
    affine_gap,
    is_neg_inf,
    u_star,
    validate_model,
)
from conftest import b_f0, b_f1


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


def test_piecewise_value_preserves_fractions(f1_exact):
    v = f1_exact.value(Fraction(1, 2))
    # on the middle segment of slope 2/5 from (3/10, 6/5)
    assert v == Fraction(6, 5) + Fraction(2, 5) * (Fraction(1, 2) - Fraction(3, 10))
    assert isinstance(v, Fraction)


def test_piecewise_derivs_interior(pair_a):
    val, d_plus, d_minus = pair_a.f0.derivs(0.5)
    assert val == 0.5
    assert d_plus == 1.0
    assert d_minus == 1.0


def test_piecewise_derivs_kink(pair_a):
    val, d_plus, d_minus = pair_a.f1.derivs(0.3)
    assert val == pytest.approx(1.2, abs=1e-12)
    assert d_plus == pytest.approx(0.4, abs=1e-12)
    assert d_minus == pytest.approx(2.0, abs=1e-12)


def test_piecewise_derivs_snap_to_kink(pair_a):
    # a query carrying roundoff from an upstream solve still sees the kink
    for eps in (1e-12, -1e-12, 9e-10, -9e-10):
        _, d_plus, d_minus = pair_a.f1.derivs(0.8 + eps)
        assert d_plus == pytest.approx(-0.8, abs=1e-12)
        assert d_minus == pytest.approx(0.4, abs=1e-12)
    # outside the snap radius the segment slope applies to both sides
    _, d_plus, d_minus = pair_a.f1.derivs(0.8 + 1e-6)
    assert d_plus == d_minus == pytest.approx(-0.8, abs=1e-12)


def test_piecewise_derivs_domain_endpoints(pair_a):
    _, d_plus, d_minus = pair_a.f0.derivs(0.0)
    assert d_plus == 1.0 and d_minus == math.inf
    _, d_plus, d_minus = pair_a.f0.derivs(2.0)
    assert d_plus == -math.inf and d_minus == -1.0
    val, d_plus, d_minus = pair_a.f0.derivs(-0.1)
    assert is_neg_inf(val) and d_plus is None and d_minus is None


def test_piecewise_rejects_non_concave():
    with pytest.raises(ModelAssumptionError):
        PiecewiseFrontier(((0.0, 0.0), (1.0, 1.0), (2.0, 2.0)))  # equal slopes
    with pytest.raises(ModelAssumptionError):
        PiecewiseFrontier(((0.0, 0.0), (1.0, 0.5), (2.0, 2.0)))  # convex kink
    with pytest.raises(ModelAssumptionError):
        PiecewiseFrontier(((0.0, 0.0), (0.0, 1.0)))  # duplicate u
    with pytest.raises(ModelAssumptionError):
        PiecewiseFrontier(((0.0, 0.0),))  # single point


def test_piecewise_peak_and_shift(pair_a):
    assert pair_a.f1.peak == (0.8, 1.4)
    shifted = pair_a.f1.shifted(0.1)
    assert shifted.peak == (pytest.approx(0.9), 1.4)
    assert shifted.value(0.9) == pytest.approx(1.4, abs=1e-12)


# ------------------------------------------------------------ parametric ---

def test_parametric_derivs_match_analytic(pair_b):
    for u in (0.1, 0.3, 0.55, 0.99):
        val, d_plus, d_minus = pair_b.f0.derivs(u)
        assert val == pytest.approx(b_f0(u), abs=1e-12)
        assert d_plus == pytest.approx(2.0 - 2.0 * u, abs=1e-12)
        assert d_plus == d_minus


def test_parametric_peak_at_boundary():
    f = ParametricFrontier(fn=lambda u: -u, u_lo=0.0, u_hi=1.0,
                           dfn=lambda u: -1.0)
    assert f.peak == (0.0, 0.0)


def test_parametric_shift_round_trip(pair_b):
    g = pair_b.f1.shifted(0.2)
    assert g.value(0.9) == pytest.approx(b_f1(0.7), abs=1e-12)
    assert g.peak[0] == pytest.approx(0.9, abs=1e-9)


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
    # the insurance frontiers only share a slope at u = 0 (exactly)
    assert pair_ui.u_star == 0.0


# ----------------------------------------------------------- affine gap ----

def test_affine_gap_zero_on_affine_band(pair_a):
    assert affine_gap(pair_a.f0, 0.3, 1.0) == 0.0


def test_affine_gap_quadratic_anchor(pair_b):
    # chord of 2u-u^2 through (0.1, 0.19) and (1, 1); max deviation at 0.55
    gap = affine_gap(pair_b.f0, 0.1, 1.0)
    assert gap == pytest.approx(0.2025, abs=1e-9)
    mid = b_f0(0.55) - (0.19 + 0.9 * (0.55 - 0.1))
    assert gap == pytest.approx(mid, abs=1e-9)


def test_affine_gap_empty_interval(pair_b):
    assert affine_gap(pair_b.f0, 0.5, 0.5) == 0.0


# ------------------------------------------------------- technology pair ---

def test_pair_build_requires_positive_rate(pair_a):
    for r in (0.0, math.nan, math.inf):
        with pytest.raises(ModelAssumptionError):
            TechnologyPair.build(pair_a.f0, pair_a.f1, r)


def test_pair_peak_values(pair_a, pair_b):
    assert pair_a.f0_peak_value == 1.0
    assert pair_a.f1_peak_value == 1.4
    assert float(pair_b.f1_peak_value) == pytest.approx(1.45, abs=1e-9)


def test_pair_shift_translates_constants(pair_b):
    moved = pair_b.shifted(0.05)
    assert moved.u0 == pytest.approx(pair_b.u0 + 0.05, abs=1e-9)
    assert moved.u1 == pytest.approx(pair_b.u1 + 0.05, abs=1e-9)
    assert moved.u_star == pytest.approx(pair_b.u_star + 0.05, abs=1e-9)
    assert float(moved.f0_peak_value) == pytest.approx(
        float(pair_b.f0_peak_value), abs=1e-9)


# ----------------------------------------------------------- validation ----

def test_validate_model_passes_reference_pairs(pair_a, pair_b, pair_ui):
    for pair in (pair_a, pair_b, pair_ui):
        report = validate_model(pair)
        assert report.ok, report.failed()


def test_validate_model_flags_missing_conflict():
    # post-breakthrough peak sits above the pre-breakthrough one
    f0 = PiecewiseFrontier(((0.0, 0.0), (0.5, 0.5), (2.0, 0.2)))
    f1 = PiecewiseFrontier(((0.0, 0.6), (0.8, 1.4), (1.8, 0.6)))
    pair = TechnologyPair.build(f0, f1, 1.0)
    report = validate_model(pair)
    assert not report.ok
    assert any(c.name == "conflict_of_interest" for c in report.failed())


def test_validate_model_flags_dominance_failure(pair_a):
    # f1 below f0 somewhere on the common domain
    f1_low = PiecewiseFrontier(((0.0, 0.0), (0.4, 0.3), (1.8, 0.1)))
    pair = TechnologyPair(f0=pair_a.f0, f1=f1_low, r=1.0,
                          u0=1.0, u1=0.4, u_star=0.3)
    report = validate_model(pair)
    assert any(c.name == "f1_dominates_f0" and not c.passed
               for c in report.checks)
