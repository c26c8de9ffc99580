"""Breakthrough-time distributions: construction, discretization, orders."""

from __future__ import annotations

import math

import pytest

from disclose import ConfigError, discretize, from_atoms, order_checks
from disclose.distribution import BreakthroughDist


def test_from_atoms_sorts_and_merges():
    d = from_atoms([(2.0, 0.25), (1.0, 0.5), (1.0 + 5e-13, 0.25)])
    assert d.times == (1.0, 2.0)
    assert d.probs == (0.75, 0.25)


def test_from_atoms_drops_zero_mass():
    d = from_atoms([(1.0, 0.0), (2.0, 1.0)])
    assert d.times == (2.0,)


def test_from_atoms_rejects_negative_mass():
    with pytest.raises(ConfigError):
        from_atoms([(1.0, -0.5), (2.0, 1.5)])


def test_mass_must_sum_to_one():
    with pytest.raises(ConfigError):
        BreakthroughDist(times=(1.0,), probs=(0.5,))
    with pytest.raises(ConfigError):
        from_atoms([(1.0, 0.7), (2.0, 0.7)])


@pytest.mark.parametrize("probs", [(0.5, math.inf), (math.inf, 0.5),
                                   (math.inf,), (0.5, math.nan)])
def test_non_finite_mass_rejected(probs):
    times = tuple(float(k) for k in range(1, len(probs) + 1))
    with pytest.raises(ConfigError):
        BreakthroughDist(times=times, probs=probs)
    with pytest.raises(ConfigError):
        from_atoms(list(zip(times, probs)))


@pytest.mark.parametrize("times", [(math.nan,), (math.inf,), (1.0, math.inf),
                                   (-math.inf, 1.0)])
def test_non_finite_times_rejected(times):
    probs = (1.0 / len(times),) * len(times)
    with pytest.raises(ConfigError, match="finite"):
        BreakthroughDist(times=times, probs=probs)
    with pytest.raises(ConfigError):
        from_atoms(list(zip(times, probs)))


def test_times_strictly_increasing_and_nonnegative():
    with pytest.raises(ConfigError):
        BreakthroughDist(times=(1.0, 1.0), probs=(0.5, 0.5))
    with pytest.raises(ConfigError):
        BreakthroughDist(times=(-1.0,), probs=(1.0,))


def test_cdf_left_vs_right(dist_k2):
    assert dist_k2.cdf(0.5) == 0.5
    assert dist_k2.cdf_left(0.5) == 0.0
    assert dist_k2.cdf(1.5) == 1.0
    assert dist_k2.cdf_left(1.5) == 0.5
    assert dist_k2.cdf(0.2) == 0.0


def test_discretize_point():
    d = discretize("point", 3, t=2.0)
    assert d.times == (2.0,)
    assert d.probs == (1.0,)


def test_discretize_exponential_quantiles():
    d = discretize("exponential", 4, rate=2.0)
    assert len(d.times) == 4
    assert d.probs == (0.25, 0.25, 0.25, 0.25)
    assert d.times[0] == pytest.approx(-math.log(1 - 0.125) / 2.0, abs=1e-14)
    assert all(b > a for a, b in zip(d.times, d.times[1:]))


def test_discretize_exponential_discount_weight_converges():
    # E exp(-tau) for tau ~ exp(1) is 1/2; the midpoint-quantile rule should
    # land close even at moderate resolution
    d = discretize("exponential", 64, rate=1.0)
    weight = math.fsum(p * math.exp(-t) for t, p in zip(d.times, d.probs))
    assert weight == pytest.approx(0.5, abs=5e-4)


def test_discretize_weibull_shape_one_is_exponential():
    dw = discretize("weibull", 8, shape=1.0, scale=0.5)
    de = discretize("exponential", 8, rate=2.0)
    for a, b in zip(dw.times, de.times):
        assert a == pytest.approx(b, abs=1e-12)


@pytest.mark.parametrize("shape, scale", [(0.001, 1.0), (1.0, 1e308)])
def test_discretize_weibull_time_past_the_float_range(shape, scale):
    # the quantile's power overflows at a small shape, its product at a
    # huge scale; both are the same config error
    with pytest.raises(ConfigError, match="atom times must be finite, got inf"):
        discretize("weibull", 8, shape=shape, scale=scale)


@pytest.mark.parametrize("kind, params", [("exponential", {}), ("point", {}),
                                          ("weibull", {"shape": 1.0}),
                                          ("weibull", {"scale": 1.0})])
def test_discretize_missing_parameter(kind, params):
    with pytest.raises(ConfigError, match="takes parameters"):
        discretize(kind, 8, **params)


def test_discretize_rejects_bad_parameters():
    with pytest.raises(ConfigError):
        discretize("exponential", 0, rate=1.0)
    with pytest.raises(ConfigError):
        discretize("exponential", 8, rate=-1.0)
    with pytest.raises(ConfigError):
        discretize("gamma", 8, shape=1.0)
    with pytest.raises(ConfigError):
        discretize("exponential", 8, rate=1.0, scale=2.0)


def test_order_checks_mlr_and_fosd():
    d = from_atoms([(1.0, 0.3), (2.0, 0.7)])
    d_dag = from_atoms([(1.0, 0.7), (2.0, 0.3)])
    rep = order_checks(d, d_dag)
    assert rep.equal_support
    assert rep.mlr is True
    assert rep.fosd is True
    # the reverse comparison fails both
    rev = order_checks(d_dag, d)
    assert rev.mlr is False
    assert rev.fosd is False


def test_order_checks_different_supports():
    d = from_atoms([(2.0, 1.0)])
    d_dag = from_atoms([(1.0, 1.0)])
    rep = order_checks(d, d_dag)
    assert rep.fosd is True
    assert rep.mlr is None
    assert not rep.equal_support


def test_order_checks_reflexive(dist_k3):
    rep = order_checks(dist_k3, dist_k3)
    assert rep.fosd and rep.mlr and rep.equal_support
