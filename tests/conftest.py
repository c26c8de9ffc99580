"""Shared fixtures: the two reference technologies and standard distributions.

Instance A is piecewise linear with an affine pre-breakthrough frontier on
the working band, so the optimal mechanism is a deadline; instance B is
smooth and strictly concave, so the optimal mechanism is a declining reward
path.  Both have hand-computable constants that the tests anchor against.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import settings

from disclose import (
    ParametricFrontier,
    PiecewiseFrontier,
    TechnologyPair,
    UiPrimitives,
    build_frontiers,
    discretize,
    from_atoms,
)

# property tests draw the same examples on every run and keep no example
# database, so the suite stays deterministic
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

# instance A: f0 affine (slope 1) up to its peak at u=1, f1 peaking at 0.8;
# shared-slope level 0.3, so the threshold deadline is ln 3.5
A_F0_POINTS = ((0.0, 0.0), (1.0, 1.0), (2.0, 0.0))
A_F1_POINTS = ((0.0, 0.6), (0.3, 1.2), (0.8, 1.4), (1.8, 0.6))

# the same breakpoints as exact rationals, for the discrete-oracle tests
A_F0_EXACT = (
    (Fraction(0), Fraction(0)),
    (Fraction(1), Fraction(1)),
    (Fraction(2), Fraction(0)),
)
A_F1_EXACT = (
    (Fraction(0), Fraction(3, 5)),
    (Fraction(3, 10), Fraction(6, 5)),
    (Fraction(4, 5), Fraction(7, 5)),
    (Fraction(9, 5), Fraction(3, 5)),
)


def b_f0(u):
    return 2.0 * u - u * u


def b_f0_d(u):
    return 2.0 - 2.0 * u


def b_f1(u):
    return 1.45 - 1.5 * (u - 0.7) ** 2


def b_f1_d(u):
    return -3.0 * (u - 0.7)


@pytest.fixture(scope="session")
def pair_a() -> TechnologyPair:
    return TechnologyPair.build(
        PiecewiseFrontier(A_F0_POINTS), PiecewiseFrontier(A_F1_POINTS), 1.0)


@pytest.fixture(scope="session")
def f0_exact() -> PiecewiseFrontier:
    return PiecewiseFrontier(A_F0_EXACT)


@pytest.fixture(scope="session")
def f1_exact() -> PiecewiseFrontier:
    return PiecewiseFrontier(A_F1_EXACT)


@pytest.fixture(scope="session")
def pair_b() -> TechnologyPair:
    f0 = ParametricFrontier(fn=b_f0, u_lo=0.0, u_hi=1.2, dfn=b_f0_d)
    f1 = ParametricFrontier(fn=b_f1, u_lo=0.0, u_hi=1.2, dfn=b_f1_d)
    return TechnologyPair.build(f0, f1, 1.0)


@pytest.fixture(scope="session")
def pair_b_affine() -> TechnologyPair:
    """Instance B with its pre-breakthrough frontier replaced by the chord
    between the shared-slope level and the peak — the deadline solver's
    home turf with a smooth post-breakthrough frontier."""
    f0 = PiecewiseFrontier(((0.1, 0.19), (1.0, 1.0)))
    f1 = ParametricFrontier(fn=b_f1, u_lo=0.0, u_hi=1.2, dfn=b_f1_d)
    return TechnologyPair.build(f0, f1, 1.0)


@pytest.fixture(scope="session")
def ui_prims() -> UiPrimitives:
    return UiPrimitives(a=0.5, b=2.0, w=1.0, shadow=0.5)


@pytest.fixture(scope="session")
def pair_ui(ui_prims) -> TechnologyPair:
    return build_frontiers(ui_prims, 1.0)


@pytest.fixture(scope="session")
def dist_point1():
    return from_atoms([(1.0, 1.0)])


@pytest.fixture(scope="session")
def dist_k2():
    return from_atoms([(0.5, 0.5), (1.5, 0.5)])


@pytest.fixture(scope="session")
def dist_k3():
    return from_atoms([(0.5, 0.25), (1.0, 0.5), (2.0, 0.25)])


@pytest.fixture(scope="session")
def dist_exp8():
    return discretize("exponential", 8, rate=1.0)


@pytest.fixture(scope="session")
def dist_exp16():
    return discretize("exponential", 16, rate=1.0)
