"""The reward path's first pass clamps, and its slope, survival and
grid-atom reads take no detour.

``frontier.u_star`` returns, on a smooth pair, the end of its final
bisection bracket where ``f0' - f1' <= 0``, within half that bracket of its
midpoint.  So ``f1' >= f0'`` there, on fixture B scaled by every power of
two from 2^-50 to 2^30 and on 200 pairs drawn as the path-smooth benchmark
draws them, and the backward pass at ``lam = u_star`` sets every level to
``u_star`` with no inversion inside the band.  ``euler.inv_deriv_f0`` is
still called once per atom but the last, in every pass.

The shortcuts must give exactly what the detours gave, compared by
``.hex()`` against references: ``euler_residuals`` with every slope
through ``slope`` and every survival through ``cdf``, on piecewise,
parametric, insurance and mixed pairs; the smooth ``u_star`` scan with
every slope through ``slope``; and ``payoff`` on solved reward paths,
every atom on a grid point, against ``test_hotpaths.payoff_reference``
(one ``exp`` per atom, every continuation value rebuilt), which
``test_hotpaths`` also holds deadlines at an atom and grids with some
atoms between their points to.  A level off a frontier's domain, or one
where its slope is not finite, still raises ``NotSimple``.
"""

from __future__ import annotations

import math
import random

import pytest

from disclose import euler, frontier, numerics
from disclose.distribution import discretize
from disclose.errors import BracketFailure, DiscloseError, NotSimple
from disclose.frontier import (ParametricFrontier, PiecewiseFrontier,
                               TechnologyPair, slope)
from disclose.insurance import build_frontiers
from disclose.mechanism import payoff

from conftest import A_F1_POINTS, b_f0, b_f0_d, b_f1, b_f1_d, scaled, translated
from test_hotpaths import (dense_b_pair, exact, fixture_b_pair, path_cases,
                           payoff_reference, random_law, random_ui_primitives)

# the powers of two fixture B is scaled by
SCALE_EXPONENTS = range(-50, 31)


def outcome(fn, *args):
    """:func:`exact` of ``fn(*args)``, or the package error it raises."""
    try:
        return exact(fn(*args))
    except DiscloseError as exc:
        return (type(exc).__name__, str(exc))


def bench_law(rng, m):
    """A discretized exponential or Weibull law, as the benchmark draws it."""
    if rng.random() < 0.5:
        return discretize("exponential", m, rate=rng.uniform(0.5, 2.0))
    return discretize("weibull", m, shape=rng.uniform(0.8, 2.0),
                      scale=rng.uniform(0.5, 2.0))


def smooth_pairs(pair_b):
    """Fixture B at every scale, then 200 rescaled fixture-B pairs."""
    rng = random.Random(3601)
    return ([scaled(pair_b, 2.0 ** k) for k in SCALE_EXPONENTS]
            + [fixture_b_pair(rng) for _ in range(200)])


# ------------------------------------------------------------- the sign ---

def test_u_star_lies_where_f1_slope_reaches_f0_slope(pair_b, monkeypatch):
    got = [p.u_star for p in smooth_pairs(pair_b)]

    def bisect_mid(f, lo, hi, *, tol_x):  # bisect_up as it was: the midpoint
        return numerics.bisect_down(lambda x: -f(x), lo, hi, f_lo=-f(lo),
                                    f_hi=-f(hi), tol_x=tol_x)

    monkeypatch.setattr(frontier, "bisect_up", bisect_mid)
    for pair, us in zip(smooth_pairs(pair_b), got):
        assert pair.f1.dfn(us) >= pair.f0.dfn(us), (pair, us)
        # the midpoint is at most half the final bracket above
        half = 0.5 * frontier.U_STAR_TOL * pair.u0
        assert 0.0 <= pair.u_star - us <= half + math.ulp(us), (pair, us)


def test_first_pass_clamps_every_level(pair_b, monkeypatch):
    # counted on the class before any pair is built, so every pair's
    # f0_band binds the counting method
    interior = []
    orig = ParametricFrontier.level_at_slope

    def counted(self, y, lo, hi, d_lo, d_hi):
        interior.append(d_hi < y < d_lo)
        return orig(self, y, lo, hi, d_lo, d_hi)

    monkeypatch.setattr(ParametricFrontier, "level_at_slope", counted)
    rng = random.Random(3602)
    for pair in smooth_pairs(pair_b):
        m = rng.choice((2, 16, 128, 512))
        dist = bench_law(rng, m)
        interior.clear()
        levels, conts, _ = euler.backward_pass(
            pair, dist, pair.u_star, euler._discounts(pair, dist))
        assert len(interior) == m - 1 and not any(interior), pair
        assert set(levels) == {pair.u_star}


@pytest.mark.parametrize("m", [1, 2, 16, 512])
def test_inv_deriv_f0_once_per_atom_but_the_last_per_pass(monkeypatch, m):
    calls, lams = [], []
    orig_inv, orig_pass = euler.inv_deriv_f0, euler.backward_pass

    def inv(pair, y):
        calls.append(lams[-1])
        return orig_inv(pair, y)

    def backward_pass(pair, dist, lam, *args):
        lams.append(lam)
        return orig_pass(pair, dist, lam, *args)

    monkeypatch.setattr(euler, "inv_deriv_f0", inv)
    monkeypatch.setattr(euler, "backward_pass", backward_pass)
    rng = random.Random(3603 + m)
    for _ in range(5):
        pair = fixture_b_pair(rng)
        calls.clear()
        lams.clear()
        euler.solve(pair, bench_law(rng, m))
        assert lams[0] == pair.u_star and len(lams) >= 2
        assert [calls.count(lam) for lam in lams] == [m - 1] * len(lams)


# ---------------------------------------------------- the u_star scan cell ---

def u_star_reference(f0, f1):
    """The smooth-pair ``u_star`` scan with every slope read through
    :func:`slope`."""
    lo = max(f0.u_lo, f1.u_lo)
    cap = min(f0.peak[0], f0.u_hi, f1.u_hi)

    def psi(u):
        return slope(f0, u) - slope(f1, u)

    n = 512
    for i in range(n - 1, -1, -1):
        a = lo + (cap - lo) * i / n
        if psi(a) <= 0.0:
            return numerics.bisect_up(psi, a, lo + (cap - lo) * (i + 1) / n,
                                      tol_x=frontier.U_STAR_TOL * (cap - lo))
    return lo


def test_u_star_scan_matches_slope_reads(pair_b, pair_b_affine):
    rng = random.Random(3604)
    pairs = smooth_pairs(pair_b)
    pairs += [translated(pair_b, k) for k in (-0.37, 0.05, 1.0, 3.3)]
    pairs += [pair_b_affine, translated(pair_b_affine, 0.21)]
    pairs += [build_frontiers(random_ui_primitives(rng), 1.0) for _ in range(10)]
    for pair in pairs:
        f0, f1 = pair.f0, pair.f1
        assert outcome(frontier.u_star, f0, f1) == outcome(u_star_reference, f0, f1)


# --------------------------------------------------------------- residuals ---

def residuals_reference(pair, dist, levels, conts):
    """``euler_residuals`` with every slope through :func:`slope` and every
    survival through ``dist.cdf``."""
    out = []
    running = 0.0
    for t_k, p_k, x_k, c_k in zip(dist.times, dist.probs, levels, conts):
        running += p_k * slope(pair.f1, c_k)
        out.append((1.0 - dist.cdf(t_k)) * slope(pair.f0, x_k) + running)
    return tuple(out)


def mixed_pairs():
    """A piecewise ``f0`` with a parametric ``f1``, and the other way round;
    the residuals read slopes only, so the constants are placeholders."""
    b0 = ParametricFrontier(fn=b_f0, u_lo=0.0, u_hi=1.2, dfn=b_f0_d)
    b1 = ParametricFrontier(fn=b_f1, u_lo=0.0, u_hi=1.2, dfn=b_f1_d)
    chord = PiecewiseFrontier(((0.1, 0.19), (1.0, 1.0)))
    return (TechnologyPair(f0=chord, f1=b1, r=1.0, u0=1.0, u1=0.7, u_star=0.1),
            TechnologyPair(f0=b0, f1=PiecewiseFrontier(A_F1_POINTS), r=1.0,
                           u0=1.0, u1=0.8, u_star=0.3))


def domain_levels(rng, pair, m):
    """``m`` levels in both domains: draws, the shared domain's ends and the
    breakpoints of a piecewise frontier among them."""
    lo = max(pair.f0.u_lo, pair.f1.u_lo)
    hi = min(pair.f0.u_hi, pair.f1.u_hi)
    pool = [lo, hi] + [float(u) for f in (pair.f0, pair.f1)
                       for u, _ in getattr(f, "points", ()) if lo <= u <= hi]
    return tuple(rng.choice(pool) if rng.random() < 0.2 else rng.uniform(lo, hi)
                 for _ in range(m))


def solved_paths():
    """``(pair, dist, solution)`` for the cases of
    ``test_hotpaths.path_cases`` that solve (at least 25 do)."""
    out = []
    for pair, dist in path_cases():
        try:
            out.append((pair, dist, euler.solve(pair, dist)))
        except BracketFailure:
            pass
    assert len(out) >= 25
    return out


def test_residuals_match_slope_and_cdf_reads():
    for pair, dist, sol in solved_paths():
        assert exact(euler.euler_residuals(pair, dist, sol.levels, sol.conts)) \
            == exact(residuals_reference(pair, dist, sol.levels, sol.conts))
    rng = random.Random(3605)
    pairs = [fixture_b_pair(rng) for _ in range(3)] + [dense_b_pair()]
    pairs += [build_frontiers(random_ui_primitives(rng), 1.0) for _ in range(3)]
    pairs += list(mixed_pairs())
    for pair in pairs:
        for m in (1, 2, 16, 128):
            dist = random_law(rng, m)
            levels, conts = domain_levels(rng, pair, m), domain_levels(rng, pair, m)
            assert outcome(euler.euler_residuals, pair, dist, levels, conts) \
                == outcome(residuals_reference, pair, dist, levels, conts)


def test_residuals_off_domain_raise_not_simple(pair_b, pair_ui):
    root = ParametricFrontier(fn=math.sqrt, u_lo=0.0, u_hi=4.0,
                              dfn=lambda u: math.inf if u == 0.0 else 0.5 / u ** 0.5)
    sqrt_pair = TechnologyPair(f0=root, f1=root, r=1.0, u0=4.0, u1=4.0, u_star=0.0)
    dist = discretize("exponential", 3, rate=1.0)
    for pair in (pair_b, pair_ui, dense_b_pair(), *mixed_pairs(), sqrt_pair):
        mid = 0.5 * (max(pair.f0.u_lo, pair.f1.u_lo) + min(pair.f0.u_hi, pair.f1.u_hi))
        # a bad level (for f0) or continuation value (for f1) at atom 1
        for side, f in enumerate((pair.f0, pair.f1)):
            out = 1e-6 * (f.u_hi - f.u_lo)  # beyond KINK_SNAP
            for bad in (f.u_hi + out, f.u_lo - out, math.inf, math.nan):
                path = [[mid] * 3, [mid] * 3]
                path[side][1] = bad
                got = outcome(euler.euler_residuals, pair, dist, *path)
                assert got == outcome(residuals_reference, pair, dist, *path)
                assert got[0] == "NotSimple", (pair, side, bad)
        # slope() refuses a NaN before either kind's derivs reads it
        for f in (pair.f0, pair.f1):
            with pytest.raises(NotSimple, match="no slope at u=nan"):
                slope(f, math.nan)
    # an infinite slope inside the domain raises as slope() does
    with pytest.raises(NotSimple, match="no finite slope at u=0.0"):
        euler.euler_residuals(sqrt_pair, dist, (1.0, 0.0, 1.0), (1.0,) * 3)


# ------------------------------------------------------------------ payoff ---

def test_payoff_path_mechanisms_match_reference():
    for pair, dist, sol in solved_paths():
        assert exact(payoff(sol.mechanism, pair, dist)) == exact(sol.payoff) \
            == exact(payoff_reference(sol.mechanism, pair, dist))
