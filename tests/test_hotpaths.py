"""Hot paths against straightforward references, compared bit for bit.

The fast ``cdf``/``cdf_left`` lookups and run masses, the one-pass
``payoff``, and ``PiecewiseFrontier.derivs``, read off the table of its
one-bisection ``rank``, must return exactly what the plain
implementations kept here as oracles return.  Every such comparison is
exact equality (floats by ``.hex()``), never approximate.  The
payoff-free deadline bracket sums its terms in another order than a
per-atom loop once ``f1`` is piecewise (run by run of atoms that share a
slope), so it is held to an exact ``Fraction`` oracle instead: within
the float summation bound ``len(atoms) * 2**-52 * (|alpha| + sum
|p_k s_k|)``, with the exact sign outside it, and infinite where a
domain-end slope enters.  The last tests count work instead of timing
it: one ``optimize_deadline`` call may
compute only the payoffs it reads, a payoff reads ``f1`` once for all the
atoms of its last cell, and a solve reads the bracket at few atoms (one
binary search over them when ``f0`` is affine, and no more than the
pruning leaves otherwise) and closes a crossing piece by Brent's method
when ``f1`` is parametric and by a binary search over its kink events
when it is piecewise, reads a piecewise ``f1``'s slopes through
``derivs`` a fixed number of times whatever m, slopes cost no frontier
value, ``psi`` reads one ``f1`` slope per atom, ``solve``
searches ``[u_star, u0]`` once for the ``psi`` root and makes one backward
pass per ``psi`` evaluation, a piecewise ``solve`` reads ``f0`` slopes
only at the band ends, and the insurance inner maximization runs once per
level of a pair and leaves no state behind.  The backward pass, with its
discount table, direct slope reads and inline clamps, must give ``solve``
exactly the floats of the pass as first written (kept here, with
``brent_down`` as first written and a piecewise ``f0`` inverted by a
linear scan of its breakpoints, the oracle that the piecewise inversion
also matches exactly on random ``Fraction`` frontiers).

The three smooth root solves, the ``f0`` slope inversion and the ``psi``
root of a parametric pair by Brent's method and the insurance labor
maximization by Newton's method in log labor, may land a few ulps from
where bisection lands: they are compared against in-test full-resolution
bisections, the labor level within ``LABOR_ULPS`` units of
``EPS * max(1, |log L|)`` relative and everything else within 1e-12, as
are the ``solve`` outputs built on them, and their slope evaluations per
solve are counted.  Every Newton search of the labor maximization must
start at or above the root, fall to it without stepping below it but by
roundoff, and read nothing but its first-order condition; on wide-range
primitives it must end in a finite answer or a ``ConfigError``.  The
insurance ``f0`` inverts its slope in closed form, which must agree with
Brent's method on ``dfn`` to 2e-13 plus what ``dfn``'s roundoff leaves
open; so does the insurance ``f1``, to ``2e-13 u0``, and both peaks read
off the two inverses must match Brent's peaks to ``1e-13 u0``; a sweep
over insurance pairs with ``u_star`` set by proof must match one over
pairs built by the ``u_star`` scan with Brent inversions within 1e-12;
and a ``ui-sweep`` run must run neither the scan nor a bisection, and
Brent's method only for the ``psi`` root and the deadline's crossing
pieces.
"""

from __future__ import annotations

import bisect
import dataclasses
import inspect
import json
import math
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from disclose import deadline, euler, frontier, insurance, mechanism, numerics
from disclose.cli import main
from disclose.deadline import _alpha, _brackets, pi_and_derivs
from disclose.distribution import BreakthroughDist, discretize, from_atoms
from disclose.errors import AtomAtZero, BracketFailure, ConfigError, SolverError
from disclose.frontier import (INF, KINK_SNAP, NEG_INF, ParametricFrontier,
                               PiecewiseFrontier, TechnologyPair, is_neg_inf,
                               slope)
from disclose.insurance import UiPrimitives, build_frontiers, schedule, ui_constants
from disclose.mechanism import (Mechanism, continuation_value, mechanism_rows,
                                payoff)

from conftest import A_F0_POINTS, A_F1_POINTS
from test_golden import DENSE_B_TECH, WITNESS_ATOMS, WITNESS_TECH


def exact(v):
    """A comparable image of ``v`` that tells apart any two different floats
    (including -0.0/0.0 and NaN/NaN)."""
    if isinstance(v, float):
        return ("float", v.hex())
    if isinstance(v, (tuple, list)):
        return tuple(exact(x) for x in v)
    return (type(v).__name__, v)


def random_law(rng: random.Random, m: int) -> BreakthroughDist:
    times = sorted(rng.sample(range(1, 50 * m), m))
    scale = rng.uniform(0.01, 3.0)
    weights = [rng.uniform(1e-3, 1.0) ** 3 for _ in range(m)]
    total = math.fsum(weights)
    return BreakthroughDist(times=tuple(scale * t / m for t in times),
                            probs=tuple(w / total for w in weights))


# ------------------------------------------------------------ distribution ---

def cdf_reference(dist, t):
    return math.fsum(p for tk, p in zip(dist.times, dist.probs) if tk <= t)


def cdf_left_reference(dist, t):
    return math.fsum(p for tk, p in zip(dist.times, dist.probs) if tk < t)


def query_times(rng, times):
    qs = [times[0] - 1.0, -0.0, 0.0, times[-1], times[-1] + 1.0,
          math.inf, -math.inf, math.nan]
    qs += rng.sample(times, min(len(times), 40))
    for _ in range(40):
        k = rng.randrange(len(times) - 1) if len(times) > 1 else 0
        hi = times[k + 1] if len(times) > 1 else times[0] + 1.0
        qs.append(rng.uniform(times[k], hi))
        qs.append(math.nextafter(times[k], -math.inf))
        qs.append(math.nextafter(times[k], math.inf))
    return qs


@pytest.mark.parametrize("m", [1, 2, 3, 17, 64, 256, 2048])
def test_cdf_matches_filtered_fsum(m):
    rng = random.Random(1000 + m)
    laws = [random_law(rng, m), discretize("exponential", m, rate=0.7),
            discretize("weibull", m, shape=1.7, scale=2.0)]
    for dist in laws:
        for t in query_times(rng, list(dist.times)):
            assert exact(dist.cdf(t)) == exact(cdf_reference(dist, t)), t
            assert exact(dist.cdf_left(t)) == exact(cdf_left_reference(dist, t)), t
        # every prefix of the cached table, not just the sampled ones
        for k, t in enumerate(dist.times):
            assert dist.cdf(t) == math.fsum(dist.probs[:k + 1])
            assert dist.cdf_left(t) == math.fsum(dist.probs[:k])


@pytest.mark.parametrize("m", [1, 3, 64])
def test_mass_matches_fsum_of_the_run(m):
    rng = random.Random(2000 + m)
    for dist in (random_law(rng, m), discretize("exponential", m, rate=0.7)):
        for i in range(m + 1):
            for j in range(i, m + 1):
                assert exact(dist.mass(i, j)) == exact(math.fsum(dist.probs[i:j]))


def test_cdf_prefix_masses_exact_over_wide_exponent_range():
    # masses from subnormal to near one: a prefix sum that is not exact (or
    # not rounded once) shows up in the low bits
    rng = random.Random(7)
    small = [5e-324, 1e-305, 1e-300, 2.0 ** -60, 1e-17, 3e-9]
    for _ in range(50):
        rest = small + [rng.uniform(0.01, 0.2) for _ in range(5)]
        rng.shuffle(rest)
        probs = tuple(rest) + (1.0 - math.fsum(rest),)
        dist = BreakthroughDist(times=tuple(float(k) for k in range(len(probs))),
                                probs=probs)
        for k, t in enumerate(dist.times):
            assert exact(dist.cdf(t)) == exact(math.fsum(probs[:k + 1]))
            assert exact(dist.cdf_left(t)) == exact(math.fsum(probs[:k]))
            assert exact(dist.mass(k, len(probs))) == exact(math.fsum(probs[k:]))


def test_cdf_fraction_queries(dist_k3):
    for t in (Fraction(1, 2), Fraction(3, 4), Fraction(2), Fraction(-1)):
        assert exact(dist_k3.cdf(t)) == exact(cdf_reference(dist_k3, t))
        assert exact(dist_k3.cdf_left(t)) == exact(cdf_left_reference(dist_k3, t))


# --------------------------------------------------------------- mechanism ---

def cell_reference(m, t):
    """The cell of ``t`` by a linear scan of the grid."""
    return max(i for i, g in enumerate(m.grid) if g <= t)


def reward_reference(m, r, t):
    """The disclosure reward at ``t``: the continuation value (rebuilding the
    profile) when DERIVED, else the explicit reward of the cell."""
    if m.reward is None:
        return continuation_value(m, r, t)
    return m.reward[cell_reference(m, t)]


def payoff_reference(m, pair, dist):
    """The payoff as the sum over atoms of per-atom ``reward_reference``
    (which rebuilds the continuation profile for every atom)."""
    r = pair.r
    n = len(m.grid)
    flow_vals = []
    for x in m.levels:
        v = pair.f0.value(x)
        flow_vals.append(None if is_neg_inf(v) else float(v))
    prefix = [0.0] * n
    first_bad = [False] * n
    for i in range(1, n):
        w = math.exp(-r * m.grid[i - 1]) - math.exp(-r * m.grid[i])
        contrib = 0.0 if flow_vals[i - 1] is None else flow_vals[i - 1] * w
        prefix[i] = prefix[i - 1] + contrib
        first_bad[i] = first_bad[i - 1] or flow_vals[i - 1] is None
    rows, bad = [], False
    for t, p in zip(dist.times, dist.probs):
        i = m.cell_index(t)
        pre = None
        if not (first_bad[i] or (t > m.grid[i] and flow_vals[i] is None)):
            pre = prefix[i] + (flow_vals[i] or 0.0) * (
                math.exp(-r * m.grid[i]) - math.exp(-r * t))
        v1 = pair.f1.value(reward_reference(m, r, t))
        post = None if is_neg_inf(v1) else math.exp(-r * t) * float(v1)
        bad = bad or pre is None or post is None
        rows.append((p, pre, post))
    if bad:
        return NEG_INF
    return math.fsum(p * (pre + post) for p, pre, post in rows)


def random_mechanism(rng, dist, *, explicit: bool, hi: float) -> Mechanism:
    """(m+1)-cell mechanism on the atom grid, a grid with some atoms on it
    and some between its points, or a grid off the atoms; levels and
    rewards occasionally leave the frontier domains."""
    u = rng.random()
    if u < 0.4:
        grid = (0.0,) + tuple(dist.times)
    elif u < 0.7:
        times = set(rng.sample(dist.times, rng.randint(0, len(dist.times))))
        times |= {rng.uniform(0.0, 1.2 * dist.times[-1]) for _ in dist.times}
        grid = (0.0,) + tuple(sorted(t for t in times if t > 0.0))
    else:
        grid = (0.0,) + tuple(sorted(rng.sample(range(1, 10 * len(dist.times) + 10),
                                                len(dist.times))))
        grid = tuple(g * dist.times[-1] / grid[-1] * 1.1 for g in grid)
    top = hi * (1.05 if rng.random() < 0.2 else 0.999)
    levels = tuple(rng.uniform(0.0, top) for _ in grid)
    reward = tuple(rng.uniform(0.0, top) for _ in grid) if explicit else None
    return Mechanism(grid=grid, levels=levels, reward=reward)


@pytest.mark.parametrize("explicit", [False, True])
@pytest.mark.parametrize("pair_name", ["pair_a", "pair_b"])
def test_payoff_matches_per_atom_reference(request, pair_name, explicit):
    pair = request.getfixturevalue(pair_name)
    hi = min(pair.f0.u_hi, pair.f1.u_hi)
    rng = random.Random(f"{pair_name}-{explicit}")
    for m in (1, 2, 5, 16, 64, 200):
        for _ in range(6):
            dist = random_law(rng, m)
            mech = random_mechanism(rng, dist, explicit=explicit, hi=hi)
            assert exact(payoff(mech, pair, dist)) == exact(
                payoff_reference(mech, pair, dist))


def test_payoff_deadline_mechanisms_match_reference(pair_a, pair_b, pair_ui,
                                                    dist_exp16):
    # deadlines between atoms and at each atom, under a law with an atom
    # at t = 0 too
    law0 = from_atoms([(0.0, 0.25)] + [(t, 0.75 * p) for t, p
                                       in zip(dist_exp16.times, dist_exp16.probs)])
    for pair in (pair_a, pair_b, pair_ui):
        for dist in (dist_exp16, law0):
            for T in (0.0, 0.3, math.log(3.5), 1.7, 9.0, math.inf) + dist.times:
                mech = deadline.deadline_mechanism(pair, T)
                assert exact(payoff(mech, pair, dist)) == exact(
                    payoff_reference(mech, pair, dist)), (pair, T)


@pytest.mark.parametrize("explicit", [False, True])
def test_rows_and_schedule_match_per_time_values(pair_ui, ui_prims, explicit):
    rng = random.Random(7 + explicit)
    dist = random_law(rng, 40)
    mech = random_mechanism(rng, dist, explicit=explicit, hi=pair_ui.u0)
    extra = [rng.uniform(0.0, 2.0 * dist.times[-1]) for _ in range(30)]
    rows = mechanism_rows(mech, pair_ui.r, extra_times=extra)
    times = sorted(set(mech.grid) | set(extra))
    assert exact(rows) == exact(tuple(
        (t, mech.levels[cell_reference(mech, t)],
         continuation_value(mech, pair_ui.r, t),
         reward_reference(mech, pair_ui.r, t)) for t in times))
    sched = schedule(ui_prims, pair_ui, mech, extra)
    assert exact(tuple(w.t for w in sched)) == exact(tuple(times))
    assert exact(tuple(w.promise_u for w in sched)) == exact(
        tuple(reward_reference(mech, pair_ui.r, t) for t in times))
    assert exact(tuple(w.flow_u for w in sched)) == exact(
        tuple(mech.levels[cell_reference(mech, t)] for t in times))


# ---------------------------------------------------------------- frontier ---

def derivs_reference(f, u):
    """``PiecewiseFrontier.derivs`` as first written: snap, then bisect for
    the segment and again for an interior breakpoint."""
    j = bisect.bisect_left(f._us, u)
    for idx in (j - 1, j):
        if 0 <= idx < len(f._us) and abs(u - f._us[idx]) <= KINK_SNAP:
            u = f._us[idx]
            break
    if u < f.u_lo or u > f.u_hi:
        return (None, None)
    i = min(max(bisect.bisect_right(f._us, u) - 1, 0), len(f._us) - 2)
    if u == f.u_lo:
        return (f._slopes[0], INF)
    if u == f.u_hi:
        return (-INF, f._slopes[-1])
    j = bisect.bisect_left(f._us, u)
    if j < len(f._us) and f._us[j] == u:
        return (f._slopes[j], f._slopes[j - 1])
    return (f._slopes[i], f._slopes[i])


def value_reference(f, u):
    """Value on the last segment starting at or left of ``u`` (a linear
    scan; the first segment for NaN)."""
    if u < f.u_lo or u > f.u_hi:
        return NEG_INF
    i = 0
    for k in range(len(f._us) - 1):
        if f._us[k] <= u:
            i = k
    u_i, v_i = f.points[i]
    return v_i + f._slopes[i] * (u - u_i)


def random_concave_points(rng, k):
    us = sorted(rng.sample(range(0, 1000), k))
    slopes = sorted((rng.uniform(-3.0, 3.0) for _ in range(k - 1)), reverse=True)
    pts = [(us[0] / 100.0, rng.uniform(-1.0, 1.0))]
    for u, s in zip(us[1:], slopes):
        pts.append((u / 100.0, pts[-1][1] + s * (u / 100.0 - pts[-1][0])))
    return tuple(pts)


def probe_points(rng, us):
    lo, hi = us[0], us[-1]
    qs = [lo, hi, lo - 1.0, hi + 1.0, -math.inf, math.inf, math.nan]
    qs += [rng.uniform(lo - 0.1, hi + 0.1) for _ in range(60)]
    for u in us:
        for off in (0.0, 0.25, 0.5, 0.999, 1.0, 1.001, 2.0):
            qs.append(u + off * KINK_SNAP)
            qs.append(u - off * KINK_SNAP)
        qs.append(math.nextafter(u, math.inf))
        qs.append(math.nextafter(u, -math.inf))
    return qs


def test_piecewise_derivs_match_reference():
    rng = random.Random(11)
    frontiers = [PiecewiseFrontier(A_F0_POINTS), PiecewiseFrontier(A_F1_POINTS)]
    frontiers += [PiecewiseFrontier(random_concave_points(rng, k))
                  for k in (2, 3, 4, 7, 12) for _ in range(4)]
    for f in frontiers:
        for u in probe_points(rng, f._us):
            assert exact(f.derivs(u)) == exact(derivs_reference(f, u)), (f.points, u)
            assert exact(f.value(u)) == exact(value_reference(f, u)), (f.points, u)


def test_piecewise_derivs_fraction_inputs(f0_exact, f1_exact):
    float_f1 = PiecewiseFrontier(A_F1_POINTS)
    for f in (f0_exact, f1_exact, float_f1):
        qs = [Fraction(k, 20) for k in range(-4, 44)]
        qs += [Fraction(3, 10) + Fraction(1, 10 ** 10), Fraction(4, 5) - Fraction(1, 10 ** 12)]
        qs += [0.3, 0.8 + 1e-10, 1.0 - 5e-10]
        for u in qs:
            assert exact(f.derivs(u)) == exact(derivs_reference(f, u)), u


def test_rank_places_as_derivs(f1_exact):
    # derivs is rank_sides at the rank, so the table read at the rank must
    # be the reference's answer exactly, slope types and NaN included, for
    # float and exact queries on float and Fraction frontiers; and the rank
    # never falls as u rises among queries of one type (a float query's
    # distance to a Fraction breakpoint is rounded, an exact one's is not,
    # so the two snap edges differ by roundoff)
    rng = random.Random(12)
    exact_random = PiecewiseFrontier(tuple(
        (Fraction(u).limit_denominator(100), Fraction(v).limit_denominator(10 ** 6))
        for u, v in random_concave_points(rng, 6)))
    frontiers = [PiecewiseFrontier(A_F1_POINTS), f1_exact, exact_random]
    frontiers += [PiecewiseFrontier(random_concave_points(rng, k))
                  for k in (2, 3, 4, 7, 12) for _ in range(4)]
    for f in frontiers:
        qs = probe_points(rng, f._us)
        offsets = (0, Fraction(1, 10 ** 10), -Fraction(1, 10 ** 9), Fraction(1, 10 ** 8))
        qs += [Fraction(u) + off for u in f._us for off in offsets]
        for u in qs:
            assert exact(f.rank_sides[f.rank(u) + 1]) == exact(derivs_reference(f, u)), (
                f.points, u)
        assert f.rank(math.nan) == 2 * len(f._us) - 3  # the last segment
        for kind in (float, Fraction):
            ranks = [f.rank(u) for u in sorted(u for u in qs
                                               if isinstance(u, kind) and u == u)]
            assert ranks == sorted(ranks), (f.points, kind)


# ---------------------------------------------------------------- deadline ---

def deadline_reward(pair, T, t):
    """Derived disclosure reward of the deadline-T mechanism at time t."""
    u0, ustar = float(pair.u0), float(pair.u_star)
    if t >= T:
        return ustar
    d = math.exp(-pair.r * (T - t))
    return (1.0 - d) * u0 + d * ustar


def exact_dot(pairs) -> Fraction:
    """``sum x * y`` over float pairs, exactly: every float is an integer
    over a power of two no larger than ``2**1074``, so every product is an
    integer over ``2**2148``."""
    num = 0
    for x, y in pairs:
        (a, b), (c, d) = x.as_integer_ratio(), y.as_integer_ratio()
        num += (a * c) << (2148 - (b * d).bit_length() + 1)
    return Fraction(num, 1 << 2148)


def brackets_exact(pair, dist, T, alpha):
    """The brackets at T as exact values, each with the bound on a float
    summation of them: ``((plus, bound), (minus, bound))``.

    Every atom at or before T enters with the slopes ``f1.derivs`` gives at
    its float reward (:func:`deadline_reward`), as the per-atom loop reads
    them, as floats, and the sums of their products with the masses, and
    the survival term, are exact.  A sum that an infinite domain-end slope
    enters is that infinity.  The bound is
    ``len(atoms) * 2**-52 * (|alpha| + sum |p_k s_k|)``: ``alpha`` counts
    in full, since the survival weight ``1 - G(T)`` is read off a cdf
    rounded to within ``2**-53``.
    """
    def one_side(side, atoms):
        terms = [(p, float(pair.f1.derivs(deadline_reward(pair, T, t))[side]))
                 for t, p in atoms]
        for _, s in terms:
            if math.isinf(s):
                return s, 0.0
        g = exact_dot((p, 1.0) for p, _ in terms)
        value = (1 - g) * Fraction(alpha) + exact_dot(terms)
        bound = len(dist.times) * 2.0 ** -52 * (
            abs(alpha) + float(exact_dot((p, abs(s)) for p, s in terms)))
        return value, bound

    atoms = list(zip(dist.times, dist.probs))
    return (one_side(0, [(t, p) for t, p in atoms if t <= T]),
            one_side(1, [(t, p) for t, p in atoms if t < T]))


def assert_brackets_near_exact(pair, dist, T, alpha):
    """Each bracket within its bound of the exact one, with the exact sign
    wherever the exact value lies outside that bound."""
    got = _brackets(pair, dist, T, alpha)
    for g, (value, bound) in zip(got, brackets_exact(pair, dist, T, alpha)):
        if isinstance(value, float):  # an infinite slope entered the sum
            assert exact(g) == exact(value), T
            continue
        assert abs(Fraction(g) - value) <= bound, T
        if abs(value) > bound:
            assert (g > 0) == (value > 0), T
    return got


@pytest.mark.parametrize("pair_name", ["pair_a", "pair_b_affine", "pair_b"])
def test_brackets_match_pi_and_derivs_and_reference(request, pair_name):
    pair = request.getfixturevalue(pair_name)
    rng = random.Random(len(pair_name))
    alpha = _alpha(pair)
    for m in (1, 3, 32, 128):
        dist = random_law(rng, m)
        Ts = [0.0, dist.times[0], dist.times[-1], 2.0 * dist.times[-1] + 5.0]
        Ts += rng.sample(dist.times, min(m, 10))
        Ts += [rng.uniform(0.0, 1.2 * dist.times[-1]) for _ in range(10)]
        for T in Ts:
            got = assert_brackets_near_exact(pair, dist, T, alpha)
            d = pi_and_derivs(pair, dist, T)
            assert exact(got) == exact((d.bracket_plus, d.bracket_minus)), T


def random_bracket_pair(rng, exact_points):
    """A random concave piecewise ``f1`` and a band ``[u_star, u0]`` in its
    domain, built as the pair fields the bracket reads (``f0`` is not
    read, and ``alpha`` is passed in).  ``u_star`` is ``f1``'s first
    breakpoint one time in three, else a breakpoint or a point between;
    ``u0`` likewise is its last.  With ``exact_points`` the breakpoints are
    ``Fraction``s."""
    pts = random_concave_points(rng, rng.randint(2, 9))
    if exact_points:
        pts = [(Fraction(u).limit_denominator(100), Fraction(v).limit_denominator(10 ** 6))
               for u, v in pts]
    f1 = PiecewiseFrontier(pts)
    us = [float(u) for u, _ in pts]
    if us[-1] > pts[-1][0]:  # u0 may not pass the domain end
        us[-1] = math.nextafter(us[-1], -math.inf)

    def pick(end):
        roll = rng.random()
        if roll < 1 / 3:
            return end
        if roll < 2 / 3 and len(us) > 2:
            return rng.choice(us[1:-1])
        return rng.uniform(us[0], us[-1])

    lo, hi = sorted((pick(us[0]), pick(us[-1])))
    if hi - lo < 1e-3:
        lo, hi = us[0], us[-1]
    return TechnologyPair(f0=None, f1=f1, r=rng.uniform(0.2, 3.0), u0=hi,
                          u1=float(f1.peak[0]), u_star=lo)


def bracket_probe_times(rng, pair, dist):
    """Deadlines at the atoms and at the kink events ``t_k + lag`` (an atom's
    reward reaches an ``f1`` breakpoint), and within ``KINK_SNAP`` of both,
    plus 0, a late deadline that puts the early rewards at ``u0``, and a few
    at random."""
    lags = [deadline._deadline_for(pair, u) for u in map(float, pair.f1._us)
            if pair.u_star < u < pair.u0]
    times = list(dist.times)
    anchors = rng.sample(times, min(len(times), 6))
    anchors += [t + lag for t in rng.sample(times, min(len(times), 4)) for lag in lags]
    Ts = [0.0, times[-1] + 40.0 / pair.r]
    Ts += [rng.uniform(0.0, 1.5 * times[-1]) for _ in range(4)]
    for a in anchors:
        Ts += [a, math.nextafter(a, math.inf), math.nextafter(a, -math.inf)]
        Ts += [a + c * KINK_SNAP for c in (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)]
    return [T for T in Ts if T >= 0.0]


def test_piecewise_bracket_run_masses_are_correctly_rounded():
    # a tiny mass on a steep segment after a large one on a flat segment:
    # read as a difference of the two rounded prefix masses, the tiny run's
    # mass would be off by up to half an ulp of the large one, 1e-16 times
    # the slope 3, past the summation bound
    f1 = PiecewiseFrontier(((0.0, 0.0), (1.0, 3.0), (2.0, 3.001)))
    pair = TechnologyPair(f0=None, f1=f1, r=1.0, u0=2.0, u1=2.0, u_star=0.0)
    p0, p1 = 0.6055098475906455, 3.391674408012374e-14
    dist = BreakthroughDist(times=(0.0, 1.0, 3.0), probs=(p0, p1, 1.0 - p0 - p1))
    # at T = 1.5 the rewards are 2 - 2 exp(-1.5) on the flat segment and
    # 2 - 2 exp(-0.5) on the steep one
    assert_brackets_near_exact(pair, dist, 1.5, 0.05)


def test_piecewise_brackets_match_the_exact_sums():
    # the run-by-run sums of a piecewise f1 against the exact per-atom
    # sums, at deadlines where rewards sit on (or within KINK_SNAP of) a
    # breakpoint, with the band ends at f1's domain ends (infinite slopes)
    rng = random.Random(27)
    seen = Counter()
    for trial in range(48):
        pair = random_bracket_pair(rng, exact_points=trial % 4 == 3)
        dist = random_law(rng, rng.choice((1, 2, 5, 16, 32)))
        alpha = rng.uniform(0.05, 3.0)
        for T in bracket_probe_times(rng, pair, dist):
            got = assert_brackets_near_exact(pair, dist, T, alpha)
            seen["-inf right"] += got[0] == -math.inf
            seen["+inf left"] += got[1] == math.inf
            seen["on a kink"] += any(
                abs(deadline_reward(pair, T, t) - float(u)) <= KINK_SNAP
                for t in dist.times if t < T for u in pair.f1._us[1:-1])
    # every edge the probes aim at is reached
    assert min(seen.values()) >= 20, seen


def test_exact_pair_brackets_are_pinned(f0_exact, f1_exact):
    # the brackets of a Fraction pair, recorded while the rank still placed
    # rewards against a float copy of the breakpoints: inside a piece, on
    # the kink event where atom 2's reward reaches the breakpoint 4/5, and
    # at atom 3
    pair = TechnologyPair.build(f0_exact, f1_exact, 1.0)
    dist = discretize("exponential", 8, rate=1.0)
    kink = float.fromhex("0x1.a0a0fbdab42a8p+0")
    assert kink == dist.times[2] + deadline._deadline_for(pair, 0.8)
    assert abs(deadline_reward(pair, kink, dist.times[2]) - 0.8) <= KINK_SNAP
    pins = {1.0: ("0x1.4000000000000p-1", "0x1.4000000000000p-1"),
            kink: ("0x1.9999999999998p-4", "0x1.0000000000000p-2"),
            dist.times[3]: ("0x1.6666666666666p-1", "0x1.8cccccccccccdp-1")}
    for T, want in pins.items():
        assert tuple(b.hex() for b in _brackets(pair, dist, T, _alpha(pair))) == want, T


def test_brackets_reject_bad_deadlines(pair_a, dist_k2):
    for T in (-0.1, math.nan):
        with pytest.raises(deadline.ModelAssumptionError):
            _brackets(pair_a, dist_k2, T, _alpha(pair_a))


# ------------------------------------------------------------- work counts ---

KINKED_F0 = ((0.0, 0.0), (0.5, 0.6), (1.0, 1.0), (2.0, 0.0))


def count_calls(monkeypatch, module, name, counts):
    orig = getattr(module, name)

    def wrapped(*args, **kwargs):
        counts[name] += 1
        return orig(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapped)


def count_by_caller(monkeypatch, module, name, counts):
    """Count ``module.name`` calls under ``(name, calling function)``."""
    orig = getattr(module, name)

    def wrapped(*args, **kwargs):
        counts[name, sys._getframe(1).f_code.co_name] += 1
        return orig(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapped)


def deadline_case(request, case):
    if case == "kinked":
        pair = TechnologyPair.build(PiecewiseFrontier(KINKED_F0),
                                    PiecewiseFrontier(A_F1_POINTS), 1.0)
        return pair, discretize("exponential", 64, rate=0.8)
    if case == "late-cluster":
        pair = TechnologyPair.build(PiecewiseFrontier(WITNESS_TECH["f0"]),
                                    PiecewiseFrontier(WITNESS_TECH["f1"]), 1.38)
        return pair, from_atoms(WITNESS_ATOMS)
    name, dist = {
        "affine-exp64": ("pair_a", discretize("exponential", 64, rate=1.0)),
        "affine-exp256": ("pair_a", discretize("weibull", 256, shape=1.5, scale=2.0)),
        "affine-exp2048": ("pair_a", discretize("exponential", 2048, rate=1.0)),
        "affine-smooth": ("pair_b_affine", discretize("exponential", 32, rate=1.0)),
        "curved": ("pair_b", discretize("exponential", 16, rate=1.0)),
        "insurance": ("pair_ui", discretize("exponential", 32, rate=1.0)),
    }[case]
    return request.getfixturevalue(name), dist


@pytest.mark.parametrize("case", ["affine-exp64", "affine-exp256",
                                  "affine-smooth", "kinked", "curved", "late-cluster"])
def test_optimize_deadline_computes_only_read_payoffs(request, monkeypatch, case):
    pair, dist = deadline_case(request, case)
    counts = Counter()
    for module, name in ((deadline, "payoff"), (deadline, "deadline_payoff"),
                         (deadline, "pi_and_derivs"),
                         (mechanism, "continuation_profile")):
        count_calls(monkeypatch, module, name, counts)
    deadline.optimize_deadline(pair, dist)

    # foc_check reads brackets only, so every deadline_payoff is a candidate
    assert counts["pi_and_derivs"] == 0
    candidates = counts["deadline_payoff"]
    assert candidates >= 1
    # candidates and the never-stop profile
    assert counts["payoff"] <= candidates + 1
    # deadline mechanisms derive their reward: one profile per payoff
    assert counts["continuation_profile"] == counts["payoff"]


@pytest.mark.parametrize("case", ["affine-exp64", "kinked", "insurance"])
def test_payoff_reads_f1_once_in_the_last_cell(request, monkeypatch, case):
    # every atom of the last cell has the same reward, so f1 is read once
    # for all of them: once for the never-stop profile, and once per atom
    # before T plus once for a deadline T
    pair, dist = deadline_case(request, case)
    reads = Counter()
    value = type(pair.f1).value

    def counted(self, u):
        reads[self is pair.f1] += 1
        return value(self, u)

    monkeypatch.setattr(type(pair.f1), "value", counted)
    times = dist.times
    for T in (math.inf, times[0], times[len(times) // 2],
              (times[5] + times[6]) / 2, times[-1], 2 * times[-1]):
        reads.clear()
        p = payoff(deadline.deadline_mechanism(pair, T), pair, dist)
        assert isinstance(p, float)
        before = sum(t < T for t in times)
        assert reads[True] == (1 if T == math.inf else before + (before < len(times)))


# bracket evaluations: the T_hi doubling, the threshold, the atoms the
# search splits at, the crossing pieces and foc_check.  A piecewise f1
# closes a piece by a binary search over its kink events, O(log m) reads
# (the end values are reused); a parametric one takes Brent's method in the
# discount factor to 1e-13 in T, a few evaluations
BRACKET_COUNTS = {
    # f0 affine: one binary search over the atoms
    "affine-exp64": 10,
    "affine-exp256": 12,
    "affine-exp2048": 16,
    "affine-smooth": 9,
    # f0 not affine: the bracket may rise at an atom, and the search
    # splits each interval that can still cross zero
    "kinked": 7,
    "curved": 7,
    "insurance": 11,
    "late-cluster": 16,  # two crossing pieces, 14 and 45 kink events
}


@pytest.mark.parametrize("case", BRACKET_COUNTS)
def test_optimize_deadline_bracket_count(request, monkeypatch, case):
    pair, dist = deadline_case(request, case)
    counts = Counter()
    count_calls(monkeypatch, deadline, "_brackets", counts)
    deadline.optimize_deadline(pair, dist)
    assert counts["_brackets"] <= BRACKET_COUNTS[case]


# slopes read through PiecewiseFrontier.derivs in one optimize_deadline
# with a piecewise pair: f1's for the slope gap of the atom jumps, at
# u_star, once, and f0's at the two band ends for affine_gap.  The brackets
# read their slopes off rank_sides, so the count is the same at m = 64 and
# m = 2048
DERIVS_PER_SOLVE = 4


@pytest.mark.parametrize("case", ["affine-exp64", "affine-exp2048"])
def test_piecewise_deadline_reads_no_slope_per_atom(request, monkeypatch, case):
    pair, dist = deadline_case(request, case)
    counts = Counter()
    derivs = PiecewiseFrontier.derivs

    def counted(self, u):
        counts["derivs"] += 1
        return derivs(self, u)

    monkeypatch.setattr(PiecewiseFrontier, "derivs", counted)
    deadline.optimize_deadline(pair, dist)
    assert 1 <= counts["derivs"] <= DERIVS_PER_SOLVE


@pytest.mark.parametrize("case, root", [
    ("curved", "brent_down"), ("affine-smooth", "brent_down"),
    ("insurance", "brent_down"), ("affine-exp64", "_kink_crossing"),
    ("late-cluster", "_kink_crossing")])
def test_deadline_piece_root_follows_the_f1_kind(request, monkeypatch, case, root):
    # a parametric f1 makes the bracket smooth inside an atom-free piece,
    # so Brent's method closes it; a piecewise f1's bracket is a step
    # function there, closed at a kink event with no root finder
    pair, dist = deadline_case(request, case)
    assert [n for n in ("brent_down", "bisect_down", "bisect_up")
            if hasattr(deadline, n)] == ["brent_down"]
    counts = Counter()
    for name in ("brent_down", "_kink_crossing"):
        count_calls(monkeypatch, deadline, name, counts)
    deadline.optimize_deadline(pair, dist)
    assert counts[root] >= 1
    assert sum(counts.values()) == counts[root]


def test_parametric_derivs_call_no_fn():
    calls = Counter()

    def fn(u):
        calls["fn"] += 1
        return -u * u

    f = ParametricFrontier(fn=fn, u_lo=-1.0, u_hi=1.0, dfn=lambda u: -2.0 * u)
    for u in (-1.0, -0.5, 0.0, 0.25, 1.0, 1.5, -2.0):
        f.derivs(u)
    assert calls["fn"] == 0


@pytest.mark.parametrize("m", [1, 2, 16])
def test_psi_reads_one_f1_slope_per_atom(pair_b, monkeypatch, m):
    # a parametric f1's slope is read straight from dfn, so count dfn calls
    # on a copy of f1 whose dfn counts them
    dist = discretize("exponential", m, rate=1.0)
    calls = Counter()
    f1 = pair_b.f1

    def dfn(u):
        calls["f1'"] += 1
        return f1.dfn(u)

    pair = TechnologyPair.build(pair_b.f0, dataclasses.replace(f1, dfn=dfn), pair_b.r)
    calls.clear()  # building the pair reads f1' to find u_star
    euler.psi(pair, dist, 0.5)
    assert calls["f1'"] == m


def dense_b_pair():
    return TechnologyPair.build(
        PiecewiseFrontier(tuple(map(tuple, DENSE_B_TECH["f0"]))),
        PiecewiseFrontier(tuple(map(tuple, DENSE_B_TECH["f1"]))), 1.0)


def count_psi_work(monkeypatch):
    """``(lams, evals)``, filled while ``euler.solve`` runs: the ``lam`` of
    every backward pass in order, and ``evals["psi"]``, the evaluations of
    the ``psi`` callable (the two band ends, then the root search's)."""
    lams, evals = [], Counter()
    orig_pass = euler.backward_pass

    def backward_pass(pair, dist, lam, *args):
        lams.append(lam)
        return orig_pass(pair, dist, lam, *args)

    monkeypatch.setattr(euler, "backward_pass", backward_pass)
    for name in ("bisect_down", "brent_down"):
        orig = getattr(euler, name)

        def wrapped(f, *args, orig=orig, **kwargs):
            if f.__qualname__.startswith("solve.<locals>."):  # psi, not f0'
                def counted(lam):
                    evals["psi"] += 1
                    return f(lam)

                return orig(counted, *args, **kwargs)
            return orig(f, *args, **kwargs)

        monkeypatch.setattr(euler, name, wrapped)
    evals["psi"] += 2
    return lams, evals


@pytest.mark.parametrize("kind, m, most", [
    # the two band ends, then Brent's steps: psi is linear in lam for one
    # atom, so its secant step lands on the root
    ("parametric", 1, 3),
    ("parametric", 2, 6),
    ("parametric", 16, 9),
    # the two band ends, then bisection until |psi| <= PSI_TOL
    ("piecewise", 16, 42),
])
def test_solve_searches_the_psi_band_once(pair_b, monkeypatch, kind, m, most):
    pair = dense_b_pair() if kind == "piecewise" else pair_b
    _, evals = count_psi_work(monkeypatch)
    euler.solve(pair, discretize("exponential", m, rate=1.0))
    assert evals["psi"] <= most


@pytest.mark.parametrize("kind, m", [("parametric", 1), ("parametric", 2),
                                     ("parametric", 16), ("insurance", 16),
                                     ("piecewise", 16)])
def test_solve_makes_one_pass_per_psi_evaluation(request, monkeypatch, kind, m):
    # the pass at the chosen root is the one the search already made
    pair = (dense_b_pair() if kind == "piecewise" else request.getfixturevalue(
        "pair_ui" if kind == "insurance" else "pair_b"))
    lams, evals = count_psi_work(monkeypatch)
    euler.solve(pair, discretize("exponential", m, rate=1.0))
    assert evals["psi"] > 2
    assert len(set(lams)) == len(lams)
    if kind == "piecewise":
        # bisection returns the midpoint of its final bracket, which it
        # never evaluated: one pass more
        assert len(lams) == evals["psi"] + 1
    else:
        assert len(lams) == evals["psi"]


@pytest.mark.parametrize("m", [16, 128])
def test_piecewise_solve_reads_f0_slopes_only_at_the_band_ends(monkeypatch, m):
    # every pass reads one f1 slope per atom and the f0 levels come off the
    # breakpoints, so the only other reads are the band-end checks (a root
    # finder inverting f0 would read ~43 slopes per atom and pass)
    pair = dense_b_pair()  # building it reads slopes to find u_star
    lams, _ = count_psi_work(monkeypatch)
    counts = Counter()
    count_calls(monkeypatch, PiecewiseFrontier, "derivs", counts)
    euler.solve(pair, discretize("exponential", m, rate=1.0))
    assert len(lams) > 2
    assert counts["derivs"] <= len(lams) * m + 6


@pytest.mark.parametrize("kind", ["piecewise", "parametric"])
def test_psi_root_finder_follows_the_pair_kind(monkeypatch, pair_b, kind):
    # psi of a piecewise pair is a step function: Brent's steps gain nothing
    pair = dense_b_pair() if kind == "piecewise" else pair_b
    counts = Counter()
    for name in ("bisect_down", "brent_down"):
        orig = getattr(euler, name)

        def wrapped(f, *args, name=name, orig=orig, **kwargs):
            if f.__qualname__.startswith("solve.<locals>."):  # psi, not f0'
                counts[name] += 1
            return orig(f, *args, **kwargs)

        monkeypatch.setattr(euler, name, wrapped)
    euler.solve(pair, discretize("exponential", 8, rate=1.0))
    expected = "bisect_down" if kind == "piecewise" else "brent_down"
    assert counts == Counter({expected: 1})


# primitives no other test uses, so nothing computed earlier can be reused
SWEEP_PRIMS = UiPrimitives(a=0.47, b=1.9, w=1.1, shadow=0.5)
SWEEP_SHADOWS = (0.5, 0.2)


def count_labor_searches(monkeypatch, counts, key=lambda a, b, w, u: "search"):
    """Count each labor maximization that a ``_labor_search`` made from
    here on runs, under ``key(a, b, w, u)``."""
    orig = insurance._labor_search

    def labor_search(a, b, w):
        search = orig(a, b, w)

        def counted(u):
            counts[key(a, b, w, u)] += 1
            return search(u)

        return counted

    monkeypatch.setattr(insurance, "_labor_search", labor_search)


def test_welfare_sweep_computes_each_inner_max_once_per_pair(monkeypatch):
    orig_build = insurance.build_frontiers
    current = []
    levels = Counter()

    def build_frontiers(p, r):
        current.append(p.shadow)
        return orig_build(p, r)

    monkeypatch.setattr(insurance, "build_frontiers", build_frontiers)
    count_labor_searches(monkeypatch, levels, lambda a, b, w, u: (current[-1], u))
    insurance.welfare_sweep(SWEEP_PRIMS, SWEEP_SHADOWS,
                            discretize("exponential", 4, rate=1.0), 1.0)
    assert current == list(SWEEP_SHADOWS)
    assert levels and max(levels.values()) == 1


def test_welfare_sweep_leaves_no_state(monkeypatch):
    # a process-wide cache would let the second sweep skip inner maximizations
    calls = Counter()
    count_labor_searches(monkeypatch, calls)
    dist = discretize("exponential", 4, rate=1.0)
    counts = []
    for _ in range(2):
        calls.clear()
        insurance.welfare_sweep(dataclasses.replace(SWEEP_PRIMS, w=1.2),
                                SWEEP_SHADOWS, dist, 1.0)
        counts.append(calls["search"])
    assert counts[0] > 0
    assert counts[1] == counts[0]


# the ui-sweep workload's shadow prices
BENCH_SHADOWS = (0.5, 0.2, 0.1, 0.05)


def bench_sweep_case(rng, m):
    """``(template, dist, r)`` over the ``ui-sweep`` workload's ranges."""
    p = bench_ui_primitives(rng)
    r = rng.uniform(0.5, 2.0)
    dist = (discretize("exponential", m, rate=rng.uniform(0.5, 2.0))
            if rng.random() < 0.5 else
            discretize("weibull", m, shape=rng.uniform(0.8, 2.0),
                       scale=rng.uniform(0.5, 2.0)))
    return p, dist, r


@pytest.mark.parametrize("m", [8, 32])
def test_welfare_sweep_matches_pairs_built_by_the_scan(monkeypatch, m):
    # u_star set by proof and the closed-form slope inverses against pairs
    # built with frontier.u_star's scan and copies of both frontiers with no
    # inv_dfn, so Brent's method finds every level and the chord tangency;
    # u0 and u1 come from the pair under test, as the deadline's T moves
    # about 100 times as far as u0 (test_insurance_peaks_match_brent holds
    # the peaks themselves)
    rng = random.Random(9110 + m)
    cases = [bench_sweep_case(rng, m) for _ in range(8)]
    fast = [insurance.welfare_sweep(p, BENCH_SHADOWS, dist, r) for p, dist, r in cases]
    build = insurance.build_frontiers

    def build_by_scan(p, r):
        pair = build(p, r)
        f0 = dataclasses.replace(pair.f0, inv_dfn=None)
        f1 = dataclasses.replace(pair.f1, inv_dfn=None)
        return TechnologyPair(f0=f0, f1=f1, r=r, u0=pair.u0, u1=pair.u1,
                              u_star=frontier.u_star(f0, f1))

    monkeypatch.setattr(insurance, "build_frontiers", build_by_scan)
    reference = [insurance.welfare_sweep(p, BENCH_SHADOWS, dist, r)
                 for p, dist, r in cases]
    assert len(fast) == len(reference) == 8
    for rows, ref_rows in zip(fast, reference):
        assert len(rows) == len(ref_rows) == 4
        for row, ref in zip(rows, ref_rows):
            for x, y in zip(dataclasses.astuple(row), dataclasses.astuple(ref)):
                assert abs(x - y) <= 1e-12, (row, ref)


def test_ui_sweep_runs_no_u_star_scan_and_no_inversion_search(tmp_path, monkeypatch):
    # a scan, a bisection or a Brent inversion that came back would show
    # only as time: no peak, chord tangency or level is searched for
    counts = Counter()
    count_calls(monkeypatch, frontier, "u_star", counts)
    for module in (frontier, euler, deadline):
        for name in ("bisect_down", "brent_down"):
            if hasattr(module, name):
                count_by_caller(monkeypatch, module, name, counts)
    p, _, r = bench_sweep_case(random.Random(9111), 32)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "technology": {"kind": "insurance", "a": p.a, "b": p.b, "w": p.w,
                       "shadow": p.shadow},
        "r": r, "shadows": list(BENCH_SHADOWS),
        "distribution": {"kind": "exponential", "rate": 1.0, "m": 32}}))
    assert main(["ui-sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    # one psi root search per shadow and the deadline's crossing pieces (at
    # most one per cell between atoms, m + 1 per shadow), and nothing else
    pieces = counts.pop(("brent_down", "_smooth_crossing"), 0)
    assert pieces <= 4 * 33
    assert counts == Counter({("brent_down", "solve"): 4})


# ------------------------------------------------------- inner root solves ---

INNER_TOL = 1e-12


def bisection_reference(g, lo, hi):
    """Root of ``g`` on [lo, hi], g(lo) >= 0 > g(hi), halving until the
    midpoint no longer lies strictly inside: full float resolution."""
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if g(mid) >= 0.0:
            lo = mid
        else:
            hi = mid


def inv_deriv_f0_reference(pair, y):
    ustar, u0 = float(pair.u_star), float(pair.u0)

    def g(u):
        return slope(pair.f0, u) - y

    if g(ustar) <= 0.0:
        return ustar
    if g(u0) >= 0.0:
        return u0
    return bisection_reference(g, ustar, u0)


def labor_foc(a, b, w, u, s):
    """``h(s) = (b-1) s + k log(u + e^(b s)) - log(a w / b)``, ``k = (1-a)/a``:
    positive exactly where the labor objective falls at ``L = e^s``.  The
    log is a log-sum-exp and the constant a sum of logs, so no term
    overflows or underflows to a wrong root at any float ``s``."""
    bs = b * s
    if u > 0.0:
        big, small = max(bs, math.log(u)), min(bs, math.log(u))
        bs = big + math.log1p(math.exp(small - big))
    return ((b - 1.0) * s + (1.0 - a) / a * bs
            - (math.log(a) + math.log(w) - math.log(b)))


def inner_max_reference(a, b, w, u):
    """``_inner_max`` by bisecting ``h`` in ``s = log L`` to full resolution
    on a bracket grown by doubling from ``[-1, 1]``."""
    def g(s):
        return -labor_foc(a, b, w, u, s)

    lo, hi = -1.0, 1.0
    while g(lo) < 0.0:
        lo *= 2.0
    while g(hi) >= 0.0:
        hi *= 2.0
    l_star = math.exp(bisection_reference(g, lo, hi))
    return l_star, w * l_star - (u + l_star ** b) ** (1.0 / a)


# bound on |log L* - log L_ref| in units of EPS * max(1, |log L_ref|): the
# relative error of L*, as both searches resolve h to roundoff in log labor
# (at most 2 on the draws of test_inner_max_matches_bisection)
LABOR_ULPS = 16


def labor_error(l_star, l_ref):
    """``|log L* - log L_ref|`` in units of ``EPS * max(1, |log L_ref|)``."""
    s_ref = math.log(l_ref)
    return abs(math.log(l_star) - s_ref) / (numerics.EPS * max(1.0, abs(s_ref)))


def fixture_b_pair(rng, calls=None):
    """Fixture B with both axes rescaled, as the path-smooth workload draws
    it; ``calls["f0'"]`` counts the ``f0`` slope evaluations."""
    su, sv, r = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
    k = sv / su

    def f0_d(u):
        if calls is not None:
            calls["f0'"] += 1
        return k * (2.0 - 2.0 * u / su)

    f0 = ParametricFrontier(fn=lambda u: sv * (2.0 * u / su - (u / su) ** 2),
                            u_lo=0.0, u_hi=1.2 * su, dfn=f0_d)
    f1 = ParametricFrontier(fn=lambda u: sv * (1.45 - 1.5 * (u / su - 0.7) ** 2),
                            u_lo=0.0, u_hi=1.2 * su,
                            dfn=lambda u: k * -3.0 * (u / su - 0.7))
    return TechnologyPair.build(f0, f1, r)


def random_ui_primitives(rng):
    return UiPrimitives(a=rng.uniform(0.3, 0.8), b=rng.uniform(1.5, 3.0),
                        w=rng.uniform(0.5, 2.0), shadow=rng.uniform(0.2, 1.0))


def bench_ui_primitives(rng):
    """Primitives over the ``ui-sweep`` workload's ranges and shadows."""
    return UiPrimitives(a=rng.uniform(0.45, 0.55), b=rng.uniform(1.7, 2.3),
                        w=rng.uniform(0.8, 1.25),
                        shadow=rng.choice(BENCH_SHADOWS))


def inner_max_levels(p, rng):
    """A random level in ``[0, 2 u0 + 0.5]``, then fixed ones: 0, where the
    labor search starts at its root; two below any ``L**b`` at the root;
    the domain top, and past it."""
    top = 2.0 * ui_constants(p).u0
    return (rng.uniform(0.0, top + 0.5), 0.0, 5e-324, 1e-300, top, top + 0.5)


def smooth_cases(seed, n_b, n_ui):
    """``(build, dist)`` pairs: ``build()`` makes a fresh rescaled fixture-B
    pair, or an insurance pair, so a rebuild reads whatever inner solve is
    in place at the time."""
    rng = random.Random(seed)
    cases = []
    for i in range(n_b + n_ui):
        if i < n_b:
            def build(seed=rng.random()):
                return fixture_b_pair(random.Random(seed))
        else:
            p = random_ui_primitives(rng)
            r = rng.uniform(0.5, 2.0)

            def build(p=p, r=r):
                return build_frontiers(p, r)
        m = rng.choice((1, 2, 3, 8, 16, 32))
        cases.append((build, discretize("exponential", m, rate=rng.uniform(0.3, 3.0))))
    return cases


def test_inv_deriv_f0_matches_bisection():
    rng = random.Random(9101)
    for build, _ in smooth_cases(9100, 30, 6):
        pair = build()
        top = slope(pair.f0, float(pair.u_star))
        bottom = slope(pair.f0, float(pair.u0))
        for _ in range(20):  # a few targets beyond either end: the clamps
            y = rng.uniform(bottom - 0.1 * (top - bottom), top + 0.1 * (top - bottom))
            assert abs(euler.inv_deriv_f0(pair, y)
                       - inv_deriv_f0_reference(pair, y)) <= INNER_TOL, y


def test_insurance_f0_inverse_matches_brent():
    # the closed-form inverse of f0' against Brent's method on dfn, at
    # targets spread over (f0'(u0), f0'(0)) and within 1e-12 of either end;
    # Brent's level is pinned only as closely as dfn's roundoff allows, a
    # slope error of EPS moving it by EPS / |f0''|, which exceeds tol_x
    # near f0'(0) = 1 when a < 1/2 (there f0'' -> 0 as u -> 0)
    rng = random.Random(9109)
    n_close = 0
    for draw in (random_ui_primitives, bench_ui_primitives):
        for _ in range(100):
            p = draw(rng)
            pair = build_frontiers(p, 1.0)
            f0, ustar, u0 = pair.f0, pair.u_star, pair.u0
            top, bottom = slope(pair.f0, pair.u_star), slope(pair.f0, pair.u0)
            ys = [bottom + (top - bottom) * (i + 0.5) / 16 for i in range(16)]
            ys += [top - 1e-12, top - 1e-14, math.nextafter(top, -math.inf), top,
                   bottom + 1e-12, bottom + 1e-14, math.nextafter(bottom, math.inf),
                   bottom, top + 0.1, bottom - 0.1]
            k = (1.0 - p.a) / p.a
            for y in ys:
                u = euler.inv_deriv_f0(pair, y)
                assert ustar <= u <= u0, (p, y)
                if not bottom < y < top:  # a clamp, as on the Brent path
                    assert u == (ustar if y >= top else u0)
                    continue
                ref = numerics.brent_down(lambda v: f0.dfn(v) - y, ustar, u0,
                                          f_lo=top - y, f_hi=bottom - y, tol_x=1e-13)
                curvature = (p.shadow / p.a) * k * ref ** (k - 1.0) if ref else math.inf
                tol = 2e-13 + numerics.EPS2 / curvature
                n_close += tol <= 2.2e-13
                assert abs(u - ref) <= tol, (p, y, u, ref)
    assert n_close > 4000  # of 4,400 unclamped targets, most held to 2.2e-13


def test_insurance_f1_inverse_matches_brent():
    # the closed-form inverse of f1' against Brent's method on dfn over the
    # whole domain, at targets spread over (f1'(2 u0), f1'(0)) and within
    # 1e-12 and 1e-14 of either end
    rng = random.Random(9112)
    for draw in (random_ui_primitives, bench_ui_primitives):
        for _ in range(100):
            pair = build_frontiers(draw(rng), 1.0)
            f1 = pair.f1
            lo, hi = f1.u_lo, f1.u_hi
            d_lo, d_hi = f1.dfn(lo), f1.dfn(hi)
            ys = [d_hi + (d_lo - d_hi) * (i + 0.5) / 8 for i in range(8)]
            ys += [d_lo - 1e-12, d_lo - 1e-14, d_hi + 1e-12, d_hi + 1e-14]
            for y in ys:
                ref = numerics.brent_down(lambda v: f1.dfn(v) - y, lo, hi,
                                          f_lo=d_lo - y, f_hi=d_hi - y, tol_x=1e-13)
                assert abs(f1.inv_dfn(y) - ref) <= 2e-13 * pair.u0, (pair, y, ref)


def test_insurance_peaks_match_brent():
    # u0 and u1 read off the closed-form inverses at slope 0 against the
    # peaks of copies of both frontiers that must search for them
    rng = random.Random(9113)
    for draw in (random_ui_primitives, bench_ui_primitives):
        for _ in range(150):
            p = draw(rng)
            pair = build_frontiers(p, 1.0)
            assert pair.u0 == ui_constants(p).u0
            for u, f in ((pair.u0, pair.f0), (pair.u1, pair.f1)):
                ref = dataclasses.replace(f, inv_dfn=None).peak[0]
                assert abs(u - ref) <= 1e-13 * pair.u0, (p, u, ref)
    # at a high wage f1 already falls at 0: the inverse lands below the
    # domain and the peak is its bottom
    pair = build_frontiers(UiPrimitives(a=0.2588, b=2.3211, w=4.0924,
                                        shadow=0.6737), 1.0)
    assert pair.f1.dfn(0.0) < 0.0 and pair.f1.inv_dfn(0.0) < 0.0
    assert pair.u1 == 0.0


def test_inner_max_matches_bisection():
    rng = random.Random(9102)
    for draw in (random_ui_primitives, bench_ui_primitives):
        for _ in range(300):
            p = draw(rng)
            for u in inner_max_levels(p, rng):
                l_star, value = insurance._inner_max(p.a, p.b, p.w, u)
                l_ref, value_ref = inner_max_reference(p.a, p.b, p.w, u)
                assert labor_error(l_star, l_ref) <= LABOR_ULPS, (p, u)
                assert abs(value - value_ref) <= INNER_TOL, (p, u)
    # tiny wages, where a bisection of the linear-space slope read w alone
    # wherever L**b underflows and placed L* at 3.7e-132, not 1.5e-172
    for a, b, w, u in ((0.985, 2.462, 5.6e-258, 0.0), (0.985, 2.462, 5.6e-258, 0.3),
                       (0.5, 2.0, 5e-324, 5e-324)):
        l_ref = inner_max_reference(a, b, w, u)[0]
        assert labor_error(insurance._inner_max(a, b, w, u)[0], l_ref) <= LABOR_ULPS


def test_built_f1_matches_inner_max_bit_for_bit():
    # the memo's C = u + L*^b gives f1' with no second L*^b, and the
    # search built once per pair runs the same arithmetic as _inner_max
    rng = random.Random(9108)
    for draw in (random_ui_primitives, bench_ui_primitives):
        for _ in range(100):
            p = draw(rng)
            f1 = build_frontiers(p, 1.0).f1
            top = 2.0 * ui_constants(p).u0
            for u in (0.0, 5e-324, rng.uniform(0.0, top), top):
                l_star, value = insurance._inner_max(p.a, p.b, p.w, u)
                assert exact(f1.fn(u)) == exact(u + p.shadow * value)
                assert exact(f1.dfn(u)) == exact(
                    1.0 - (p.shadow / p.a) * (u + l_star ** p.b) ** ((1.0 - p.a) / p.a))


def traced_newton_searches(run):
    """Run ``run()`` and return one dict per labor maximization: its
    ``args`` ``(a, b, w, u)``, the log labor levels ``s`` it held in turn,
    its ``reads`` of ``h`` (runs of the line that tests their sign) and its
    ``result``."""
    # the code of every search the factory returns
    (code,) = (c for c in insurance._labor_search.__code__.co_consts
               if inspect.iscode(c) and c.co_name == "search")
    lines, first = inspect.getsourcelines(code)
    read_line = first + next(i for i, line in enumerate(lines)
                             if line.strip().startswith("if h <= 0.0"))
    searches = []

    def local(frame, event, arg):
        search = searches[-1]
        if event == "line":
            s = frame.f_locals.get("s")
            if s is not None and search["levels"][-1:] != [s]:
                search["levels"].append(s)
            search["reads"] += frame.f_lineno == read_line
        elif event == "return":
            search["result"] = arg
        return local

    def tracer(frame, event, arg):
        if frame.f_code is not code:
            return None
        args = tuple(frame.f_locals[n] for n in ("a", "b", "w", "u"))
        searches.append({"args": args, "levels": [], "reads": 0})
        return local

    outer = sys.gettrace()
    sys.settrace(tracer)
    try:
        run()
    finally:
        sys.settrace(outer)
    return searches


def test_inner_max_falls_to_the_root():
    # h is increasing and convex in s, so Newton's method started at or
    # above the root falls to it and never steps below it but by roundoff
    rng = random.Random(9106)
    levels = [(p, u) for draw in (random_ui_primitives, bench_ui_primitives)
              for p in (draw(rng) for _ in range(300))
              for u in inner_max_levels(p, rng)]

    def run():
        for p, u in levels:
            insurance._inner_max(p.a, p.b, p.w, u)

    searches = traced_newton_searches(run)
    assert len(searches) == len(levels)
    for search in searches:
        a, b, w, u = search["args"]
        path = search["levels"]
        s_ref = math.log(inner_max_reference(a, b, w, u)[0])
        tol = LABOR_ULPS * numerics.EPS * max(1.0, abs(s_ref))
        assert path[0] >= s_ref - tol
        assert all(x > y for x, y in zip(path, path[1:]))
        assert path[-1] >= s_ref - tol
        assert search["result"][0] == math.exp(path[-1])
    # at u = 0 the start is the root: no read of h; most other searches
    # step and read h again, so the fall is checked
    assert all(s["reads"] == 0 for s in searches if s["args"][3] == 0.0)
    assert sum(s["reads"] >= 2 for s in searches) >= 0.4 * len(searches)


def zero_utility_labor(a, b, w):
    """``L*`` at ``u = 0`` in closed form, ``(a w / b)**(1/(b-1+b k))``,
    taken in logs so that ``a w / b`` may underflow."""
    k = (1.0 - a) / a
    return math.exp((math.log(a) + math.log(w) - math.log(b)) / (b - 1.0 + b * k))


def test_inner_max_starts_at_the_root_at_zero_utility():
    # at u = 0 h is linear, and its root is the start: no step is taken
    a, b, w = 0.7517, 1.7565, 0.7347
    (search,) = traced_newton_searches(lambda: insurance._inner_max(a, b, w, 0.0))
    assert search["reads"] == 0 and len(search["levels"]) == 1
    assert search["result"][0] == pytest.approx(zero_utility_labor(a, b, w), rel=1e-15)


def test_inner_max_near_linear_search_cost():
    # at b near 1, h' is near b - 1 = 1.7e-6, which magnifies the roundoff
    # of h: L* is 6 units from the root of a 60-digit Decimal bisection of h
    # and 10.5 from the float reference (a linear-space lower end with
    # exponent 1/(b-1) once returned a level 1,550 units above the root)
    a, b, w, u = 0.9691932186620588, 1.0000016917516876, 1.049690635800721, 1.7565183974242329
    l_star = insurance._inner_max(a, b, w, u)[0]
    assert labor_error(l_star, inner_max_reference(a, b, w, u)[0]) <= LABOR_ULPS
    assert labor_error(l_star, 2.3564551563356906e-181) <= LABOR_ULPS


def test_inner_max_ends_finite_or_in_a_config_error():
    # wide-range primitives: a finite (L*, value), or a ConfigError for an
    # overflow; no other exception gets out
    rng = random.Random(9107)
    solved = failed = 0
    for _ in range(1000):
        a = (10.0 ** -rng.uniform(0.001, 300.0) if rng.random() < 0.5
             else rng.uniform(0.001, 0.999))
        b = 1.0 + 10.0 ** rng.uniform(-6.0, 2.0)
        w = 10.0 ** rng.uniform(-300.0, 300.0)
        for u in (0.0, 5e-324, 10.0 ** rng.uniform(300.0, 308.0), rng.uniform(0.0, 3.0)):
            try:
                l_star, value = insurance._inner_max(a, b, w, u)
            except ConfigError:
                failed += 1
                continue
            solved += 1
            assert 0.0 <= l_star < math.inf and math.isfinite(value), (a, b, w, u)
    assert solved > 1000 and failed > 1000
    # u + e^(b s) overflows though neither term does; a search that went on
    # with the infinite sum would fall to L* = 0, where the value is finite
    with pytest.raises(ConfigError, match="compensating consumption overflows"):
        insurance._inner_max(1.0 - 1e-9, 2.0, 2.0 * math.exp(354.8), 1e308)


@pytest.mark.parametrize("u", [0.0, 5e-324, 0.3])
def test_inner_max_at_the_smallest_wage(u):
    # a w / b underflows to 0 at w = 5e-324: the FOC constant is a sum of
    # logs, never the log of that product
    a, b, w = 0.5, 2.0, 5e-324
    l_star, value = insurance._inner_max(a, b, w, u)
    assert 0.0 <= l_star < 1e-100
    assert value == pytest.approx(-u ** (1.0 / a), abs=1e-300)
    if u < 1e-300:
        assert l_star == pytest.approx(zero_utility_labor(a, b, w), rel=1e-12)


def solved(build, dist):
    try:
        return euler.solve(build(), dist)
    except BracketFailure as exc:
        return str(exc)


def psi_root_reference(f, lo, hi, **_):
    return bisection_reference(f, lo, hi)


def test_solve_matches_bisection_inner_solves(monkeypatch):
    # the reference bisects psi to full resolution too
    cases = smooth_cases(9103, 30, 8)
    fast = [solved(build, dist) for build, dist in cases]
    monkeypatch.setattr(euler, "inv_deriv_f0", inv_deriv_f0_reference)
    reference_reads = Counter()

    def labor_search_reference(a, b, w):
        def search(u):
            reference_reads[a, b, w] += 1
            l_star, value = inner_max_reference(a, b, w, u)
            return l_star, value, u + l_star ** b

        return search

    monkeypatch.setattr(insurance, "_labor_search", labor_search_reference)
    monkeypatch.setattr(euler, "brent_down", psi_root_reference)
    monkeypatch.setattr(euler, "bisect_down", psi_root_reference)
    reference = [solved(build, dist) for build, dist in cases]

    n_solved = 0
    for sol, ref in zip(fast, reference):
        if isinstance(ref, str):
            assert sol == ref
            continue
        n_solved += 1
        assert abs(sol.lam - ref.lam) <= INNER_TOL
        assert len(sol.levels) == len(ref.levels)
        assert max(abs(x - y) for x, y in zip(sol.levels, ref.levels)) <= INNER_TOL
        assert abs(sol.payoff - ref.payoff) <= INNER_TOL
    assert n_solved >= 34
    # the reference labor search ran inside the frontiers build_frontiers made
    assert len(reference_reads) == 8  # one per insurance case


def record_smooth_crossings(monkeypatch):
    """Record ``(r, lo, hi, right, T)`` for each crossing piece that
    ``optimize_deadline`` closes by Brent's method from here on."""
    out = []
    orig = deadline._smooth_crossing

    def recorded(right, r, lo, hi, f_lo, f_hi):
        T = orig(right, r, lo, hi, f_lo, f_hi)
        out.append((r, lo, hi, right, T))
        return T

    monkeypatch.setattr(deadline, "_smooth_crossing", recorded)
    return out


def check_smooth_crossings(pair, dist, crossings):
    """Each crossing lies in its piece and matches a full-resolution
    bisection of the right bracket in T, to the old T search's tolerance,
    ``2 EPS |T| + 1e-13``, plus ``4 EPS / r`` for the relative tolerance of
    the search in the discount factor.  Where the bracket reads zero at
    roundoff at both deadlines, any deadline between them is a root, and
    their payoffs agree to a few ulps instead."""
    eps = numerics.EPS
    scale = abs(_alpha(pair)) + max(abs(slope(pair.f1, pair.u_star)),
                                    abs(slope(pair.f1, pair.u0)))
    flat = 0
    for r, lo, hi, right, T in crossings:
        assert lo <= T <= hi, (lo, T, hi)
        ref = bisection_reference(right, lo, hi)
        if abs(T - ref) <= 2.0 * eps * abs(ref) + 1e-13 + 4.0 * eps / r:
            continue
        flat += 1
        assert max(abs(right(T)), abs(right(ref))) <= 8.0 * eps * scale, (r, lo, hi, T, ref)
        pi, pi_ref = (deadline.deadline_payoff(pair, dist, x) for x in (T, ref))
        assert abs(pi - pi_ref) <= 4.0 * eps * abs(pi_ref), (r, T, ref, pi, pi_ref)
    return flat


def test_smooth_crossing_matches_bisection(monkeypatch):
    # insurance and rescaled fixture-B pairs at r from 1e-3 to 30: at small
    # r the crossing sits far out, T up to ~10^4, where the bracket is flat
    crossings = record_smooth_crossings(monkeypatch)
    rng = random.Random(9120)
    n = flat = 0
    rates = []
    for i in range(120):
        r = 10.0 ** rng.uniform(-3.0, math.log10(30.0))
        if i % 2:
            pair = dataclasses.replace(fixture_b_pair(rng), r=r)
        else:
            draw = bench_ui_primitives if i % 4 else random_ui_primitives
            pair = build_frontiers(draw(rng), r)
        m = rng.choice((1, 2, 8, 32))
        dist = (discretize("exponential", m, rate=rng.uniform(0.5, 2.0))
                if rng.random() < 0.5 else
                discretize("weibull", m, shape=rng.uniform(0.8, 2.0),
                           scale=rng.uniform(0.5, 2.0)))
        crossings.clear()
        deadline.optimize_deadline(pair, dist)
        flat += check_smooth_crossings(pair, dist, crossings)
        n += len(crossings)
        rates += [c[0] for c in crossings]
    assert n >= 100 and min(rates) < 2e-3 and max(rates) > 20.0
    assert flat <= 0.25 * n  # most crossings meet the tolerance itself


def test_smooth_crossing_on_a_piece_whose_discount_underflows(monkeypatch):
    # exp(-r (t_j - t_i)) is 0 on both crossing pieces, (t_underline, 80)
    # and (80, T_hi): the search runs on [0, 1] in the discount factor
    crossings = record_smooth_crossings(monkeypatch)
    pair = build_frontiers(UiPrimitives(a=0.5, b=2.0, w=1.0, shadow=0.5), 10.0)
    dist = from_atoms([(0.1, 0.9), (80.0, 0.1)])
    deadline.optimize_deadline(pair, dist)
    assert len(crossings) == 2
    assert all(math.exp(-r * (hi - lo)) == 0.0 for r, lo, hi, _, _ in crossings)
    assert check_smooth_crossings(pair, dist, crossings) == 0


def test_smooth_crossing_reads_few_brackets(monkeypatch):
    # Brent's method in the discount factor, where the atom rewards are
    # affine, takes ~6.6 bracket reads per crossing on these draws; in T,
    # where the bracket flattens like exp(-r T), it took ~9.6
    per_crossing = []
    orig = deadline._smooth_crossing

    def counted(right, *args):
        n = 0

        def read(T):
            nonlocal n
            n += 1
            return right(T)

        out = orig(read, *args)
        per_crossing.append(n)
        return out

    monkeypatch.setattr(deadline, "_smooth_crossing", counted)
    rng = random.Random(9121)
    for _ in range(40):
        p, dist, r = bench_sweep_case(rng, 32)
        for shadow in BENCH_SHADOWS:
            deadline.optimize_deadline(
                build_frontiers(dataclasses.replace(p, shadow=shadow), r), dist)
    assert len(per_crossing) >= 100
    assert sum(per_crossing) / len(per_crossing) <= 7.5


def test_fixture_b_inversion_reads_few_slopes(monkeypatch):
    # the clamp checks read the band-end slopes once per pair, then Brent's
    # steps; bisection to 1e-13 takes ~43
    calls = Counter()
    per_inversion = []
    orig = euler.inv_deriv_f0

    def inv_deriv_f0(pair, y):
        before = calls["f0'"]
        out = orig(pair, y)
        per_inversion.append(calls["f0'"] - before)
        return out

    monkeypatch.setattr(euler, "inv_deriv_f0", inv_deriv_f0)
    rng = random.Random(9104)
    for m in (2, 16, 64, 128):
        euler.solve(fixture_b_pair(rng, calls), discretize("exponential", m, rate=1.0))
    assert len(per_inversion) > 1000
    assert max(per_inversion) <= 8
    assert sum(per_inversion) <= 2 * len(per_inversion)


def test_inner_max_reads_few_slopes():
    # Newton's reads of h and nothing else: no other function of the module
    # (a slope sign or a bracket end) runs; bisection to 1e-13 * L takes ~46
    code = insurance.__file__
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == code:
            calls[frame.f_code.co_name] += 1

    rng = random.Random(9105)
    searches = []
    for _ in range(200):
        p = random_ui_primitives(rng)
        u = rng.uniform(0.0, 2.0 * ui_constants(p).u0 + 0.5)
        sys.setprofile(profile)
        try:
            searches += traced_newton_searches(
                lambda: insurance._inner_max(p.a, p.b, p.w, u))
        finally:
            sys.setprofile(None)
    assert len(searches) == 200
    assert calls == Counter({"_inner_max": 200, "_labor_search": 200, "search": 200})
    reads = [s["reads"] for s in searches]
    assert 0 < max(reads) <= 5
    assert sum(reads) <= 4 * len(reads)


def breakpoint_scan(f0, y):
    """The piecewise ``f0`` slope inverse as a linear scan: the left end of
    the first segment whose slope is below ``y``, so a target equal to a
    segment slope goes on to that segment's right end.  Exact on
    ``Fraction`` breakpoints."""
    for (u_a, v_a), (u_b, v_b) in zip(f0.points, f0.points[1:]):
        if (v_b - v_a) / (u_b - u_a) < y:
            return u_a
    return f0.points[-1][0]


def inv_deriv_f0_scan(pair, y):
    top, bottom = slope(pair.f0, pair.u_star), slope(pair.f0, pair.u0)
    if y >= top:
        return pair.u_star
    if y <= bottom:
        return pair.u0
    return float(breakpoint_scan(pair.f0, y))


def random_fraction_pair(rng):
    """A concave piecewise ``f0`` with ``Fraction`` breakpoints that rises
    and then falls, in a pair whose ``u_star`` is a random breakpoint left
    of the peak (``f1`` is only carried along)."""
    n_up, n_down = rng.randint(1, 8), rng.randint(1, 4)
    slopes = sorted(rng.sample(range(1, 60), n_up), reverse=True)
    slopes += sorted(rng.sample(range(-60, 0), n_down), reverse=True)
    points, u, v = [(Fraction(0), Fraction(0))], Fraction(0), Fraction(0)
    for s in slopes:
        w = Fraction(rng.randint(1, 9), rng.randint(1, 7))
        u, v = u + w, v + s * w
        points.append((u, v))
    f0 = PiecewiseFrontier(tuple(points))
    ustar = float(points[rng.randrange(n_up)][0])
    return TechnologyPair(f0=f0, f1=f0, r=1.0, u0=float(f0.peak[0]),
                          u1=float(f0.peak[0]), u_star=ustar)


def inversion_targets(rng, f0):
    """Every segment slope, exactly and as a float, the midpoints between
    them, random draws and targets beyond either end."""
    slopes = [(v_b - v_a) / (u_b - u_a)
              for (u_a, v_a), (u_b, v_b) in zip(f0.points, f0.points[1:])]
    ys = list(slopes) + [float(s) for s in slopes]
    ys += [(a + b) / 2 for a, b in zip(slopes, slopes[1:])]
    ys += [rng.uniform(float(slopes[-1]) - 1.0, float(slopes[0]) + 1.0)
           for _ in range(10)]
    return ys + [slopes[0] + 1, slopes[-1] - 1]


@pytest.mark.parametrize("kind", ["piecewise", "parametric", "insurance"])
def test_inversion_root_finder_follows_the_f0_kind(monkeypatch, pair_b, pair_ui,
                                                   kind):
    # a parametric f0 is inverted by Brent's method (inside
    # ParametricFrontier.level_at_slope), once per target inside its slope
    # range, unless it carries the closed-form inverse of its slope (the
    # insurance f0): then no root finder runs; a piecewise f0's inverse is
    # a breakpoint, read with no root finder and exactly equal to the
    # linear scan on random Fraction frontiers, ties included
    counts = Counter()
    for module in (euler, frontier, numerics):
        for name in ("bisect_down", "brent_down"):
            if hasattr(module, name):
                count_calls(monkeypatch, module, name, counts)
    if kind == "parametric":
        for y in (0.3, 0.77, 1.2, 1.5, -0.5, 2.5):  # four inside the slope range
            euler.inv_deriv_f0(pair_b, y)
        assert counts == Counter({"brent_down": 4})
        return
    if kind == "insurance":
        for y in (0.1, 0.4, 0.7, 0.95, -0.5, 1.5):  # f0' falls from 1 to ~0
            u = euler.inv_deriv_f0(pair_ui, y)
            assert pair_ui.u_star <= u <= pair_ui.u0
        assert counts == Counter()
        return
    rng = random.Random(9107)
    n_inside = 0
    for _ in range(200):
        pair = random_fraction_pair(rng)
        for y in inversion_targets(rng, pair.f0):
            u = euler.inv_deriv_f0(pair, y)
            assert exact(u) == exact(inv_deriv_f0_scan(pair, y)), (pair, y)
            n_inside += pair.u_star < u < pair.u0
    assert n_inside > 500
    assert counts == Counter()


# ---------------------------------------------------------- backward pass ---

def brent_reference(f, lo, hi, *, f_lo, f_hi, tol_x):
    """``numerics.brent_down`` as first written, step for step."""
    eps = sys.float_info.epsilon
    a, fa, b, fb = lo, f_lo, hi, f_hi
    c, fc = a, fa
    d = e = b - a
    for _ in range(200):
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, fa, b, fb, c, fc = b, fb, c, fc, b, fb
        tol = 2.0 * eps * abs(b) + 0.5 * tol_x
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            return b
        if abs(e) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p, q = 2.0 * m * s, 1.0 - s
            else:
                q, t = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - t) - (b - a) * (t - 1.0))
                q = (q - 1.0) * (t - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else (tol if m > 0.0 else -tol)
        fb = f(b)
        if fb != fb:
            raise SolverError(f"brent: f({b}) is NaN")
    return b


def backward_pass_reference(pair, dist, lam, disc=None):
    """The backward pass as first written: every slope through ``slope``,
    every level clamped at the band ends or else read off ``f0.inv_dfn``
    and clamped into ``[u_star, u0]`` (parametric ``f0`` that carries it),
    found by Brent's method (other parametric ``f0``) or by
    :func:`breakpoint_scan` (piecewise), and one ``exp`` per atom; ``disc``
    is ignored."""
    times, probs = dist.times, dist.probs
    if times[0] <= 0.0:
        raise AtomAtZero("atom at t=0")
    top, bottom = slope(pair.f0, pair.u_star), slope(pair.f0, pair.u0)
    k_n = len(times)
    x = [0.0] * k_n
    cx = [0.0] * k_n
    terms = [0.0] * k_n
    x[-1] = cx[-1] = float(lam)
    tail_sum = terms[-1] = probs[-1] * slope(pair.f1, cx[-1])
    tail_mass = probs[-1]
    for k in range(k_n - 2, -1, -1):
        y = tail_sum / tail_mass
        f_lo, f_hi = top - y, bottom - y
        if f_lo <= 0.0:
            x[k] = pair.u_star
        elif f_hi >= 0.0:
            x[k] = pair.u0
        elif getattr(pair.f0, "inv_dfn", None) is not None:
            x[k] = min(max(pair.f0.inv_dfn(y), pair.u_star), pair.u0)
        elif isinstance(pair.f0, ParametricFrontier):
            x[k] = brent_reference(lambda u: slope(pair.f0, u) - y, pair.u_star,
                                   pair.u0, f_lo=f_lo, f_hi=f_hi, tol_x=1e-13)
        else:
            x[k] = float(breakpoint_scan(pair.f0, y))
        d = math.exp(-pair.r * (times[k + 1] - times[k]))
        cx[k] = (1.0 - d) * x[k] + d * cx[k + 1]
        terms[k] = probs[k] * slope(pair.f1, cx[k])
        tail_sum += terms[k]
        tail_mass += probs[k]
    return tuple(x), tuple(cx), tuple(terms)


def exact_solution(pair, dist):
    """Every float ``euler.solve`` returns, plus the slope terms of the
    pass at its root, as :func:`exact` images (or the failure message)."""
    try:
        sol = euler.solve(pair, dist)
    except BracketFailure as exc:
        return str(exc)
    terms = euler.backward_pass(pair, dist, sol.lam, euler._discounts(pair, dist))[2]
    return exact((sol.lam, sol.levels, sol.conts, terms, sol.payoff, sol.psi,
                  sol.mechanism.levels, sol.extra_roots))


def path_cases():
    """Rescaled fixture-B pairs, insurance pairs and the piecewise dense
    fixture B, under exponential and Weibull laws at m = 1, 2, 3, 16, 128."""
    rng = random.Random(9106)
    cases = []
    for m in (1, 2, 3, 16, 128):
        pairs = [fixture_b_pair(rng) for _ in range(3)]
        pairs += [build_frontiers(random_ui_primitives(rng), rng.uniform(0.5, 2.0))
                  for _ in range(2)]
        pairs.append(dense_b_pair())
        for pair in pairs:
            law = (discretize("exponential", m, rate=rng.uniform(0.3, 3.0))
                   if rng.random() < 0.5 else
                   discretize("weibull", m, shape=rng.uniform(0.8, 2.0),
                              scale=rng.uniform(0.5, 2.0)))
            cases.append((pair, law))
    return cases


def test_solve_matches_the_reference_backward_pass_exactly(monkeypatch):
    # one discount table per solve, direct dfn reads, inline clamps and the
    # reuse of the root's pass change no float
    cases = path_cases()
    fast = [exact_solution(pair, dist) for pair, dist in cases]
    trial = []
    for pair, dist in cases:
        for lam in (pair.u_star, 0.5 * (pair.u_star + pair.u0), pair.u0):
            trial.append(exact((euler.backward_pass(pair, dist, lam,
                                                    euler._discounts(pair, dist)),
                                euler.psi(pair, dist, lam))))
    monkeypatch.setattr(euler, "backward_pass", backward_pass_reference)
    monkeypatch.setattr(euler, "brent_down", brent_reference)
    reference = [exact_solution(pair, dist) for pair, dist in cases]
    trial_ref = []
    for pair, dist in cases:
        for lam in (pair.u_star, 0.5 * (pair.u_star + pair.u0), pair.u0):
            trial_ref.append(exact((backward_pass_reference(pair, dist, lam),
                                    euler.psi(pair, dist, lam))))
    assert sum(not isinstance(ref, str) for ref in reference) >= 25
    assert fast == reference
    assert trial == trial_ref
