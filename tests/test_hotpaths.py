"""Hot paths against straightforward references, compared bit for bit.

The fast ``cdf``/``cdf_left`` lookups, the single-profile ``payoff``, the
one-bisection ``PiecewiseFrontier.derivs`` and the payoff-free deadline
bracket must return exactly what the plain implementations kept here as
oracles return.  Every comparison is exact equality (floats by ``.hex()``),
never approximate.  The last tests count work instead of timing it: one
``optimize_deadline`` call may compute only the payoffs it reads and
reads the bracket at few atoms (one binary search over them when ``f0`` is
affine, and no more than the pruning leaves otherwise) and closes a
crossing piece by Brent's method when ``f1`` is parametric and by a
binary search over its kink events when it is piecewise, slopes cost no
frontier value, ``psi`` reads one ``f1`` slope per atom, ``solve``
searches ``[u_star, u0]`` once for the ``psi`` root and makes one backward
pass per ``psi`` evaluation, and the insurance inner maximization runs
once per level of a pair and leaves no state behind.  The backward pass,
with its discount table, direct slope reads and inline clamps, must give
``solve`` exactly the floats of the pass as first written (kept here,
with ``brent_down`` as first written).

The three smooth root solves, the ``f0`` slope inversion and the ``psi``
root of a parametric pair and the insurance labor maximization, use
Brent's method and so may land a few ulps from where bisection lands: they
are compared against in-test full-resolution bisections within 1e-12, as
are the ``solve`` outputs built on them, and their slope evaluations per
solve are counted.
"""

from __future__ import annotations

import bisect
import dataclasses
import math
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from disclose import deadline, euler, insurance, mechanism
from disclose.deadline import _alpha, _brackets, pi_and_derivs
from disclose.distribution import BreakthroughDist, discretize, from_atoms
from disclose.errors import AtomAtZero, BracketFailure, SolverError
from disclose.frontier import (INF, KINK_SNAP, NEG_INF, ParametricFrontier,
                               PiecewiseFrontier, TechnologyPair, is_neg_inf,
                               slope)
from disclose.insurance import UiPrimitives, build_frontiers, schedule, ui_constants
from disclose.mechanism import (Mechanism, continuation_value, mechanism_rows,
                                payoff)
from disclose.numerics import bisect_down

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
    """(m+1)-cell mechanism on the atom grid, or a grid off the atoms;
    levels and rewards occasionally leave the frontier domains."""
    if rng.random() < 0.5:
        grid = (0.0,) + tuple(dist.times)
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


def test_payoff_deadline_mechanisms_match_reference(pair_a, dist_exp16):
    for T in (0.0, 0.3, math.log(3.5), 1.7, 9.0, math.inf):
        mech = deadline.deadline_mechanism(pair_a, T)
        assert exact(payoff(mech, pair_a, dist_exp16)) == exact(
            payoff_reference(mech, pair_a, dist_exp16))


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
    i = f._segment(u)
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


# ---------------------------------------------------------------- deadline ---

def deadline_reward(pair, T, t):
    """Derived disclosure reward of the deadline-T mechanism at time t."""
    u0, ustar = float(pair.u0), float(pair.u_star)
    if t >= T:
        return ustar
    d = math.exp(-pair.r * (T - t))
    return (1.0 - d) * u0 + d * ustar


def brackets_reference(pair, dist, T):
    """The bracket sums over every atom, as ``pi_and_derivs`` first did."""
    alpha = _alpha(pair)
    sum_plus = sum_minus = 0.0
    for t_k, p_k in zip(dist.times, dist.probs):
        d_plus, d_minus = pair.f1.derivs(deadline_reward(pair, T, t_k))
        if t_k <= T:
            sum_plus += p_k * d_plus
        if t_k < T:
            sum_minus += p_k * d_minus
    return ((1.0 - cdf_reference(dist, T)) * alpha + sum_plus,
            (1.0 - cdf_left_reference(dist, T)) * alpha + sum_minus)


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
            got = _brackets(pair, dist, T, alpha)
            d = pi_and_derivs(pair, dist, T)
            assert exact(got) == exact((d.bracket_plus, d.bracket_minus)), T
            assert exact(got) == exact(brackets_reference(pair, dist, T)), T


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


# bracket evaluations: the T_hi doubling, the threshold, the atoms the
# search splits at, the crossing pieces and foc_check.  A piecewise f1
# closes a piece by a binary search over its kink events, O(log m) reads
# (the end values are reused); a parametric one takes Brent's method to
# 1e-13, a few evaluations
BRACKET_COUNTS = {
    # f0 affine: one binary search over the atoms
    "affine-exp64": 10,
    "affine-exp256": 12,
    "affine-exp2048": 16,
    "affine-smooth": 13,
    # f0 not affine: the bracket may rise at an atom, and the search
    # splits each interval that can still cross zero
    "kinked": 7,
    "curved": 11,
    "insurance": 12,
    "late-cluster": 16,  # two crossing pieces, 14 and 45 kink events
}


@pytest.mark.parametrize("case", BRACKET_COUNTS)
def test_optimize_deadline_bracket_count(request, monkeypatch, case):
    pair, dist = deadline_case(request, case)
    counts = Counter()
    count_calls(monkeypatch, deadline, "_brackets", counts)
    deadline.optimize_deadline(pair, dist)
    assert counts["_brackets"] <= BRACKET_COUNTS[case]


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


def test_welfare_sweep_computes_each_inner_max_once_per_pair(monkeypatch):
    orig_build, orig_inner = insurance.build_frontiers, insurance._inner_max
    current = []
    levels = Counter()

    def build_frontiers(p, r):
        current.append(p.shadow)
        return orig_build(p, r)

    def inner_max(a, b, w, u):
        levels[(current[-1], u)] += 1
        return orig_inner(a, b, w, u)

    monkeypatch.setattr(insurance, "build_frontiers", build_frontiers)
    monkeypatch.setattr(insurance, "_inner_max", inner_max)
    insurance.welfare_sweep(SWEEP_PRIMS, SWEEP_SHADOWS,
                            discretize("exponential", 4, rate=1.0), 1.0)
    assert current == list(SWEEP_SHADOWS)
    assert levels and max(levels.values()) == 1


def test_welfare_sweep_leaves_no_state(monkeypatch):
    # every inner maximization runs one root search; a process-wide cache
    # would let the second sweep skip them
    calls = Counter()
    orig = insurance.brent_down

    def brent_down(*args, **kwargs):
        calls["inner"] += 1
        return orig(*args, **kwargs)

    monkeypatch.setattr(insurance, "brent_down", brent_down)
    dist = discretize("exponential", 4, rate=1.0)
    counts = []
    for _ in range(2):
        calls.clear()
        insurance.welfare_sweep(dataclasses.replace(SWEEP_PRIMS, w=1.2),
                                SWEEP_SHADOWS, dist, 1.0)
        counts.append(calls["inner"])
    assert counts[0] > 0
    assert counts[1] == counts[0]


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


def inner_max_reference(a, b, w, u):
    def gp(L):
        return w - (b / a) * L ** (b - 1.0) * (u + L ** b) ** ((1.0 - a) / a)

    hi = 1.0
    while gp(hi) >= 0.0:
        hi *= 2.0
    l_star = bisection_reference(gp, 0.0, hi)
    return l_star, w * l_star - (u + l_star ** b) ** (1.0 / a)


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


def test_inner_max_matches_bisection():
    rng = random.Random(9102)
    for _ in range(300):
        p = random_ui_primitives(rng)
        u = rng.uniform(0.0, 2.0 * ui_constants(p).u0 + 0.5)
        l_star, value = insurance._inner_max(p.a, p.b, p.w, u)
        l_ref, value_ref = inner_max_reference(p.a, p.b, p.w, u)
        assert abs(l_star - l_ref) <= INNER_TOL
        assert abs(value - value_ref) <= INNER_TOL


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
    monkeypatch.setattr(insurance, "_inner_max", inner_max_reference)
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
    # the growth loop, then Brent's steps; bisection to 1e-13 * hi takes ~46
    code = insurance.__file__
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "gp" \
                and frame.f_code.co_filename == code:
            calls["gp"] += 1

    rng = random.Random(9105)
    worst = 0
    for _ in range(200):
        p = random_ui_primitives(rng)
        u = rng.uniform(0.0, 2.0 * ui_constants(p).u0 + 0.5)
        calls.clear()
        sys.setprofile(profile)
        try:
            insurance._inner_max(p.a, p.b, p.w, u)
        finally:
            sys.setprofile(None)
        worst = max(worst, calls["gp"])
    assert 0 < worst <= 12


@pytest.mark.parametrize("kind", ["piecewise", "parametric"])
def test_inversion_root_finder_follows_the_f0_kind(monkeypatch, pair_b, kind):
    # a step-function slope gains nothing from Brent's steps, which would
    # only move the level to the other side of a kink
    pair = dense_b_pair() if kind == "piecewise" else pair_b
    counts = Counter()
    count_calls(monkeypatch, euler, "bisect_down", counts)
    count_calls(monkeypatch, euler, "brent_down", counts)
    for y in (0.3, 0.77, 1.2, 1.5):  # inside the slope range of either f0
        euler.inv_deriv_f0(pair, y)
    expected = "bisect_down" if kind == "piecewise" else "brent_down"
    assert counts == Counter({expected: 4})


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
    every level clamped at the band ends or else found by a root finder,
    and one ``exp`` per atom; ``disc`` is ignored."""
    times, probs = dist.times, dist.probs
    if times[0] <= 0.0:
        raise AtomAtZero("atom at t=0")
    top, bottom = pair.f0_band_slopes
    root = brent_reference if isinstance(pair.f0, ParametricFrontier) else bisect_down
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
        else:
            x[k] = root(lambda u: slope(pair.f0, u) - y, pair.u_star, pair.u0,
                        f_lo=f_lo, f_hi=f_hi, tol_x=1e-13)
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
