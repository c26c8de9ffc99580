"""Hot paths against straightforward references, compared bit for bit.

The fast ``cdf``/``cdf_left`` lookups, the single-profile ``payoff``, the
one-bisection ``PiecewiseFrontier.derivs`` and the payoff-free deadline
bracket must return exactly what the plain implementations kept here as
oracles return.  Every comparison is exact equality (floats by ``.hex()``),
never approximate.  The last tests count work instead of timing it: one
``optimize_deadline`` call may compute only the payoffs it reads and, in
the affine case only, skips most of the bracket grid, slopes cost no
frontier value, ``psi`` reads one ``f1`` slope per atom, ``solve``
binary-searches its ``psi`` grid, and the
insurance inner maximization runs once per level of a pair and leaves no
state behind.
"""

from __future__ import annotations

import bisect
import dataclasses
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from disclose import deadline, euler, insurance, mechanism
from disclose.deadline import _alpha, _brackets, pi_and_derivs
from disclose.distribution import BreakthroughDist, discretize
from disclose.frontier import (INF, KINK_SNAP, NEG_INF, ParametricFrontier,
                               PiecewiseFrontier, TechnologyPair, is_neg_inf)
from disclose.insurance import UiPrimitives, schedule
from disclose.mechanism import (Mechanism, continuation_value, mechanism_rows,
                                payoff)

from conftest import A_F0_POINTS, A_F1_POINTS


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
        mech = mechanism.deadline_mechanism(pair_a, T)
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
    name, dist = {
        "affine-exp64": ("pair_a", discretize("exponential", 64, rate=1.0)),
        "affine-exp256": ("pair_a", discretize("weibull", 256, shape=1.5, scale=2.0)),
        "affine-smooth": ("pair_b_affine", discretize("exponential", 32, rate=1.0)),
        "curved": ("pair_b", discretize("exponential", 16, rate=1.0)),
    }[case]
    return request.getfixturevalue(name), dist


@pytest.mark.parametrize("case", ["affine-exp64", "affine-exp256",
                                  "affine-smooth", "kinked", "curved"])
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


@pytest.mark.parametrize("case, fewest, most", [
    ("affine-exp256", 0, 60),                   # binary search of the grid
    ("kinked", deadline.N_SCAN + 1, math.inf),  # full scan: f0 not affine
    ("curved", deadline.N_SCAN + 1, math.inf),
])
def test_optimize_deadline_bracket_count(request, monkeypatch, case, fewest, most):
    pair, dist = deadline_case(request, case)
    counts = Counter()
    count_calls(monkeypatch, deadline, "_brackets", counts)
    deadline.optimize_deadline(pair, dist)
    assert fewest <= counts["_brackets"] <= most


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
    dist = discretize("exponential", m, rate=1.0)
    orig = ParametricFrontier.derivs
    calls = Counter()

    def derivs(self, u):
        calls[self is pair_b.f1] += 1
        return orig(self, u)

    monkeypatch.setattr(ParametricFrontier, "derivs", derivs)
    euler.psi(pair_b, dist, 0.5)
    assert calls[True] == m


@pytest.mark.parametrize("m", [1, 2, 16])
def test_solve_binary_searches_the_psi_grid(pair_b, monkeypatch, m):
    # the two grid ends, log2(N_SCAN) = 5 halvings, then the cell bisection
    # to tol_psi; a scan of all N_SCAN + 1 grid points alone makes 33
    counts = Counter()
    count_calls(monkeypatch, euler, "psi", counts)
    euler.solve(pair_b, discretize("exponential", m, rate=1.0))
    assert counts["psi"] <= 40


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
    # every inner maximization runs one bisection; a process-wide cache
    # would let the second sweep skip them
    calls = Counter()
    orig = insurance.bisect_down

    def bisect_down(*args, **kwargs):
        calls["inner"] += 1
        return orig(*args, **kwargs)

    monkeypatch.setattr(insurance, "bisect_down", bisect_down)
    dist = discretize("exponential", 4, rate=1.0)
    counts = []
    for _ in range(2):
        calls.clear()
        insurance.welfare_sweep(dataclasses.replace(SWEEP_PRIMS, w=1.2),
                                SWEEP_SHADOWS, dist, 1.0)
        counts.append(calls["inner"])
    assert counts[0] > 0
    assert counts[1] == counts[0]
