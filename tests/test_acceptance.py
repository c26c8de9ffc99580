"""Acceptance suite: one test per shipped guarantee.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per guarantee.  Every derived number asserted here is recomputed by an
independent in-test oracle — closed forms, brute-force grids, rational
arithmetic, or a hand-rolled bisection that shares no code with the
solvers under test.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from disclose import (
    DiscreteMechanism,
    Mechanism,
    affine_gap,
    comparative_statics_check,
    continuation,
    continuation_value,
    deadline_payoff,
    discretize,
    euler_residuals,
    from_atoms,
    front_load,
    improve_slack,
    optimize_deadline,
    order_checks,
    payoff,
    payoff_vector,
    pi_and_derivs,
    solve,
    t_underline,
    undominated_scan,
    welfare_sweep,
)


def test_criterion_01_structural_constants(pair_a):
    # peaks and the shared-slope level are exact; the threshold time agrees
    # with an independent bisection of (1 - e^-T) u0 + e^-T u_star = u1
    assert pair_a.u0 == 1.0
    assert pair_a.u1 == 0.8
    assert pair_a.u_star == 0.3

    def f(T):
        return (1 - math.exp(-T)) * 1.0 + math.exp(-T) * 0.3 - 0.8

    lo, hi = 0.5, 3.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    assert abs(t_underline(pair_a) - root) <= 1e-12


def test_criterion_02_point_mass_deadline_optimum(pair_a):
    # for a breakthrough known to arrive at s, the best deadline is s plus
    # the threshold time, the payoff has a closed form, and a 1e-3-step
    # brute-force sweep over deadlines finds nothing better
    for s in (0.5, 1.0, 2.0):
        dist = from_atoms([(s, 1.0)])
        res = optimize_deadline(pair_a, dist)
        expected_T = s + math.log(3.5)
        expected_pi = (1 - math.exp(-s)) + math.exp(-s) * 1.4
        assert abs(res.T - expected_T) <= 1e-8
        assert abs(res.payoff - expected_pi) <= 1e-9
        n = int((expected_T + 3.0) / 1e-3)
        brute_max = max(deadline_payoff(pair_a, dist, i * 1e-3)
                        for i in range(n + 1))
        assert brute_max <= res.payoff + 1e-6


def test_criterion_03_first_order_conditions(pair_a, pair_b_affine,
                                             dist_k2, dist_exp8):
    # at each reported optimum the right payoff derivative bracket is <= 0
    # and the left one >= 0 (to tolerance); the discount-scaled right
    # bracket is monotone in T; and no optimum falls below the threshold
    dists = ([from_atoms([(s, 1.0)]) for s in (0.5, 1.0, 2.0)]
             + [dist_k2, dist_exp8])
    for pair in (pair_a, pair_b_affine):
        for dist in dists:
            res = optimize_deadline(pair, dist)
            d = pi_and_derivs(pair, dist, res.T)
            assert d.bracket_plus <= 1e-9 <= d.bracket_minus + 1e-9
            tu = res.t_underline
            grid = [tu + 4.0 * i / 99 for i in range(100)]
            brackets = [pi_and_derivs(pair, dist, t).bracket_plus
                        for t in grid]
            assert all(b2 <= b1 + 1e-12
                       for b1, b2 in zip(brackets, brackets[1:]))
            assert res.T >= tu - 1e-12


def test_criterion_04_discrete_scan_near_tight(f0_exact, f1_exact):
    # exhaustive two-period scan in exact arithmetic: every undominated
    # mechanism keeps its reward within one grid step of the flow
    # continuation, and each slack-exploiting move strictly improves
    beta = Fraction(1, 2)
    step = Fraction(7, 80)
    grid9 = tuple(Fraction(3, 10) + step * i for i in range(9))
    entries = undominated_scan(f0_exact, f1_exact, beta, 2, grid9, grid9)
    assert entries
    worst = Fraction(0)
    for e in entries:
        m = DiscreteMechanism(beta, e.x, e.x1)
        for reward, cont in zip(e.x1, continuation(m)):
            worst = max(worst, abs(reward - cont))
    assert worst <= step

    u1 = Fraction(4, 5)
    fixtures = (
        (DiscreteMechanism(beta, (Fraction(4, 5),) * 3, (Fraction(19, 20),) * 3),
         Fraction(32, 25), Fraction(67, 50)),
        (DiscreteMechanism(beta, (Fraction(3, 10),) * 2, (Fraction(4, 5),) * 2),
         Fraction(17, 20), Fraction(11, 10)),
        (DiscreteMechanism(beta, (Fraction(4, 5), Fraction(3, 5)),
                           (Fraction(4, 5), Fraction(7, 10))),
         Fraction(27, 25), Fraction(11, 10)),
    )
    for m, before, after in fixtures:
        step_res = improve_slack(m, u1)
        old = payoff_vector(m, f0_exact, f1_exact)
        new = payoff_vector(step_res.mechanism, f0_exact, f1_exact)
        assert old[step_res.improves_at] == before
        assert new[step_res.improves_at] == after
        assert after > before


def test_criterion_05_front_loading_dominance(pair_a, dist_exp16):
    # front-loading never hurts under any point-mass belief and strictly
    # helps under a spread-out law, for 100 random step mechanisms
    rng = random.Random(20260816)
    dists = [from_atoms([(s, 1.0)]) for s in (0.25, 0.75, 1.5, 3.0)]
    dists.append(dist_exp16)
    for _ in range(100):
        n = rng.randint(1, 6)
        cuts = sorted(rng.uniform(0.05, 4.0) for _ in range(n - 1))
        m = Mechanism(grid=(0.0,) + tuple(cuts),
                      levels=tuple(rng.uniform(0.3, 1.0) for _ in range(n)))
        fl = front_load(m, pair_a).mechanism
        for j, dist in enumerate(dists):
            base = payoff(m, pair_a, dist)
            plus = payoff(fl, pair_a, dist)
            assert plus >= base - 1e-9
            if j == 4:
                assert plus - base > 1e-6


def test_criterion_06_reward_path_levels(pair_b, dist_point1, dist_k2,
                                         dist_k3):
    # levels step down across atoms, stationarity residuals vanish, the
    # initial promise exceeds the post-breakthrough peak, and the terminal
    # level matches closed forms / an independent bisection
    for dist in (dist_point1, dist_k2, dist_k3):
        sol = solve(pair_b, dist)
        assert all(a > b for a, b in zip(sol.levels, sol.levels[1:]))
        res = euler_residuals(pair_b, dist, sol.levels, sol.conts)
        assert max(abs(v) for v in res) <= 1e-8
        assert abs(sol.psi) <= 1e-8
        assert continuation_value(sol.mechanism, pair_b.r, 0.0) > pair_b.u1
        assert sol.extra_roots == ()

    assert abs(solve(pair_b, dist_point1).lam - 0.7) <= 1e-10

    def g(lam):
        x1 = 1.5 * lam - 0.05
        X1 = (1 - math.exp(-1.0)) * x1 + math.exp(-1.0) * lam
        return X1 + lam - 1.4

    lo, hi = 0.1, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if g(mid) < 0:
            lo = mid
        else:
            hi = mid
    assert abs(solve(pair_b, dist_k2).lam - 0.5 * (lo + hi)) <= 1e-6


def test_criterion_07_grid_search_payoff(pair_b, dist_k2):
    # an independent 41-level grid search over both flow cells brackets the
    # solver's payoff: the solver is never beaten by more than rounding and
    # never exceeds the grid optimum by more than the grid's resolution
    t1, t2 = 0.5, 1.5
    w0 = 1.0 - math.exp(-t1)
    w1 = math.exp(-t1) - math.exp(-t2)
    e1, e2 = math.exp(-t1), math.exp(-t2)
    dgap = math.exp(-(t2 - t1))

    def f0(u):
        return 2.0 * u - u * u

    def f1(u):
        return 1.45 - 1.5 * (u - 0.7) ** 2

    levels41 = [0.1 + 0.9 * i / 40 for i in range(41)]
    best = -math.inf
    for l0 in levels41:
        pre_t1 = f0(l0) * w0
        for l1 in levels41:
            pre_t2 = pre_t1 + f0(l1) * w1
            for l2 in levels41:
                X1 = (1.0 - dgap) * l1 + dgap * l2
                val = 0.5 * (pre_t1 + e1 * f1(X1)) + 0.5 * (pre_t2 + e2 * f1(l2))
                if val > best:
                    best = val

    sol = solve(pair_b, dist_k2)
    assert sol.payoff >= best - 1e-9
    assert abs(sol.payoff - best) <= 0.01


def test_criterion_08_deadline_gap_bound(pair_b, dist_point1, dist_k2,
                                         dist_k3, dist_exp8):
    # the reward path beats every deadline, but never by more than the
    # curvature of the pre-breakthrough frontier over the band
    bound = affine_gap(pair_b.f0, float(pair_b.u_star), float(pair_b.u0))
    for dist in (dist_point1, dist_k2, dist_k3, dist_exp8):
        gain = solve(pair_b, dist).payoff - optimize_deadline(pair_b, dist).payoff
        assert 0.0 <= gain <= bound + 1e-8


def test_criterion_09_comparative_statics(pair_a, pair_b):
    # random likelihood-ratio-ordered laws on the smooth pair keep the
    # whole reward path ordered; random first-order shifts on the piecewise
    # pair keep the optimal deadline ordered
    rng = random.Random(987654)
    for _ in range(20):
        k = rng.randint(2, 4)
        times = sorted(rng.uniform(0.2, 3.0) for _ in range(k))
        while any(b - a < 0.05 for a, b in zip(times, times[1:])):
            times = sorted(rng.uniform(0.2, 3.0) for _ in range(k))
        p_dag = [rng.uniform(0.2, 1.0) for _ in range(k)]
        s = sum(p_dag)
        p_dag = [v / s for v in p_dag]
        ell = sorted(rng.uniform(0.5, 2.0) for _ in range(k))
        p = [a * b for a, b in zip(p_dag, ell)]
        s = sum(p)
        p = [v / s for v in p]
        dist = from_atoms(list(zip(times, p)))
        dist_dag = from_atoms(list(zip(times, p_dag)))
        cs = comparative_statics_check(pair_b, dist, dist_dag)
        assert cs.order.mlr and cs.order.fosd
        assert cs.ok, f"pointwise violation {cs.max_violation} at t={cs.witness}"

    for _ in range(50):
        k = rng.randint(1, 4)
        t_dag = sorted(rng.uniform(0.1, 2.5) for _ in range(k))
        p = [rng.uniform(0.2, 1.0) for _ in range(k)]
        s = sum(p)
        p = [v / s for v in p]
        shift = rng.uniform(0.0, 1.0)
        dist = from_atoms([(t + shift, q) for t, q in zip(t_dag, p)])
        dist_dag = from_atoms(list(zip(t_dag, p)))
        assert order_checks(dist, dist_dag).fosd
        T = optimize_deadline(pair_a, dist).T
        T_dag = optimize_deadline(pair_a, dist_dag).T
        assert T >= T_dag - 1e-9


def test_criterion_10_insurance_sweep(ui_prims, pair_ui, dist_exp8):
    # the insurance frontiers are strictly concave with a strictly
    # shrinking breakthrough premium and a shared-slope level of exactly
    # zero; cheaper shadow prices close the deadline-vs-path gap
    # monotonically, and the gap never exceeds the curvature bound
    assert pair_ui.u_star == 0.0
    u0 = float(pair_ui.u0)
    n = 101
    vals1 = [float(pair_ui.f1.value(u0 * i / (n - 1))) for i in range(n)]
    gaps = [float(pair_ui.f1.value(u0 * i / (n - 1)))
            - float(pair_ui.f0.value(u0 * i / (n - 1))) for i in range(n)]
    assert all(vals1[i + 1] - 2 * vals1[i] + vals1[i - 1] < 0.0
               for i in range(1, n - 1))
    assert all(b < a for a, b in zip(gaps, gaps[1:]))

    rows = welfare_sweep(ui_prims, (0.5, 0.2, 0.1, 0.05), dist_exp8, 1.0)
    ratios = [row.ratio for row in rows]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    for row in rows:
        assert row.gain <= row.gap_bound
        assert row.gain >= -1e-9
