"""Step mechanisms: continuation values, incentive checks, payoffs.

Payoffs are verified against numeric quadrature (an independent oracle for
the closed-form cell integrals) and against the affine decomposition that
must hold exactly when the pre-breakthrough frontier is linear on the band.
"""

from __future__ import annotations

import math
import random

import pytest
from scipy.integrate import quad

from disclose import (
    ConfigError,
    Mechanism,
    ModelAssumptionError,
    continuation_profile,
    continuation_value,
    deadline_mechanism,
    from_atoms,
    front_load,
    ic_check,
    is_neg_inf,
    mechanism_rows,
    payoff,
    reward_value,
)

PAYOFF_TOL = 1e-9
IDENTITY_TOL = 1e-10
SEED = 20260816


def random_step_mechanism(rng, lo=0.3, hi=1.0, max_cells=6, t_max=4.0):
    n = rng.randint(1, max_cells)
    cuts = sorted(rng.uniform(0.05, t_max) for _ in range(n - 1))
    return Mechanism(grid=(0.0,) + tuple(cuts),
                     levels=tuple(rng.uniform(lo, hi) for _ in range(n)))


# -------------------------------------------------------------- structure ---

def test_mechanism_validation():
    with pytest.raises(ConfigError):
        Mechanism(grid=(1.0,), levels=(0.5,))          # must start at 0
    with pytest.raises(ConfigError):
        Mechanism(grid=(0.0, 0.0), levels=(0.5, 0.5))  # not increasing
    with pytest.raises(ConfigError):
        Mechanism(grid=(0.0, 1.0), levels=(0.5,))      # level count
    with pytest.raises(ConfigError):
        Mechanism(grid=(0.0,), levels=(0.5,), reward=(0.5, 0.6))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError, match="finite"):
            Mechanism(grid=(0.0, 1.0), levels=(1.0, bad))
        with pytest.raises(ConfigError, match="finite"):
            Mechanism(grid=(0.0, 1.0), levels=(1.0, 0.3), reward=(bad, 0.3))
    with pytest.raises(ConfigError, match="finite"):
        Mechanism(grid=(0.0, math.inf), levels=(1.0, 0.3))
    m = Mechanism(grid=(0.0, 1.0), levels=(1.0, 0.3))
    with pytest.raises(ConfigError):
        m.cell_index(-0.5)


def test_flow_at_cells():
    m = Mechanism(grid=(0.0, 1.0, 2.5), levels=(1.0, 0.6, 0.3))
    assert m.flow_at(0.0) == 1.0
    assert m.flow_at(0.999) == 1.0
    assert m.flow_at(1.0) == 0.6
    assert m.flow_at(7.0) == 0.3
    assert m.derived_reward


# ------------------------------------------------------------ continuation ---

def test_continuation_profile_closed_form():
    r = 1.0
    m = Mechanism(grid=(0.0, 2.0), levels=(1.0, 0.3))
    prof = continuation_profile(m, r)
    assert prof[1] == 0.3
    expected = (1 - math.exp(-2.0)) * 1.0 + math.exp(-2.0) * 0.3
    assert prof[0] == pytest.approx(expected, abs=1e-14)
    assert prof[0] == pytest.approx(0.9052653017343711, abs=1e-12)


def test_continuation_value_matches_quadrature():
    # X_t must equal r * int_t^inf x_s e^{-r(s-t)} ds for the step path
    rng = random.Random(SEED)
    for _ in range(10):
        r = rng.uniform(0.5, 2.0)
        m = random_step_mechanism(rng)
        t = rng.uniform(0.0, 5.0)

        def flow(s):
            return m.levels[min(len(m.grid) - 1,
                                max(0, _cell(m.grid, s)))]

        val, _ = quad(lambda s: r * flow(s) * math.exp(-r * (s - t)),
                      t, m.grid[-1] + 40.0 / r,
                      points=[g for g in m.grid if g > t], limit=200)
        assert continuation_value(m, r, t) == pytest.approx(val, abs=1e-7)


def _cell(grid, s):
    i = 0
    for j, g in enumerate(grid):
        if s >= g:
            i = j
    return i


def test_reward_value_derived_vs_explicit():
    r = 1.0
    m = Mechanism(grid=(0.0, 1.0), levels=(1.0, 0.3))
    assert reward_value(m, r, 0.2) == pytest.approx(
        continuation_value(m, r, 0.2), abs=1e-14)
    m2 = Mechanism(grid=(0.0, 1.0), levels=(1.0, 0.3), reward=(0.9, 0.4))
    assert reward_value(m2, r, 0.2) == 0.9
    assert reward_value(m2, r, 1.0) == 0.4


# ---------------------------------------------------------------- incentives ---

def test_ic_derived_reward_always_ok():
    m = Mechanism(grid=(0.0, 1.0), levels=(1.0, 0.3))
    assert ic_check(m, 1.0).ok


def test_ic_flags_low_reward():
    # flow pinned at 1 forever, reward only 0.8: the agent hides
    m = Mechanism(grid=(0.0,), levels=(1.0,), reward=(0.8,))
    rep = ic_check(m, 1.0)
    assert not rep.ok
    assert rep.clause == "non_disclosure"


def test_ic_flags_delay_incentive():
    # reward jumps up at t=1 while flows stay flat: waiting pays
    m = Mechanism(grid=(0.0, 1.0), levels=(0.3, 0.3), reward=(0.4, 0.8))
    rep = ic_check(m, 1.0)
    assert not rep.ok
    assert rep.clause == "delay"
    assert rep.time == pytest.approx(1.0)


def test_ic_accepts_decreasing_premium():
    m = Mechanism(grid=(0.0,), levels=(0.5,), reward=(0.6,))
    assert ic_check(m, 1.0).ok


# ------------------------------------------------------------------ payoff ---

def test_payoff_point_mass_anchor(pair_a):
    # deadline at the threshold reached from a breakthrough at t=1
    T = 1.0 + math.log(3.5)
    value = payoff(deadline_mechanism(pair_a, T), pair_a, from_atoms([(1.0, 1.0)]))
    expected = (1 - math.exp(-1.0)) + 1.4 * math.exp(-1.0)
    assert value.total == pytest.approx(expected, abs=1e-12)
    assert value.total == pytest.approx(1.147151776468577, abs=1e-12)
    assert value.pre_disclosure == pytest.approx(1 - math.exp(-1.0), abs=1e-12)
    assert value.post_disclosure == pytest.approx(1.4 * math.exp(-1.0), abs=1e-12)


def test_payoff_matches_quadrature_oracle(pair_a, dist_k2):
    rng = random.Random(SEED + 1)
    f0 = pair_a.f0
    f1 = pair_a.f1
    for _ in range(10):
        m = random_step_mechanism(rng)
        total = 0.0
        for t_k, p_k in zip(dist_k2.times, dist_k2.probs):
            pre, _ = quad(
                lambda s: float(f0.value(m.levels[_cell(m.grid, s)]))
                * math.exp(-s),
                0.0, t_k, points=[g for g in m.grid if g < t_k], limit=200)
            post = math.exp(-t_k) * float(
                f1.value(continuation_value(m, 1.0, t_k)))
            total += p_k * (pre + post)
        assert payoff(m, pair_a, dist_k2).total == pytest.approx(total, abs=1e-9)


def test_payoff_affine_decomposition(pair_a, dist_k2, dist_exp8):
    # with f0 linear on the band, the expected payoff splits into the value
    # of the initial promise plus the discounted frontier gaps at the atoms
    rng = random.Random(SEED + 2)
    for dist in (dist_k2, dist_exp8):
        for _ in range(20):
            m = random_step_mechanism(rng)
            lhs = payoff(m, pair_a, dist).total
            x0 = continuation_value(m, 1.0, 0.0)
            gaps = 0.0
            for t_k, p_k in zip(dist.times, dist.probs):
                x_t = continuation_value(m, 1.0, t_k)
                gaps += p_k * math.exp(-t_k) * (
                    float(pair_a.f1.value(x_t)) - float(pair_a.f0.value(x_t)))
            rhs = float(pair_a.f0.value(x0)) + gaps
            assert lhs == pytest.approx(rhs, abs=IDENTITY_TOL)


def test_payoff_off_domain_sentinel(pair_a, dist_point1):
    m = Mechanism(grid=(0.0,), levels=(1.0,), reward=(1.9,))  # beyond f1's domain
    value = payoff(m, pair_a, dist_point1)
    assert is_neg_inf(value.total)
    assert value.off_domain == (1.0,)
    assert not isinstance(value.total, float)


def test_payoff_atom_rows(pair_a, dist_k2):
    value = payoff(deadline_mechanism(pair_a, 2.0), pair_a, dist_k2)
    assert len(value.atoms) == 2
    assert value.total == pytest.approx(
        value.pre_disclosure + value.post_disclosure, abs=1e-14)


# ------------------------------------------------------------ deadline shape ---

def test_deadline_mechanism_shapes(pair_a):
    m = deadline_mechanism(pair_a, 2.0)
    assert m.grid == (0.0, 2.0)
    assert m.levels == (1.0, 0.3)
    assert deadline_mechanism(pair_a, math.inf).levels == (1.0,)
    assert deadline_mechanism(pair_a, 0.0).levels == (0.3,)
    with pytest.raises(ConfigError):
        deadline_mechanism(pair_a, -1.0)


# -------------------------------------------------------------- front-load ---

def test_front_load_recovers_deadline(pair_a):
    res = front_load(deadline_mechanism(pair_a, 2.0), pair_a)
    assert res.T == pytest.approx(2.0, abs=1e-12)
    assert res.mechanism.levels == (1.0, 0.3)


def test_front_load_saturates(pair_a):
    res = front_load(Mechanism(grid=(0.0,), levels=(1.0,)), pair_a)
    assert res.T == math.inf
    res = front_load(Mechanism(grid=(0.0,), levels=(0.1,)), pair_a)
    assert res.T == 0.0


def test_front_load_rejects_promise_above_peak(pair_a):
    with pytest.raises(ModelAssumptionError):
        front_load(Mechanism(grid=(0.0,), levels=(1.5,)), pair_a)


def test_front_load_weakly_improves(pair_a, dist_k2, dist_exp8):
    rng = random.Random(SEED + 3)
    for _ in range(20):
        m = random_step_mechanism(rng)
        fl = front_load(m, pair_a).mechanism
        for dist in (dist_k2, dist_exp8):
            assert payoff(fl, pair_a, dist).total >= \
                payoff(m, pair_a, dist).total - PAYOFF_TOL


# ------------------------------------------------------------------- rows ---

def test_mechanism_rows_include_extras():
    m = Mechanism(grid=(0.0, 1.0), levels=(1.0, 0.3))
    rows = mechanism_rows(m, 1.0, extra_times=(0.5,))
    assert [row[0] for row in rows] == [0.0, 0.5, 1.0]
    for t, flow, cont, rew in rows:
        assert flow == m.flow_at(t)
        assert rew == pytest.approx(cont, abs=1e-14)  # derived reward
