"""Step mechanisms: continuation values, incentive checks, payoffs.

Payoffs are verified against numeric quadrature (an independent oracle for
the closed-form cell integrals) and against the affine decomposition that
must hold exactly when the pre-breakthrough frontier is linear on the band.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from disclose import (
    ConfigError,
    Mechanism,
    ModelAssumptionError,
    continuation_value,
    from_atoms,
    front_load,
    payoff,
)
from disclose.deadline import deadline_mechanism
from disclose.frontier import is_neg_inf
from disclose.mechanism import (IC_TOL, IcReport, continuation_at,
                                continuation_profile, ic_check, mechanism_rows)

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
    rows = mechanism_rows(m, 1.0, extra_times=(0.999, 7.0))
    assert [(t, flow) for t, flow, _, _ in rows] == [
        (0.0, 1.0), (0.999, 1.0), (1.0, 0.6), (2.5, 0.3), (7.0, 0.3)]
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
    derived = mechanism_rows(m, r, extra_times=(0.2,))[1][3]
    assert derived == pytest.approx(continuation_value(m, r, 0.2), abs=1e-14)
    m2 = Mechanism(grid=(0.0, 1.0), levels=(1.0, 0.3), reward=(0.9, 0.4))
    assert [row[3] for row in mechanism_rows(m2, r, extra_times=(0.2,))] == [
        0.9, 0.9, 0.4]


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


def test_ic_reports_the_grid_point_where_a_failure_shows():
    # reward 0.95 below the flow 1.0 from t = 0: waiting pays at once
    m = Mechanism(grid=(0.0, 0.5, 1.5), levels=(1.0, 0.9, 0.3),
                  reward=(0.95, 0.9, 0.8))
    assert ic_check(m, 1.0) == IcReport(ok=False, time=0.0, clause="delay")
    # the premium falls through zero inside [0, 1): reported at the cell end
    m = Mechanism(grid=(0.0, 1.0), levels=(0.3, 0.9), reward=(0.8, 0.9))
    assert ic_check(m, 1.0) == IcReport(ok=False, time=1.0, clause="non_disclosure")


def test_ic_last_cell_compares_levels_not_discounted_premiums():
    # exp(-40) (0.5 - 1) is far inside IC_TOL, yet a reward below the flow
    # forever after t = 40 is a violation
    m = Mechanism(grid=(0.0, 40.0), levels=(1.0, 1.0), reward=(1.0, 0.5))
    assert ic_check(m, 1.0) == IcReport(ok=False, time=40.0, clause="non_disclosure")


def test_ic_slack_is_relative_to_the_cell_start():
    # the agent hides on [40, 41), where the reward 0.5 sits below the
    # continuation 1.0; discounted to t = 0 that is -exp(-40) / 2, inside
    # IC_TOL, but the test reads the premium at the cell's own start, so
    # the violation fails at every discount rate
    m = Mechanism(grid=(0.0, 40.0, 41.0), levels=(1.0, 1.0, 1.0),
                  reward=(1.0, 0.5, 1.0))
    for r in (0.5, 1.0, 2.0):
        assert ic_check(m, r) == IcReport(ok=False, time=40.0, clause="non_disclosure")


def sampled_ic(m: Mechanism, r: float, refine: int = 64) -> IcReport:
    """The reference: the premium ``exp(-r t) (reward - continuation)``
    sampled ``refine`` times per cell, both sides of every grid point, and
    the last cell out to ``10 / r`` past its start; the first sample below
    ``-IC_TOL``, or above its predecessor by more than ``IC_TOL``, fails."""
    prof = continuation_profile(m, r)
    prev = None
    for i, a in enumerate(m.grid):
        b = m.grid[i + 1] if i + 1 < len(m.grid) else a + 10.0 / r
        for j in range(refine + 1):
            t = a + (b - a) * j / refine
            h = math.exp(-r * t) * (m.reward[i] - continuation_at(m, prof, r, t, i))
            if h < -IC_TOL:
                return IcReport(ok=False, time=t, clause="non_disclosure")
            if prev is not None and h > prev + IC_TOL:
                return IcReport(ok=False, time=t, clause="delay")
            prev = h
    if m.reward[-1] < m.levels[-1] - IC_TOL:
        return IcReport(ok=False, time=m.grid[-1], clause="non_disclosure")
    return IcReport(ok=True)


@st.composite
def explicit_mechanisms(draw):
    """Explicit-reward mechanisms on eighths, so that every premium change
    is either exactly zero or far above ``IC_TOL``."""
    n = draw(st.integers(1, 5))
    ticks = draw(st.lists(st.integers(1, 32), min_size=n - 1, max_size=n - 1,
                          unique=True))
    eighths = st.lists(st.integers(0, 16).map(lambda k: k / 8),
                       min_size=n, max_size=n)
    m = Mechanism(grid=(0.0,) + tuple(t / 8 for t in sorted(ticks)),
                  levels=draw(eighths), reward=draw(eighths))
    return m, draw(st.sampled_from((0.25, 0.5, 1.0, 2.0)))


@given(explicit_mechanisms())
def test_ic_check_matches_a_dense_sampler(case):
    m, r = case
    rep, ref = ic_check(m, r), sampled_ic(m, r)
    assert (rep.ok, rep.clause) == (ref.ok, ref.clause)
    if not rep.ok:
        # a grid point, no later than the sampler first sees the failure
        assert rep.time in m.grid and rep.time <= ref.time


# ------------------------------------------------------------------ payoff ---

def test_payoff_point_mass_anchor(pair_a):
    # deadline at the threshold reached from a breakthrough at t=1
    T = 1.0 + math.log(3.5)
    value = payoff(deadline_mechanism(pair_a, T), pair_a, from_atoms([(1.0, 1.0)]))
    expected = (1 - math.exp(-1.0)) + 1.4 * math.exp(-1.0)
    assert value == pytest.approx(expected, abs=1e-12)
    assert value == pytest.approx(1.147151776468577, abs=1e-12)


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
        assert payoff(m, pair_a, dist_k2) == pytest.approx(total, abs=1e-9)


def test_payoff_affine_decomposition(pair_a, dist_k2, dist_exp8):
    # with f0 linear on the band, the expected payoff splits into the value
    # of the initial promise plus the discounted frontier gaps at the atoms
    rng = random.Random(SEED + 2)
    for dist in (dist_k2, dist_exp8):
        for _ in range(20):
            m = random_step_mechanism(rng)
            lhs = payoff(m, pair_a, dist)
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
    assert is_neg_inf(value)
    assert not isinstance(value, float)
    # a flow level beyond f0's domain counts only in a cell before an atom
    before = Mechanism(grid=(0.0, 0.5), levels=(2.5, 1.0), reward=(1.0, 1.0))
    assert is_neg_inf(payoff(before, pair_a, dist_point1))
    after = Mechanism(grid=(0.0, 2.0), levels=(1.0, 2.5), reward=(1.0, 1.0))
    assert isinstance(payoff(after, pair_a, dist_point1), float)


def test_payoff_atom_rows(pair_a, dist_k2):
    # deadline T=2: flow at the f0 peak before each atom, reward X_t after
    value = payoff(deadline_mechanism(pair_a, 2.0), pair_a, dist_k2)
    expected = 0.0
    for t, p in zip(dist_k2.times, dist_k2.probs):
        d = math.exp(-(2.0 - t))
        reward = (1.0 - d) * 1.0 + d * 0.3
        expected += p * ((1.0 - math.exp(-t)) + math.exp(-t) * pair_a.f1.value(reward))
    assert value == pytest.approx(expected, abs=1e-14)


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
            assert payoff(fl, pair_a, dist) >= \
                payoff(m, pair_a, dist) - PAYOFF_TOL


# ------------------------------------------------------------------- rows ---

def test_mechanism_rows_include_extras():
    m = Mechanism(grid=(0.0, 1.0), levels=(1.0, 0.3))
    rows = mechanism_rows(m, 1.0, extra_times=(0.5,))
    assert [row[0] for row in rows] == [0.0, 0.5, 1.0]
    for t, flow, cont, rew in rows:
        assert flow == m.levels[m.cell_index(t)]
        assert rew == pytest.approx(cont, abs=1e-14)  # derived reward
