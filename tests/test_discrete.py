"""Discrete-period oracle: exact rational arithmetic end to end.

Every fixture here was worked by hand with fractions, so assertions use
``==`` on exact values — any floating point creeping into the module would
fail these immediately.
"""

from __future__ import annotations

from fractions import Fraction as Fr

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import A_F0_EXACT, A_F0_POINTS, A_F1_EXACT, A_F1_POINTS, reference_scan
from disclose import (
    ConfigError,
    DiscreteMechanism,
    NothingToImprove,
    PiecewiseFrontier,
    continuation,
    ic_discrete,
    improve_slack,
    payoff_vector,
    undominated_scan,
)
from disclose.discrete import SCAN_BUDGET, delay_slacks
from disclose.frontier import is_neg_inf

BETA = Fr(1, 2)
U1 = Fr(4, 5)     # post-breakthrough peak location of the piecewise pair


# -------------------------------------------------------------- structure ---

def test_mechanism_validation():
    with pytest.raises(ConfigError):
        DiscreteMechanism(Fr(3, 2), (Fr(1),), (Fr(1),))
    with pytest.raises(ConfigError):
        DiscreteMechanism(BETA, (Fr(1), Fr(1)), (Fr(1),))
    with pytest.raises(ConfigError):
        DiscreteMechanism(BETA, (), ())


def test_continuation_exact():
    m = DiscreteMechanism(BETA, (Fr(1), Fr(3, 10)), (Fr(1), Fr(1)))
    assert continuation(m) == (Fr(13, 20), Fr(3, 10))


def test_ic_clauses_exact():
    hide = DiscreteMechanism(BETA, (Fr(1),), (Fr(1, 2),))
    rep = ic_discrete(hide)
    assert (rep.ok, rep.period, rep.clause) == (False, 0, "non_disclosure")

    wait = DiscreteMechanism(BETA, (Fr(3, 10), Fr(3, 10)),
                             (Fr(31, 100), Fr(1, 2)))
    rep = ic_discrete(wait)
    assert (rep.ok, rep.period, rep.clause) == (False, 0, "delay")

    ok = DiscreteMechanism(BETA, (Fr(1), Fr(3, 10)), (Fr(13, 20), Fr(3, 10)))
    assert ic_discrete(ok).ok


def test_ic_delay_clause_compares_without_rounding():
    # the tail bound 0.99 * 1/10 + 0.01 * 1/10 is a float a hair above the
    # Fraction 1/10; its delay slack rounds to 0.0, the comparison does not
    m = DiscreteMechanism(0.01, (Fr(1, 10),), (Fr(1, 10),))
    assert delay_slacks(m) == (0.0,)
    rep = ic_discrete(m)
    assert (rep.ok, rep.period, rep.clause) == (False, 0, "delay")


# ----------------------------------------------------------------- payoffs ---

def test_payoff_point_exact(f0_exact, f1_exact):
    m = DiscreteMechanism(BETA, (Fr(1), Fr(3, 10)), (Fr(13, 20), Fr(3, 10)))
    pv = payoff_vector(m, f0_exact, f1_exact)
    # breakthrough at period 1: half a period of flow at the peak, then
    # the reward frontier at 3/10 (its peak), discounted one period
    assert pv[1] == Fr(1, 2) * Fr(1) + Fr(1, 2) * Fr(6, 5)
    assert pv[0] == f1_exact.value(Fr(13, 20))


def test_payoff_never_folds_tail(f0_exact, f1_exact):
    m = DiscreteMechanism(BETA, (Fr(1), Fr(3, 10)), (Fr(13, 20), Fr(3, 10)))
    assert payoff_vector(m, f0_exact, f1_exact)[-1] == \
        Fr(1, 2) + Fr(1, 2) * Fr(3, 10)


def test_payoff_vector_off_domain_coordinates(f0_exact, f1_exact):
    # an off-domain reward spoils only its own coordinate
    m = DiscreteMechanism(BETA, (Fr(1), Fr(1), Fr(3, 10)),
                          (Fr(13, 20), Fr(2), Fr(3, 10)))
    pv = payoff_vector(m, f0_exact, f1_exact)
    assert [is_neg_inf(v) for v in pv] == [False, True, False, False]
    assert pv[2] == Fr(1, 2) + Fr(1, 4) + Fr(1, 4) * Fr(6, 5)
    # an off-domain flow spoils every later coordinate and "never"
    m = DiscreteMechanism(BETA, (Fr(1), Fr(3), Fr(3, 10)),
                          (Fr(13, 20), Fr(3, 10), Fr(3, 10)))
    pv = payoff_vector(m, f0_exact, f1_exact)
    assert [is_neg_inf(v) for v in pv] == [False, False, True, True]
    assert pv[1] == Fr(1, 2) + Fr(1, 2) * Fr(6, 5)
    # the tail level is the last flow read
    m = DiscreteMechanism(BETA, (Fr(1), Fr(3)), (Fr(13, 20), Fr(3, 10)))
    pv = payoff_vector(m, f0_exact, f1_exact)
    assert [is_neg_inf(v) for v in pv] == [False, False, True]


def test_payoff_vector_layout(f0_exact, f1_exact):
    m = DiscreteMechanism(BETA, (Fr(4, 5),) * 2, (Fr(4, 5),) * 2)
    pv = payoff_vector(m, f0_exact, f1_exact)
    assert len(pv) == 3   # one per period plus "never"
    assert pv[-1] == Fr(4, 5)


# ----------------------------------------------------------- improvements ---

def test_improve_lowers_excessive_reward(f0_exact, f1_exact):
    m = DiscreteMechanism(BETA, (Fr(4, 5),) * 3, (Fr(19, 20),) * 3)
    step = improve_slack(m, U1)
    assert step.case == "lower_reward"
    assert step.period == 0
    assert step.delta == Fr(3, 40)
    assert step.mechanism.x1[0] == Fr(7, 8)
    assert step.improves_at == 0
    old = payoff_vector(m, f0_exact, f1_exact)
    new = payoff_vector(step.mechanism, f0_exact, f1_exact)
    assert old[0] == Fr(32, 25) and new[0] == Fr(67, 50)
    assert all(b >= a for a, b in zip(old, new))
    assert ic_discrete(step.mechanism).ok


def test_improve_raises_flow(f0_exact, f1_exact):
    m = DiscreteMechanism(BETA, (Fr(3, 10),) * 2, (Fr(4, 5),) * 2)
    assert delay_slacks(m)[0] == Fr(1, 4)
    step = improve_slack(m, U1)
    assert step.case == "raise_flow"
    assert step.delta == Fr(1, 2)
    assert step.mechanism.x[0] == Fr(4, 5)
    assert step.improves_at == 1
    old = payoff_vector(m, f0_exact, f1_exact)
    new = payoff_vector(step.mechanism, f0_exact, f1_exact)
    assert old[1] == Fr(17, 20) and new[1] == Fr(11, 10)
    assert all(b >= a for a, b in zip(old, new))
    assert ic_discrete(step.mechanism).ok


def test_improve_raises_next_reward(f0_exact, f1_exact):
    m = DiscreteMechanism(BETA, (Fr(4, 5), Fr(3, 5)), (Fr(4, 5), Fr(7, 10)))
    assert delay_slacks(m)[0] == Fr(1, 20)
    step = improve_slack(m, U1)
    assert step.case == "raise_next_reward"
    assert step.delta == Fr(1, 10)
    assert step.mechanism.x1[1] == Fr(4, 5)
    assert step.improves_at == 1
    old = payoff_vector(m, f0_exact, f1_exact)
    new = payoff_vector(step.mechanism, f0_exact, f1_exact)
    assert old[1] == Fr(27, 25) and new[1] == Fr(11, 10)
    assert all(b >= a for a, b in zip(old, new))
    assert ic_discrete(step.mechanism).ok


def test_nothing_to_improve_when_tight():
    # the discrete analogue of a deadline: every delay constraint binds
    m = DiscreteMechanism(BETA, (Fr(1), Fr(3, 10)), (Fr(13, 20), Fr(3, 10)))
    assert all(s == 0 for s in delay_slacks(m))
    with pytest.raises(NothingToImprove):
        improve_slack(m, U1)


# ------------------------------------------------------------------- scan ---

def _brute_front(entries):
    def dominates(a, b):
        ge = all(pa >= pb for pa, pb in zip(a.payoffs, b.payoffs))
        return ge and any(pa > pb for pa, pb in zip(a.payoffs, b.payoffs))

    return {(e.x, e.x1) for e in entries
            if not any(dominates(o, e) for o in entries if o is not e)}


def test_scan_matches_brute_force_front(f0_exact, f1_exact):
    grid = tuple(Fr(i, 10) for i in range(3, 11))
    kept = undominated_scan(f0_exact, f1_exact, BETA, 1, grid, grid)
    # rebuild the feasible set independently and Pareto-filter it pairwise
    feasible = []
    for x in grid:
        for x1 in grid:
            m = DiscreteMechanism(BETA, (x,), (x1,))
            if ic_discrete(m).ok:
                pv = payoff_vector(m, f0_exact, f1_exact)
                feasible.append(type(kept[0])(x=m.x, x1=m.x1, payoffs=pv))
    assert {(e.x, e.x1) for e in kept} == _brute_front(feasible)
    # with one period the front is the flow/reward tradeoff above the peak
    assert {(e.x[0], e.x1[0]) for e in kept} == \
        {(Fr(4, 5), Fr(4, 5)), (Fr(9, 10), Fr(9, 10)), (Fr(1), Fr(1))}


def test_scan_respects_budget(f0_exact, f1_exact):
    # (57 * 57) ** 2 grid mechanisms exceed the budget; the check runs
    # before any is enumerated
    grid = tuple(Fr(i, 100) for i in range(57))
    with pytest.raises(ConfigError, match="budget"):
        undominated_scan(f0_exact, f1_exact, BETA, 2, grid, grid)


def test_scan_budget_charges_the_horizon(f0_exact, f1_exact):
    # (50 * 50) ** 2 mechanisms fit the budget; times 2 periods they do not
    grid = tuple(Fr(i, 100) for i in range(50))
    assert (len(grid) ** 2) ** 2 <= SCAN_BUDGET < 2 * (len(grid) ** 2) ** 2
    with pytest.raises(ConfigError, match="budget"):
        undominated_scan(f0_exact, f1_exact, BETA, 2, grid, grid)
    # one mechanism over a huge horizon is priced without enumerating it
    for horizon in (10 ** 9, int(1e300)):
        with pytest.raises(ConfigError, match="budget"):
            undominated_scan(f0_exact, f1_exact, BETA, horizon, [Fr(1)], [Fr(1)])


def test_scan_validates_beta_before_enumerating(f0_exact, f1_exact):
    # no mechanism is built for empty grids, so the scan checks beta itself
    for beta in (Fr(2), Fr(0), 1.0, float("nan")):
        with pytest.raises(ConfigError, match="discount factor"):
            undominated_scan(f0_exact, f1_exact, beta, 2, [], [Fr(1)])
    assert undominated_scan(f0_exact, f1_exact, BETA, 2, [], [Fr(1)]) == ()


# levels k/10: below 0 off both domains, above 1.8 off f1's, above 2 off f0's
LEVELS = range(-2, 23)
# largest grid per horizon, keeping the reference enumeration small
MAX_LEVELS = {1: 6, 2: 4, 3: 3}


# number types of (levels, frontiers, beta); the first two kinds take the
# scan's integer path, the float frontiers of the others its float path
KINDS = {
    "exact": (Fr, A_F0_EXACT, Fr),
    "int levels": (int, A_F0_EXACT, Fr),
    "float": (float, A_F0_POINTS, float),
    "exact levels, float frontiers": (Fr, A_F0_POINTS, Fr),
    "exact levels, float beta": (Fr, A_F0_EXACT, float),
}


@st.composite
def scan_inputs(draw):
    level_type, f0_points, beta_type = KINDS[draw(st.sampled_from(sorted(KINDS)))]
    f1_points = A_F1_EXACT if f0_points is A_F0_EXACT else A_F1_POINTS
    horizon = draw(st.integers(1, 3))
    grid = st.lists(st.sampled_from(LEVELS), min_size=1,
                    max_size=MAX_LEVELS[horizon])   # unsorted, repeats allowed
    x_grid, reward_grid = draw(grid), draw(grid)
    if draw(st.booleans()):
        # two flow levels mirrored about f0's peak at 1 have equal values,
        # up to roundoff in floats, so float payoffs nearly tie
        k = draw(st.sampled_from(LEVELS))
        x_grid = x_grid[:MAX_LEVELS[horizon] - 2] + [k, 20 - k]
    beta = draw(st.integers(1, 99))
    # a value axis scaled by k/10, so frontier values are rarely round
    scale = draw(st.integers(5, 15))
    ratio = (lambda k, n: k / n) if f0_points is A_F0_POINTS else Fr
    # integer levels k sit on a utility axis stretched by 10
    stretch, level = (10, int) if level_type is int else (1, lambda k: level_type(k) / 10)
    f0, f1 = (PiecewiseFrontier(tuple((u * stretch, v * ratio(scale, 10)) for u, v in p))
              for p in (f0_points, f1_points))
    beta = Fr(beta, 100) if beta_type is Fr else beta / 100
    return (f0, f1, beta, horizon, [level(k) for k in x_grid],
            [level(k) for k in reward_grid])


def frontiers(f0_points, f1_points, scale=1):
    return tuple(PiecewiseFrontier(tuple((u, v * scale) for u, v in p))
                 for p in (f0_points, f1_points))


EXACT_A = frontiers(A_F0_EXACT, A_F1_EXACT)
FLOAT_A = frontiers(A_F0_POINTS, A_F1_POINTS)


# entries dominated through a flow level, out of the period-0 pruning's
# reach: (1.4, 0.3) beats (0.6, 0.3), and 0.9 beats its mirror 1.1, on the
# same rewards; the rounded sums tie, so only the last pass over the kept
# entries drops them
FLOW_TIES = (
    (*frontiers(A_F0_POINTS, A_F1_POINTS, 1.1), 0.5, 2, [0.6, 0.3, 1.4], [0.4, 1.3]),
    (*frontiers(A_F0_POINTS, A_F1_POINTS, 1.1), 0.18, 1,
     [1.1, 0.7, 0.9, -0.1, 1.4], [1.6, 1.8]),
)


def flow_ties(test):
    for args in FLOW_TIES:
        test = example(args)(test)
    return test


@settings(max_examples=200, deadline=None)
@given(scan_inputs())
# period-0 ties: a repeated reward level, and levels 0 and 9/5, which share
# the f1 value 3/5; equal payoff vectors are all kept
@example((*EXACT_A, BETA, 1, [Fr(4, 5), Fr(1)], [Fr(1), Fr(9, 10), Fr(1)]))
@example((*EXACT_A, BETA, 3, [Fr(0)], [Fr(0), Fr(9, 5), Fr(0)]))
@example((*FLOAT_A, 0.5, 1, [0.0], [0.0, 1.8, 0.0]))
@example((*FLOAT_A, 0.5, 3, [0.8, 1.0], [1.0, 0.9, 1.0]))
# f1 is an ulp higher at 0.9 than at 0.6, and the rounded payoff sums tie,
# so the dominated level 0.6 would sort first, by its lower index; the
# period-0 pruning drops it
@example((*frontiers(A_F0_POINTS, A_F1_POINTS, 0.6), 0.01, 1, [0.3], [0.6, 0.9]))
@example((*frontiers(A_F0_POINTS, A_F1_POINTS, 0.6), 0.01, 3, [0.2], [0.6, 0.9]))
@flow_ties
# the float stationary clause refuses the best period-0 level 1/10, so the
# horizon-1 pruning must come after it
@example((*frontiers(A_F0_EXACT, A_F1_EXACT, Fr(1, 2)), 0.01, 1,
          [Fr(1, 10)], [Fr(1, 10), Fr(9, 5)]))
# the first two kept entries tie on the payoff sum, so their order is the
# enumeration order: flow path outer, reward path inner
@example((PiecewiseFrontier(A_F0_EXACT), PiecewiseFrontier(A_F1_EXACT), BETA, 2,
          [Fr(3, 5), Fr(4, 5), Fr(1)], [Fr(1), Fr(4, 5), Fr(3, 5)]))
# the delay bound (1 - beta) x + beta x1 is the float 0.1 here, just above
# the Fraction 1/10, yet their difference rounds to 0.0: both checks must
# compare the two, not the difference with 0
@example((PiecewiseFrontier(tuple((u, v / 2) for u, v in A_F0_EXACT)),
          PiecewiseFrontier(tuple((u, v / 2) for u, v in A_F1_EXACT)), 0.01, 1,
          [Fr(1, 10)], [Fr(1, 10)]))
def test_scan_equals_the_per_mechanism_reference(args):
    got = undominated_scan(*args)
    want = reference_scan(*args)
    assert got == want
    # same types and signs of zero too, so the CLI writes the same bytes
    assert repr(got) == repr(want)


def dominates(a, b) -> bool:
    return all(pa >= pb for pa, pb in zip(a, b)) and a != b


@settings(max_examples=200, deadline=None)
@given(scan_inputs())
@flow_ties
def test_scan_keeps_no_entry_another_kept_one_dominates(args):
    kept = [e.payoffs for e in undominated_scan(*args)]
    assert not any(dominates(a, b) for a in kept for b in kept)


def test_scan_long_horizon_is_not_recursive(f0_exact, f1_exact):
    # one mechanism over 1500 periods: reward paths grow a period at a time,
    # so the horizon is not a recursion depth
    args = (f0_exact, f1_exact, Fr(3, 10), 1500, [Fr(4, 5)], [Fr(4, 5)])
    got = undominated_scan(*args)
    assert len(got) == 1 and got == reference_scan(*args)


class CountingFrontier:
    """A frontier that counts its ``value`` reads."""

    def __init__(self, f):
        self.f = f
        self.reads = 0

    def value(self, u):
        self.reads += 1
        return self.f.value(u)


def test_scan_reads_each_frontier_once_per_grid_level(f0_exact, f1_exact):
    # repeated and off-domain levels are read once per grid entry, never
    # once per mechanism
    x_grid = [Fr(1), Fr(3, 10), Fr(1), Fr(21, 10), Fr(4, 5)]
    reward_grid = [Fr(4, 5), Fr(19, 10), Fr(13, 20), Fr(1)]
    f0, f1 = CountingFrontier(f0_exact), CountingFrontier(f1_exact)
    kept = undominated_scan(f0, f1, BETA, 2, x_grid, reward_grid)
    assert (f0.reads, f1.reads) == (len(x_grid), len(reward_grid))
    assert kept == undominated_scan(f0_exact, f1_exact, BETA, 2, x_grid, reward_grid)
    assert kept
