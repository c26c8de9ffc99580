"""Discrete-period oracle: exact rational arithmetic end to end.

Every fixture here was worked by hand with fractions, so assertions use
``==`` on exact values — any floating point creeping into the module would
fail these immediately.
"""

from __future__ import annotations

from fractions import Fraction as Fr

import pytest

from disclose import (
    ConfigError,
    DiscreteMechanism,
    NothingToImprove,
    continuation,
    ic_discrete,
    improve_slack,
    payoff_vector,
    undominated_scan,
)
from disclose.discrete import delay_slacks
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
