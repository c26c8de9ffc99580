"""Solvers for optimal breakthrough-disclosure mechanisms.

The package models a principal who funds an agent while waiting for a
breakthrough the agent could conceal.  Given the pre- and post-disclosure
utility frontiers and a breakthrough-time distribution, it computes the
principal-optimal incentive-compatible mechanism: a deadline scheme when
the pre-disclosure frontier is affine over the relevant band, a smoothly
declining reward path in the strictly concave case, plus exact discrete
oracles and an unemployment-insurance application.
"""

from .deadline import (FocReport, OptimalDeadline, deadline_payoff, foc_check,
                       optimize_deadline, pi_and_derivs, t_underline)
from .discrete import (DiscreteMechanism, ImproveStep, ScanEntry, continuation,
                       delay_slacks, ic_discrete, improve_slack, payoff_never,
                       payoff_point, payoff_vector, undominated_scan)
from .distribution import (BreakthroughDist, OrderReport, discretize,
                           from_atoms, order_checks)
from .errors import (AtomAtZero, BracketFailure, ConfigError, DiscloseError,
                     ModelAssumptionError, NotSimple, NothingToImprove,
                     SolverError)
from .euler import (ComparativeStatics, EulerSolution, assert_simple,
                    backward_pass, comparative_statics_check, euler_residuals,
                    inv_deriv_f0, psi, simple_reasons, solve)
from .frontier import (NEG_INF, Check, ModelReport, ParametricFrontier,
                       PiecewiseFrontier, TechnologyPair, affine_gap,
                       is_neg_inf, u_star, validate_model)
from .insurance import (SweepRow, UiConstants, UiPrimitives, UiScheduleRow,
                        build_frontiers, labor_choice, schedule,
                        shift_mechanism, ui_constants, welfare_sweep)
from .mechanism import (FrontLoadResult, IcReport, Mechanism, PayoffBreakdown,
                        continuation_profile, continuation_value,
                        deadline_mechanism, front_load, ic_check,
                        mechanism_rows, payoff, reward_value)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # frontiers
    "PiecewiseFrontier", "ParametricFrontier", "TechnologyPair", "u_star",
    "affine_gap", "validate_model", "ModelReport", "Check", "NEG_INF",
    "is_neg_inf",
    # distributions
    "BreakthroughDist", "from_atoms", "discretize", "order_checks",
    "OrderReport",
    # mechanisms
    "Mechanism", "IcReport", "PayoffBreakdown", "FrontLoadResult",
    "continuation_profile", "continuation_value", "reward_value", "ic_check",
    "payoff", "front_load", "deadline_mechanism", "mechanism_rows",
    # deadline solver
    "OptimalDeadline", "FocReport", "t_underline", "deadline_payoff",
    "pi_and_derivs", "foc_check", "optimize_deadline",
    # reward-path solver
    "EulerSolution", "ComparativeStatics", "solve", "psi", "backward_pass",
    "inv_deriv_f0", "euler_residuals", "assert_simple", "simple_reasons",
    "comparative_statics_check",
    # discrete oracle
    "DiscreteMechanism", "ImproveStep", "ScanEntry", "continuation",
    "delay_slacks", "ic_discrete", "improve_slack", "payoff_point",
    "payoff_never", "payoff_vector", "undominated_scan",
    # insurance application
    "UiPrimitives", "UiConstants", "UiScheduleRow", "SweepRow",
    "build_frontiers", "ui_constants", "labor_choice", "schedule",
    "shift_mechanism", "welfare_sweep",
    # errors
    "DiscloseError", "ConfigError", "ModelAssumptionError", "SolverError",
    "NotSimple", "AtomAtZero", "BracketFailure", "NothingToImprove",
]
