"""Solvers for optimal breakthrough-disclosure mechanisms.

The package models a principal who funds an agent while waiting for a
breakthrough the agent could conceal.  Given the pre- and post-disclosure
utility frontiers and a breakthrough-time distribution, it computes the
principal-optimal incentive-compatible mechanism: a deadline scheme when
the pre-disclosure frontier is affine over the relevant band, a smoothly
declining reward path in the strictly concave case, plus exact discrete
oracles and an unemployment-insurance application.
"""

from .deadline import (deadline_payoff, front_load, optimize_deadline,
                       pi_and_derivs, t_underline)
from .discrete import (DiscreteMechanism, continuation, ic_discrete,
                       improve_slack, payoff_vector, undominated_scan)
from .distribution import discretize, from_atoms, order_checks
from .errors import (AtomAtZero, BracketFailure, ConfigError, DiscloseError,
                     ModelAssumptionError, NotSimple, NothingToImprove,
                     SolverError)
from .euler import comparative_statics_check, euler_residuals, solve
from .frontier import (ParametricFrontier, PiecewiseFrontier, TechnologyPair,
                       affine_gap)
from .insurance import UiPrimitives, build_frontiers, welfare_sweep
from .mechanism import Mechanism, continuation_value, payoff

__version__ = "0.1.0"

# what the acceptance suite, the benchmark and the README use; anything
# else is imported from its module (from disclose.euler import psi)
__all__ = [
    "__version__",
    # frontiers
    "PiecewiseFrontier", "ParametricFrontier", "TechnologyPair", "affine_gap",
    # distributions
    "from_atoms", "discretize", "order_checks",
    # mechanisms
    "Mechanism", "continuation_value", "payoff",
    # deadline solver
    "t_underline", "front_load", "deadline_payoff", "pi_and_derivs", "optimize_deadline",
    # reward-path solver
    "solve", "euler_residuals", "comparative_statics_check",
    # discrete oracle
    "DiscreteMechanism", "continuation", "ic_discrete", "improve_slack",
    "payoff_vector", "undominated_scan",
    # insurance application
    "UiPrimitives", "build_frontiers", "welfare_sweep",
    # errors
    "DiscloseError", "ConfigError", "ModelAssumptionError", "SolverError",
    "NotSimple", "AtomAtZero", "BracketFailure", "NothingToImprove",
]
