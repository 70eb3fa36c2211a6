"""Finite-horizon optimal control of finite-state pure jump Markov processes.

Solvers for the primal HJB equation and its penalized family on the
randomized pair space, exact path simulation with Girsanov tilting, and the
BSDE-level identities linking all of them.
"""

from .model import (
    Problem,
    SolverConfig,
    ValidationReport,
    cost_at,
    load_problem,
    pair_rate_bound,
    problem_from_dict,
    problem_to_dict,
    rate_bound,
    validate_problem,
)
from .simulate import (
    NU_MIN,
    FeedbackPolicy,
    IntensityControl,
    Path,
    PathBatch,
    child_rng,
    constant_control,
    constant_policy,
    simulate_controlled_paths,
    simulate_pair_path,
    simulate_pair_paths,
    simulate_pair_sample,
)
from .linear import ValueGrid, evaluate_policy, solve_kolmogorov, solve_kolmogorov_pair
from .hjb import HJBSolution, NonconvergenceError, extract_feedback, solve_hjb_picard
from .penalized import PenalizedSolution, convergence_report, solve_penalized
from .randomized import (
    d_split,
    dual_gain_direct,
    dual_gain_importance,
    dual_value_check,
    greedy_control_from_vn,
)
from .bsde import BSDESample, bsde_residual, build_sample, constraint_violation, minimal_y_report
from .oracle import oracle_compare, oracle_value

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
