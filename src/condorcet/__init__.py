"""Condorcet winner probabilities under voting cultures.

Exact enumeration, the closed-form minimum over all cultures, Monte Carlo
estimation, quadrature for the impartial-culture leading constant, and
executable checkers for the analytic inequalities behind all of it.
"""

__version__ = "0.1.0"

from .model import (
    CapExceededError,
    Culture,
    Profile,
    Ranking,
    SupportTooLargeError,
    culture_from_entries,
    culture_from_json_obj,
    culture_to_json_obj,
    load_culture,
    rotation_ranking,
    save_culture,
)
from .engine import CondorcetOutcome, find_condorcet_winner, majority_prefers
from .cultures import (
    STREAM_VERSION,
    cyclic_culture,
    impartial_culture,
    mix64,
)
from .special import (
    elementary_symmetric,
    majority_tail,
    majority_tail_derivative,
    majority_tail_exact,
    poisson_binomial_tail,
)
from .exact import (
    ExactProbability,
    condorcet_probability,
    marginal_lower_bound,
    min_condorcet_probability,
)
from .montecarlo import Estimate, estimate_condorcet_probability, sweep
from .asymptotic import (
    ConstantEstimate,
    Refinement,
    estimate_leading_constant,
    impartial_leading_term,
    min_prob_large_k_rate,
    min_prob_large_n_leading,
    orthant_tail_bound,
    truncated_box_integral,
)
from .verify import (
    CheckReport,
    check_scaled_tail_bound,
    check_tail_convexity,
    check_tail_derivative,
    check_tail_sandwich,
    check_tail_symmetry,
    check_taylor_bounds,
    run_suites,
)

__all__ = [
    "CapExceededError",
    "CheckReport",
    "CondorcetOutcome",
    "ConstantEstimate",
    "Culture",
    "Estimate",
    "ExactProbability",
    "Profile",
    "Ranking",
    "Refinement",
    "STREAM_VERSION",
    "SupportTooLargeError",
    "check_scaled_tail_bound",
    "check_tail_convexity",
    "check_tail_derivative",
    "check_tail_sandwich",
    "check_tail_symmetry",
    "check_taylor_bounds",
    "condorcet_probability",
    "culture_from_entries",
    "culture_from_json_obj",
    "culture_to_json_obj",
    "cyclic_culture",
    "elementary_symmetric",
    "estimate_condorcet_probability",
    "estimate_leading_constant",
    "find_condorcet_winner",
    "impartial_culture",
    "impartial_leading_term",
    "load_culture",
    "majority_prefers",
    "majority_tail",
    "majority_tail_derivative",
    "majority_tail_exact",
    "marginal_lower_bound",
    "min_condorcet_probability",
    "min_prob_large_k_rate",
    "min_prob_large_n_leading",
    "mix64",
    "orthant_tail_bound",
    "poisson_binomial_tail",
    "rotation_ranking",
    "run_suites",
    "save_culture",
    "sweep",
    "truncated_box_integral",
]
