"""Three-point integral boundary-value problems.

Solvers for u'' + f(t, u) = 0 with u(0) = beta*u(eta) and
u(T) = alpha * integral_0^eta u(s) ds, certification of the sufficient
conditions for at least three positive solutions, and a multi-start search
that exhibits and classifies them.
"""

from .certify import (
    Certificate,
    ConditionReport,
    ThresholdTriple,
    certify,
    check_D1,
    check_D2,
    check_D3,
    check_ordering,
    search_thresholds,
)
from .constants import LWConstants, compute_constants, delta_constant, gamma, m_constant
from .errors import (
    CertificationError,
    ConfigError,
    FunctionDomainError,
    FunctionSpecError,
    GammaDomainError,
    SingularConfigurationError,
    TribvpError,
)
from .functions import FunctionSpec, parse_function_spec
from .grid import SolutionCurve
from .linear import (
    ResidualReport,
    check_gamma_bound,
    check_nonnegativity,
    residuals,
    solve_linear,
    solve_linear_oracle,
)
from .nonlinear import (
    FixedPointResult,
    SolutionClass,
    SolveConfig,
    apply_operator_A,
    classify_solution,
    cone_membership,
    find_solutions,
    picard_iterate,
    shooting_residual,
)
from .problem import HypothesisReport, Problem, lambda_constant, validate_hypotheses

__all__ = [
    "Certificate",
    "CertificationError",
    "ConditionReport",
    "ConfigError",
    "FixedPointResult",
    "FunctionDomainError",
    "FunctionSpec",
    "FunctionSpecError",
    "GammaDomainError",
    "HypothesisReport",
    "LWConstants",
    "Problem",
    "ResidualReport",
    "SingularConfigurationError",
    "SolutionClass",
    "SolutionCurve",
    "SolveConfig",
    "ThresholdTriple",
    "TribvpError",
    "apply_operator_A",
    "certify",
    "check_D1",
    "check_D2",
    "check_D3",
    "check_gamma_bound",
    "check_nonnegativity",
    "check_ordering",
    "classify_solution",
    "compute_constants",
    "cone_membership",
    "delta_constant",
    "find_solutions",
    "gamma",
    "lambda_constant",
    "m_constant",
    "parse_function_spec",
    "picard_iterate",
    "residuals",
    "search_thresholds",
    "shooting_residual",
    "solve_linear",
    "solve_linear_oracle",
    "validate_hypotheses",
]
