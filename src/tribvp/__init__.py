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
from .constants import LWConstants, compute_constants
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
from .linear import ResidualReport, solve_linear
from .nonlinear import (
    FixedPointResult,
    SolutionClass,
    classify_solution,
    cone_membership,
    find_solutions,
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
    "ThresholdTriple",
    "TribvpError",
    "certify",
    "check_D1",
    "check_D2",
    "check_D3",
    "check_ordering",
    "classify_solution",
    "compute_constants",
    "cone_membership",
    "find_solutions",
    "lambda_constant",
    "parse_function_spec",
    "search_thresholds",
    "solve_linear",
    "validate_hypotheses",
]
