import warnings
from fractions import Fraction as F

import numpy as np
import pytest

from tribvp import Problem, SolutionCurve, ThresholdTriple
from tribvp.functions import ExpDecay, Piece, PiecewiseU, ProductF, RationalSigmoid

# h(u) branches for the separable exponential problem: gentle linear ramp,
# steep ramp, long plateau at 87, short ramp, saturating rational tail.
EXP_PIECES = (
    Piece(F(1), "linear", (F(2, 25), F(0))),
    Piece(F(4), "linear", (F(2173, 75), F(-2167, 75))),
    Piece(F(544), "constant", (F(87),)),
    Piece(F(546), "linear", (F(87, 544), F(0))),
    Piece(None, "rational-linear", (F(117), F(7371), F(1), F(270))),
)


def make_sigmoid_problem() -> Problem:
    return Problem(
        T=F(1),
        eta=F(1, 3),
        alpha=F(3),
        beta=F(1, 2),
        f=RationalSigmoid(scale=F(40)),
    )


def make_exp_piecewise_problem() -> Problem:
    return Problem(
        T=F(1),
        eta=F(1, 2),
        alpha=F(1),
        beta=F(1),
        f=ProductF(time_factor=ExpDecay(rate=F(1)), u_factor=PiecewiseU(pieces=EXP_PIECES)),
    )


@pytest.fixture
def sigmoid_problem() -> Problem:
    return make_sigmoid_problem()


@pytest.fixture
def exp_piecewise_problem() -> Problem:
    return make_exp_piecewise_problem()


@pytest.fixture
def sigmoid_thresholds() -> ThresholdTriple:
    return ThresholdTriple(F(1, 120), F(2), F(124)).with_gamma(F(1, 4))


@pytest.fixture
def exp_thresholds() -> ThresholdTriple:
    return ThresholdTriple(F(1, 4), F(4), F(544)).with_gamma(F(1, 4))


def random_valid_problem(rng: np.random.Generator, allow_beta_zero: bool = True) -> Problem:
    """Admissible float parameters, kept away from the degenerate edges."""
    T = rng.uniform(0.5, 1.5)
    eta = rng.uniform(0.25, 0.75) * T
    alpha = rng.uniform(0.2, 0.7) * (2.0 * T / eta**2)
    beta_bound = (2.0 * T - alpha * eta**2) / (alpha * eta**2 - 2.0 * eta + 2.0 * T)
    lo = 0.0 if allow_beta_zero else 0.05
    beta = rng.uniform(lo, 0.7) * beta_bound
    return Problem(T=T, eta=eta, alpha=alpha, beta=beta)


def random_nonnegative_load(T: float, n: int, rng: np.random.Generator) -> SolutionCurve:
    """Random nonnegative piecewise-polynomial load.

    Pieces are squared piecewise-linear functions plus a nonnegative
    piecewise-linear part, with breakpoints pinned to even grid nodes so
    the slope kinks sit on Simpson pair boundaries and do not degrade the
    quadrature order the comparison relies on.
    """
    t = np.linspace(0.0, T, n)
    if rng.uniform() < 0.5:
        coeffs = rng.uniform(-1.0, 1.0, size=3)
        q = np.polyval(coeffs, t / T)
        return SolutionCurve(0.0, T, q * q + rng.uniform(0.0, 1.0))
    n_break = int(rng.integers(3, 7))
    bp_idx = np.sort(rng.choice(np.arange(2, n - 1, 2), size=n_break, replace=False))
    knots = np.concatenate([[0.0], t[bp_idx], [T]])
    q = np.interp(t, knots, rng.uniform(-1.0, 1.0, size=knots.size))
    r = np.interp(t, knots, rng.uniform(0.0, 1.0, size=knots.size))
    return SolutionCurve(0.0, T, q * q + r)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240811)


def pytest_runtest_makereport(item, call):
    """Let a failing Hypothesis test print its example under `pytest -W error`.

    On a failure Hypothesis's plugin imports `hypothesis.extra._patching` to
    write a patch, and libcst's import there raises a DeprecationWarning
    (mypy_extensions.TypedDict), which `-W error` turns into an INTERNALERROR.
    Importing it here first, with only that warning ignored, keeps every other
    warning an error; it costs about 0.5 s, so only when such a test fails.
    """
    if call.when != "call" or call.excinfo is None or not getattr(getattr(item, "obj", None), "is_hypothesis_test", False):
        return
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="mypy_extensions.TypedDict is deprecated", category=DeprecationWarning)
        try:
            import hypothesis.extra._patching  # noqa: F401
        except ImportError:  # without libcst Hypothesis writes no patch and prints the example anyway
            pass
