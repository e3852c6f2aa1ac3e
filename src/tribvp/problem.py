"""Problem instances for u'' + f(t, u) = 0 with three-point integral conditions.

A problem couples u(0) = beta * u(eta) and u(T) = alpha * integral_0^eta u,
with 0 < eta < T.  The admissible parameter region requires
alpha < 2T/eta^2 and beta < (2T - alpha*eta^2)/(alpha*eta^2 - 2*eta + 2T);
`validate_hypotheses` checks these bounds and the nonnegativity/non-vanishing
requirement on f over a box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .functions import F_CHECK_U_MAX, FunctionSpec, Range
from .numeric import Number, exact_operands, is_exact, reduced

# Strict inequalities are checked with zero tolerance in exact-rational mode
# and this tolerance in float mode.
FLOAT_STRICTNESS_TOL = 1e-12


@dataclass(frozen=True)
class Problem:
    """One boundary-value problem instance.

    Structural constraints (positive horizon, interior eta, nonnegative
    weights) are enforced here; the sharper admissibility bounds on alpha and
    beta are reported by `validate_hypotheses` so that out-of-range configs
    can still be represented and diagnosed.
    """

    T: Number
    eta: Number
    alpha: Number
    beta: Number
    f: FunctionSpec | None = None

    def __post_init__(self):
        T, eta, alpha, beta = self.floats
        for name, value in zip(("T", "eta", "alpha", "beta"), self.floats):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not T > 0:
            raise ValueError(f"T must be positive, got {self.T}")
        if not 0 < eta < T:
            raise ValueError(f"eta must lie strictly inside (0, T), got {self.eta}")
        if not alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if beta < 0:
            raise ValueError(f"beta must be nonnegative, got {self.beta}")

    @property
    def exact(self) -> bool:
        return is_exact(self.T, self.eta, self.alpha, self.beta)

    @cached_property
    def floats(self) -> tuple[float, float, float, float]:
        """(T, eta, alpha, beta) as floats, converted once."""
        return float(self.T), float(self.eta), float(self.alpha), float(self.beta)

    @cached_property
    def operands(self) -> tuple:
        """(T, eta, alpha, beta) for a closed form: `Unreduced` when the problem is exact, else as given."""
        return exact_operands(self.T, self.eta, self.alpha, self.beta)

    @cached_property
    def zero_is_solution(self) -> bool:
        """Whether f(., 0) = 0 on [0, T], so that u = 0 solves the problem exactly: f's range on
        [0, T] x [0, 0] is [0, 0].  Proved once per problem."""
        r = self.f.range(0.0, self.floats[0], 0.0, 0.0)
        return r.lo == r.hi == 0

    def alpha_upper(self) -> Number:
        T, eta, _, _ = self.operands
        return reduced(_alpha_upper(T, eta))

    def beta_upper(self) -> Number:
        T, eta, alpha, _ = self.operands
        return reduced(_beta_upper(T, eta, alpha))

    def with_params(self, **overrides) -> "Problem":
        fields = {"T": self.T, "eta": self.eta, "alpha": self.alpha, "beta": self.beta, "f": self.f}
        fields.update(overrides)
        return Problem(**fields)


@dataclass(frozen=True)
class HypothesisReport:
    """Outcome of the admissibility checks for one problem."""

    h2_alpha_ok: bool
    h2_beta_ok: bool
    h1_ok: bool
    messages: tuple = ()

    @property
    def ok(self) -> bool:
        return self.h2_alpha_ok and self.h2_beta_ok and self.h1_ok

    def to_dict(self) -> dict:
        return {
            "h2_alpha_ok": self.h2_alpha_ok,
            "h2_beta_ok": self.h2_beta_ok,
            "h1_ok": self.h1_ok,
            "messages": list(self.messages),
            "ok": self.ok,
        }


def validate_hypotheses(p: Problem, u_max: float = F_CHECK_U_MAX, f_range: Range | None = None) -> HypothesisReport:
    """Check the parameter bounds and the f-hypothesis.

    The bound checks are strict: zero tolerance when the parameters are exact
    rationals, 1e-12 otherwise.  The f check bounds f over [0, T] x [0, u_max]
    with its `range` and requires f >= 0 on the whole box and f > 0 somewhere;
    f is continuous, so a positive value means f does not vanish on a set of
    positive measure.  f_range, when given, is p.f's range on that box,
    already taken (as a run's configuration takes it), and is used as is.
    """
    h2_alpha_ok, h2_beta_ok, messages = check_h2(p)
    h1_ok, h1_messages = _check_f(p, float(u_max), f_range)
    return HypothesisReport(h2_alpha_ok, h2_beta_ok, h1_ok, messages + h1_messages)


def check_h2(p: Problem) -> tuple[bool, bool, tuple]:
    """The bound checks of `validate_hypotheses` alone: (h2_alpha_ok, h2_beta_ok, messages)."""
    tol = 0 if p.exact else FLOAT_STRICTNESS_TOL
    messages = []
    T, eta, alpha, beta = p.operands

    alpha_bound = _alpha_upper(T, eta)
    h2_alpha_ok = bool(alpha > tol and alpha < alpha_bound - tol)
    if not h2_alpha_ok:
        messages.append(
            f"alpha = {p.floats[2]} violates 0 < alpha < 2T/eta^2 = {float(alpha_bound)}"
        )

    structural = alpha * eta * eta - 2 * eta + 2 * T
    # Positive whenever alpha > 0 and eta < T; asserted for safety.
    assert float(structural) > 0, "alpha*eta^2 - 2*eta + 2T must be positive"

    beta_bound = _beta_upper(T, eta, alpha)
    h2_beta_ok = bool(beta > tol and beta < beta_bound - tol)
    if not h2_beta_ok:
        messages.append(
            f"beta = {p.floats[3]} violates 0 < beta < "
            f"(2T - alpha*eta^2)/(alpha*eta^2 - 2*eta + 2T) = {float(beta_bound)}"
        )
    return h2_alpha_ok, h2_beta_ok, tuple(messages)


def _check_f(p: Problem, u_hi: float, r: Range | None):
    if p.f is None:
        return False, ("no nonlinearity configured",)
    T = p.floats[0]
    box = f"[0, {T}] x [0, {u_hi}]"
    if r is None:
        try:
            r = p.f.range(0.0, T, 0.0, u_hi)
        except Exception as exc:  # report a failing user-supplied f as a failed hypothesis
            return False, (f"f evaluation failed on {box}: {exc}",)
    if not (math.isfinite(r.lo) and math.isfinite(r.hi)):
        return False, (f"f is not finite on {box}",)
    if r.lo < 0:
        return False, (f"f is negative at (t, u) = {r.lo_at}: {r.lo} ({r.method} bound)",)
    if not r.hi > 0:
        return False, (f"f vanishes identically on {box}",)
    return True, ()


def lambda_constant(p: Problem) -> Number:
    """Structural constant (2T - alpha*eta^2) - beta*(alpha*eta^2 - 2*eta + 2T).

    Positive exactly on the admissible parameter region; it is the canonical
    denominator for the closed-form linear solve (whose textbook form carries
    the opposite sign).
    """
    return reduced(lambda_of(*p.operands))


def _alpha_upper(T, eta):
    return 2 * T / (eta * eta)


def _beta_upper(T, eta, alpha):
    num = 2 * T - alpha * eta * eta
    den = alpha * eta * eta - 2 * eta + 2 * T
    return num / den


def lambda_of(T, eta, alpha, beta):
    """lambda_constant's closed form on operands as `Problem.operands` gives them."""
    ae2 = alpha * eta * eta
    return (2 * T - ae2) - beta * (ae2 - 2 * eta + 2 * T)
