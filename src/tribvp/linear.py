"""Closed-form solver for u'' + y = 0 under the three-point integral conditions.

`solve_linear` evaluates the four-term closed form

    u(t) = [beta*(2T - a*eta^2) - 2*beta*(1 - a*eta)*t] / D * I1
         + [a*beta*eta - a*(beta - 1)*t] / D * I2
         + [2*(beta - 1)*t - 2*beta*eta] / D * I3
         - integral_0^t (t - s) y(s) ds,

    I1 = integral_0^eta (eta - s) y,   I2 = integral_0^eta (eta - s)^2 y,
    I3 = integral_0^T (T - s) y,       D  = -(structural constant Lambda),

with every integral computed by the shared Simpson rules.  A `LinearPlan` holds
what of it depends only on the problem and the grid, so a solution route
builds it once per grid size and applies it to every load.  `solve_linear_oracle`
never touches that formula: it builds the parametric solution
u(t) = u0 + s0*t - integral_0^t (t - s) y and determines (u0, s0) from the two
boundary conditions as a 2x2 solve, which makes it an independent
cross-check of the closed form.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .errors import SingularConfigurationError
from .grid import (
    SolutionCurve,
    cumulative_simpson,
    interp_cubic,
    partial_integral,
    partial_integral_weights,
)
from .problem import Problem, lambda_constant

SINGULAR_TOL = 1e-14
NONNEGATIVITY_TOL = 1e-10
GAMMA_BOUND_TOL = 1e-10


@dataclass(frozen=True)
class ResidualReport:
    """How well a curve satisfies the ODE and both boundary conditions."""

    ode_residual_max: float
    bc0_residual: float
    bcT_residual: float

    def within(self, ode_tol: float, bc_tol: float) -> bool:
        return (
            self.ode_residual_max <= ode_tol
            and self.bc0_residual <= bc_tol
            and self.bcT_residual <= bc_tol
        )

    def to_dict(self) -> dict:
        return asdict(self)


class NonnegativityCheck(NamedTuple):
    ok: bool
    t_worst: float
    min_value: float


class GammaBoundCheck(NamedTuple):
    ok: bool
    margin: float
    min_tail: float
    sup_norm: float


def check_grid(p: Problem, y: SolutionCurve) -> None:
    T = float(p.T)
    if abs(y.t0) > 1e-12 or abs(y.t1 - T) > 1e-9 * max(1.0, T):
        raise ValueError("input curve must be sampled on [0, T]")
    if y.n % 2 == 0:
        raise ValueError("linear solve needs an odd node count")


class LinearPlan:
    """The closed form's setup for one problem on n uniform nodes of [0, T], done once.

    Calling the plan on a load of shape (n,), or (n, k) with one load per
    column, returns the solution's nodal values exactly as solve_linear does:
    two cumulative Simpson sums, three eta-weight products and the closed form.
    """

    def __init__(self, p: Problem, n: int):
        T, eta, alpha, beta = p.floats()
        d = -float(lambda_constant(p))  # the closed form's D
        if abs(d) < SINGULAR_TOL:
            raise SingularConfigurationError(f"beta = {beta} makes the boundary system singular (Lambda = {-d})")
        self.T, self.eta, self.h = T, eta, T / (n - 1)
        self.t = t = np.linspace(0.0, T, n)
        self.t2 = t * t
        self.w_eta = partial_integral_weights(n, self.h, eta)
        self.c1 = (beta * (2.0 * T - alpha * eta * eta) - 2.0 * beta * (1.0 - alpha * eta) * t) / d
        self.c2 = (alpha * beta * eta - alpha * (beta - 1.0) * t) / d
        self.c3 = (2.0 * (beta - 1.0) * t - 2.0 * beta * eta) / d

    def __call__(self, v: np.ndarray) -> np.ndarray:
        t, t2, c1, c2, c3 = (a if v.ndim == 1 else a[:, None] for a in (self.t, self.t2, self.c1, self.c2, self.c3))
        tv, eta = t * v, self.eta
        conv = t * cumulative_simpson(v, self.h) - cumulative_simpson(tv, self.h)  # integral_0^t (t - s) y(s) ds
        y1_eta, y2_eta, y3_eta = self.w_eta @ v, self.w_eta @ tv, self.w_eta @ (t2 * v)
        i1 = eta * y1_eta - y2_eta
        i2 = eta * eta * y1_eta - 2.0 * eta * y2_eta + y3_eta
        return c1 * i1 + c2 * i2 + c3 * conv[-1] - conv


def solve_linear(p: Problem, y: SolutionCurve) -> SolutionCurve:
    """Evaluate the closed-form solution of u'' + y = 0 on y's grid."""
    check_grid(p, y)
    return SolutionCurve(0.0, float(p.T), LinearPlan(p, y.n)(y.values))


def solve_linear_oracle(p: Problem, y: SolutionCurve) -> SolutionCurve:
    """Direct construction: parametric double integral + 2x2 boundary solve."""
    check_grid(p, y)
    T, eta, alpha, beta = p.floats()
    t, h, v = y.nodes, y.h, y.values
    conv = t * cumulative_simpson(v, h) - cumulative_simpson(t * v, h)  # integral_0^t (t - s) y(s) ds
    conv_eta = eta * partial_integral(v, h, eta) - partial_integral(t * v, h, eta)
    conv_cum_eta = partial_integral(conv, h, eta)  # integral_0^eta of the convolution
    # u(t) = u0 + s0*t - conv(t); the boundary conditions give
    #   (1 - beta) u0 - beta*eta s0            = -beta * conv(eta)
    #   (1 - alpha*eta) u0 + (T - alpha*eta^2/2) s0 = conv(T) - alpha * conv_cum_eta
    a_mat = np.array(
        [
            [1.0 - beta, -beta * eta],
            [1.0 - alpha * eta, T - alpha * eta * eta / 2.0],
        ]
    )
    rhs = np.array([-beta * conv_eta, conv[-1] - alpha * conv_cum_eta])
    det = a_mat[0, 0] * a_mat[1, 1] - a_mat[0, 1] * a_mat[1, 0]
    if abs(det) < SINGULAR_TOL:
        raise SingularConfigurationError(
            f"boundary system is singular for these parameters (det = {det})"
        )
    u0, s0 = np.linalg.solve(a_mat, rhs)
    return SolutionCurve(0.0, T, u0 + s0 * t - conv)


def residuals(p: Problem, u: SolutionCurve, y: SolutionCurve) -> ResidualReport:
    """Second-difference ODE residual plus both boundary-condition residuals."""
    if u.n != y.n:
        raise ValueError("u and y must share a grid")
    T, eta, alpha, beta = p.floats()
    h = u.h
    uv = u.values
    second = (uv[:-2] - 2.0 * uv[1:-1] + uv[2:]) / (h * h)
    ode_res = float(np.max(np.abs(second + y.values[1:-1]))) if u.n > 2 else 0.0
    u_eta = interp_cubic(uv, h, eta)
    bc0 = abs(uv[0] - beta * u_eta)
    bcT = abs(uv[-1] - alpha * partial_integral(uv, h, eta))
    return ResidualReport(ode_residual_max=ode_res, bc0_residual=float(bc0), bcT_residual=float(bcT))


def check_nonnegativity(u: SolutionCurve, tol: float = NONNEGATIVITY_TOL) -> NonnegativityCheck:
    idx = int(np.argmin(u.values))
    worst = float(u.values[idx])
    return NonnegativityCheck(ok=worst >= -tol, t_worst=float(u.nodes[idx]), min_value=worst)


def check_gamma_bound(
    u: SolutionCurve, gamma: float, eta: float, tol: float = GAMMA_BOUND_TOL
) -> GammaBoundCheck:
    """Tail-minimum bound: min over grid nodes in [eta, T] >= gamma * sup norm."""
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    min_tail = u.min_from(eta)
    sup = u.sup_norm()
    margin = min_tail - gamma * sup
    return GammaBoundCheck(ok=margin >= -tol, margin=float(margin), min_tail=min_tail, sup_norm=sup)
