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
builds it once per grid size and applies it to every load.  The plan also
holds both boundary conditions' eta stencils, on which the solution route
computes the residuals of its candidates; whether a candidate is reported,
its cone membership included, is decided in `tribvp.nonlinear`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularConfigurationError
from .grid import SolutionCurve, cumulative_simpson, interp_weights, partial_integral_weights
from .problem import Problem, lambda_constant

SINGULAR_TOL = 1e-14


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
        return {
            "ode_residual_max": self.ode_residual_max,
            "bc0_residual": self.bc0_residual,
            "bcT_residual": self.bcT_residual,
        }


def check_grid(p: Problem, y: SolutionCurve) -> None:
    T = p.floats[0]
    if abs(y.t0) > 1e-12 or abs(y.t1 - T) > 1e-9 * max(1.0, T):
        raise ValueError("input curve must be sampled on [0, T]")
    if y.n % 2 == 0:
        raise ValueError("linear solve needs an odd node count")


class LinearPlan:
    """The closed form's setup for one problem on n uniform nodes of [0, T], done once.

    Calling the plan on a load v of shape (n,), or (n, k) with one load per
    column, returns the solution's nodal values exactly as solve_linear does:
    the cumulative Simpson sums of v and t*v (one pass over both, stacked as
    two rows), three eta-weight products and the closed form, with the
    operations and their order of two separate sums on the load C-ordered,
    whatever its layout: every product with the load reads the stacked copy,
    since BLAS sums w_eta @ v in the order of v's layout.  `residuals`
    checks a candidate on the plan's eta stencils, interp_cubic's and
    partial_integral's.
    """

    def __init__(self, p: Problem, n: int):
        T, eta, alpha, beta = p.floats
        d = -float(lambda_constant(p))  # the closed form's D
        if abs(d) < SINGULAR_TOL:
            raise SingularConfigurationError(f"beta = {beta} makes the boundary system singular (Lambda = {-d})")
        self.T, self.eta, self.alpha, self.beta = T, eta, alpha, beta
        self.h = h = T / (n - 1)
        self.s_eta, self.c_eta = interp_weights(n, h, eta)  # u(eta) = c_eta . u[s_eta : s_eta + 4]
        self.w_eta = partial_integral_weights(n, h, eta)
        self.t = t = np.linspace(0.0, T, n)
        self.t2 = t * t
        self.c1 = (beta * (2.0 * T - alpha * eta * eta) - 2.0 * beta * (1.0 - alpha * eta) * t) / d
        self.c2 = (alpha * beta * eta - alpha * (beta - 1.0) * t) / d
        self.c3 = (2.0 * (beta - 1.0) * t - 2.0 * beta * eta) / d
        self._node_vectors = (t, self.t2, self.c1, self.c2, self.c3)
        self._node_columns = tuple(a[:, None] for a in self._node_vectors)  # against (n, k) loads

    def __call__(self, v: np.ndarray) -> np.ndarray:
        t, t2, c1, c2, c3 = self._node_vectors if v.ndim == 1 else self._node_columns
        stacked = np.empty((2, *v.shape))  # v and t*v
        stacked[0] = v
        v = stacked[0]
        tv = np.multiply(t, v, out=stacked[1])
        sums = cumulative_simpson(stacked.transpose(*range(1, stacked.ndim), 0), self.h)  # nodes first
        conv = t * sums[..., 0]
        conv -= sums[..., 1]  # integral_0^t (t - s) y(s) ds
        eta, w_eta = self.eta, self.w_eta
        y1_eta, y2_eta, y3_eta = w_eta @ v, w_eta @ tv, w_eta @ (t2 * v)
        i1 = eta * y1_eta - y2_eta
        i2 = eta * eta * y1_eta - 2.0 * eta * y2_eta + y3_eta
        u = c1 * i1
        u += c2 * i2
        u += c3 * conv[-1]
        u -= conv
        return u

    def residuals(self, u: np.ndarray, y: np.ndarray) -> ResidualReport:
        """Second-difference ODE residual of nodal values u under the load y, plus both boundary residuals."""
        second = (u[:-2] - 2.0 * u[1:-1] + u[2:]) / (self.h * self.h)
        ode_res = float(np.max(np.abs(second + y[1:-1]))) if u.size > 2 else 0.0
        bc0 = abs(u[0] - self.beta * float(np.dot(self.c_eta, u[self.s_eta : self.s_eta + 4])))
        bcT = abs(u[-1] - self.alpha * float(np.dot(self.w_eta, u)))
        return ResidualReport(ode_residual_max=ode_res, bc0_residual=float(bc0), bcT_residual=float(bcT))


def solve_linear(p: Problem, y: SolutionCurve) -> SolutionCurve:
    """Evaluate the closed-form solution of u'' + y = 0 on y's grid."""
    check_grid(p, y)
    return SolutionCurve(0.0, p.floats[0], LinearPlan(p, y.n)(y.values))
